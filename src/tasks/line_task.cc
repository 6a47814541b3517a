#include "tasks/line_task.h"

#include <algorithm>
#include <cstring>

namespace cwc::tasks {

std::size_t LineTask::step(ByteView input, std::size_t budget) {
  const std::size_t start = static_cast<std::size_t>(consumed_);
  const std::size_t size = input.size();
  if (start >= size) return 0;

  const char* const data = reinterpret_cast<const char*>(input.data());
  const std::size_t soft_end = std::min(size, start + budget);
  std::size_t pos = start;
  while (pos < size) {
    const auto* newline = static_cast<const char*>(std::memchr(data + pos, '\n', size - pos));
    const std::size_t eol = newline ? static_cast<std::size_t>(newline - data) : size;
    const std::size_t record_end = newline ? eol + 1 : eol;
    if (record_end > soft_end && pos > start) {
      break;  // budget exhausted at a record boundary
    }
    process_line(std::string_view(data + pos, eol - pos));
    pos = record_end;
    if (pos >= soft_end) break;
  }
  consumed_ = pos;
  return pos - start;
}

Checkpoint LineTask::checkpoint() const {
  BufferWriter w;
  save_state(w);
  return Checkpoint{consumed_, w.take()};
}

void LineTask::restore(const Checkpoint& cp) {
  consumed_ = cp.bytes_processed;
  BufferReader r(cp.state);
  load_state(r);
}

}  // namespace cwc::tasks

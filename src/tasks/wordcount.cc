#include "tasks/wordcount.h"

#include <algorithm>

#include "common/strings.h"

namespace cwc::tasks {

WordCountTask::WordCountTask(std::string target) : target_(to_lower(target)) {}

void WordCountTask::process_line(std::string_view line) {
  const auto same_letter = [](char token_char, char target_char) {
    return ascii_lower(token_char) == target_char;
  };
  for (auto token = next_token(line); !token.empty(); token = next_token(line)) {
    if (std::equal(token.begin(), token.end(), target_.begin(), target_.end(), same_letter)) {
      ++count_;
    }
  }
}

Bytes WordCountTask::partial_result() const {
  BufferWriter w;
  w.write_u64(count_);
  return w.take();
}

void WordCountTask::save_state(BufferWriter& w) const { w.write_u64(count_); }

void WordCountTask::load_state(BufferReader& r) { count_ = r.read_u64(); }

WordCountFactory::WordCountFactory(std::string target)
    : target_(to_lower(target)), name_("word-count:" + target_) {}

std::unique_ptr<Task> WordCountFactory::create() const {
  return std::make_unique<WordCountTask>(target_);
}

Bytes WordCountFactory::aggregate(const std::vector<Bytes>& partials) const {
  std::uint64_t total = 0;
  for (const auto& partial : partials) total += decode(partial);
  BufferWriter w;
  w.write_u64(total);
  return w.take();
}

std::uint64_t WordCountFactory::decode(const Bytes& result) {
  BufferReader r(result);
  return r.read_u64();
}

}  // namespace cwc::tasks

#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}
}  // namespace

struct SpanRecorder::ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indices of open spans, innermost last
};

namespace {
std::mutex g_buffers_mutex;
// Buffers outlive their threads: agent threads end before the drain.
std::vector<std::unique_ptr<SpanRecorder::ThreadBuffer>>& all_buffers() {
  static std::vector<std::unique_ptr<SpanRecorder::ThreadBuffer>> buffers;
  return buffers;
}
std::atomic<std::uint64_t> g_next_id{1};
thread_local SpanRecorder::ThreadBuffer* t_buffer = nullptr;
}  // namespace

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::ThreadBuffer& SpanRecorder::local() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->thread = static_cast<std::uint32_t>(all_buffers().size());
    t_buffer = buffer.get();
    all_buffers().push_back(std::move(buffer));
  }
  return *t_buffer;
}

std::vector<Span> SpanRecorder::drain() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> out;
  for (auto& buffer : all_buffers()) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->open.clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(const char* layer, const char* name, std::int64_t batch,
                       std::int64_t piece) {
  SpanRecorder& recorder = SpanRecorder::global();
  if (!recorder.enabled()) return;
  SpanRecorder::ThreadBuffer& buffer = recorder.local();
  Span span;
  span.layer = layer;
  span.name = name;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].id;
  span.batch = batch;
  span.piece = piece;
  span.thread = buffer.thread;
  span.start_ns = now_ns();
  index_ = buffer.spans.size();
  buffer.spans.push_back(span);
  buffer.open.push_back(index_);
  buffer_ = &buffer;
}

void ScopedSpan::set_piece(std::int64_t piece) {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].piece = piece;
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = now_ns();
  buffer_->open.pop_back();
}

std::map<std::string, LayerTime> self_time_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, LayerTime> out;
  for (const Span& span : spans) {
    const auto dur = static_cast<double>(span.end_ns - span.start_ns);
    const auto it = child_ns.find(span.id);
    const double children = it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
    LayerTime& layer = out[span.layer];
    ++layer.spans;
    layer.total_ms += dur / 1e6;
    layer.self_ms += (dur - children) / 1e6;
  }
  return out;
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const Span& span : spans) origin = std::min(origin, span.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  bool first = true;
  for (const Span& span : spans) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"batch\":%lld,\"piece\":%lld}}",
                 first ? "" : ",\n", span.name, span.layer, span.thread,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.batch), static_cast<long long>(span.piece));
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench

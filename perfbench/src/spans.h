// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded only around calls the benchmark itself makes into a
// layer (or that reach it through a benchmark-owned wrapper), never inside
// the program. Each thread appends to its own buffer, so recording costs two
// clock reads and a vector push; buffers are drained only while every
// recording thread is quiescent (between iterations).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* layer = "";  ///< module the call lands in, e.g. "core.scheduler"
  const char* name = "";   ///< the call, e.g. "build"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< enclosing span on the same thread, 0 = none
  std::int64_t batch = -1;   ///< shared id of every span of one batch run
  std::int64_t piece = -1;   ///< shared id of every span of one piece, or -1
  std::uint32_t thread = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Moves every recorded span out of the per-thread buffers. Callers
  /// guarantee no thread is recording (agent threads joined).
  std::vector<Span> drain();

  /// The calling thread's span buffer (created on first use).
  struct ThreadBuffer;
  ThreadBuffer& local();

 private:
  std::atomic<bool> enabled_{false};
};

/// Records one span for its lifetime when the recorder is enabled; nested
/// spans on the same thread become its children.
class ScopedSpan {
 public:
  ScopedSpan(const char* layer, const char* name, std::int64_t batch, std::int64_t piece = -1);
  ~ScopedSpan();
  /// Tags the span with its piece once known (e.g. after decoding).
  void set_piece(std::int64_t piece);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buffer_ = nullptr;  ///< null when the recorder is off
  std::size_t index_ = 0;
};

/// Self time per layer: a span's duration minus the part its children
/// cover, summed over the layer's spans.
struct LayerTime {
  std::size_t spans = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, LayerTime> self_time_by_layer(const std::vector<Span>& spans);

/// Writes Chrome trace-event JSON ("X" complete events, microseconds), the
/// format Perfetto and chrome://tracing load. Returns false on I/O error.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

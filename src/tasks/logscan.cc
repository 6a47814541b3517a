#include "tasks/logscan.h"

#include "common/strings.h"

namespace cwc::tasks {

namespace {
constexpr std::array<std::string_view, static_cast<std::size_t>(Severity::kCount)> kSeverityNames = {
    "DEBUG", "INFO", "WARN", "ERROR", "FATAL"};
}

LogScanTask::LogScanTask(std::string pattern) : pattern_(std::move(pattern)) {}

void LogScanTask::process_line(std::string_view line) {
  ++result_.total_lines;
  // Record format: "<epoch-seconds> <SEVERITY> <message...>".
  std::string_view rest = line;
  next_token(rest);
  const std::string_view severity = next_token(rest);
  for (std::size_t s = 0; s < kSeverityNames.size(); ++s) {
    if (severity == kSeverityNames[s]) {
      ++result_.severity_counts[s];
      break;
    }
  }
  if (!pattern_.empty() && line.find(pattern_) != std::string_view::npos) {
    ++result_.pattern_matches;
  }
}

Bytes LogScanTask::partial_result() const { return LogScanFactory::encode(result_); }

void LogScanTask::save_state(BufferWriter& w) const {
  for (std::uint64_t c : result_.severity_counts) w.write_u64(c);
  w.write_u64(result_.pattern_matches);
  w.write_u64(result_.total_lines);
}

void LogScanTask::load_state(BufferReader& r) {
  for (std::uint64_t& c : result_.severity_counts) c = r.read_u64();
  result_.pattern_matches = r.read_u64();
  result_.total_lines = r.read_u64();
}

LogScanFactory::LogScanFactory(std::string pattern)
    : pattern_(std::move(pattern)), name_("log-scan:" + pattern_) {}

std::unique_ptr<Task> LogScanFactory::create() const {
  return std::make_unique<LogScanTask>(pattern_);
}

Bytes LogScanFactory::aggregate(const std::vector<Bytes>& partials) const {
  LogScanResult total;
  for (const auto& partial : partials) {
    const LogScanResult r = decode(partial);
    for (std::size_t s = 0; s < total.severity_counts.size(); ++s) {
      total.severity_counts[s] += r.severity_counts[s];
    }
    total.pattern_matches += r.pattern_matches;
    total.total_lines += r.total_lines;
  }
  return encode(total);
}

LogScanResult LogScanFactory::decode(const Bytes& result) {
  BufferReader r(result);
  LogScanResult out;
  for (std::uint64_t& c : out.severity_counts) c = r.read_u64();
  out.pattern_matches = r.read_u64();
  out.total_lines = r.read_u64();
  return out;
}

Bytes LogScanFactory::encode(const LogScanResult& result) {
  BufferWriter w;
  for (std::uint64_t c : result.severity_counts) w.write_u64(c);
  w.write_u64(result.pattern_matches);
  w.write_u64(result.total_lines);
  return w.take();
}

}  // namespace cwc::tasks

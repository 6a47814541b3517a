#include "common/fault.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cwc::fault {

namespace {

constexpr const char* kPointNames[kFaultPointCount] = {
    "socket_connect",   // kSocketConnect
    "socket_read",      // kSocketRead
    "socket_write",     // kSocketWrite
    "frame_decode",     // kFrameDecode
    "keepalive_send",   // kKeepAliveSend
    "journal_append",   // kJournalAppend
    "assign_piece",     // kAssignPiece
    "report_handling",  // kReportHandling
    "scheduler_pack",   // kSchedulerPack
    "chunk_cache",      // kChunkCache
};

[[noreturn]] void spec_error(const std::string& rule, const std::string& why) {
  throw std::invalid_argument("fault spec: " + why + " in rule \"" + rule + "\"");
}

/// The whole of `text` as a number: std::stod/std::stoll alone stop at the
/// first bad character and would read "0.5x" as 0.5.
double whole_double(const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) throw std::invalid_argument("trailing characters");
  return value;
}

long long whole_int(const std::string& text) {
  std::size_t used = 0;
  const long long value = std::stoll(text, &used);
  if (used != text.size()) throw std::invalid_argument("trailing characters");
  return value;
}

std::vector<std::string> split_on(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    if (end == std::string::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

FaultAction parse_action(const std::string& rule, const std::string& text) {
  FaultAction action;
  if (text == "drop") {
    action.kind = FaultAction::Kind::kDrop;
  } else if (text == "reset") {
    action.kind = FaultAction::Kind::kReset;
  } else if (text == "corrupt") {
    action.kind = FaultAction::Kind::kCorrupt;
  } else if (text == "partial") {
    action.kind = FaultAction::Kind::kPartial;
  } else if (text.rfind("delay(", 0) == 0 && text.back() == ')') {
    action.kind = FaultAction::Kind::kDelay;
    try {
      action.delay_ms = whole_double(text.substr(6, text.size() - 7));
    } catch (const std::exception&) {
      spec_error(rule, "bad delay milliseconds");
    }
    if (!(action.delay_ms >= 0.0)) spec_error(rule, "negative delay");
    if (!std::isfinite(action.delay_ms)) spec_error(rule, "delay must be finite");
  } else {
    spec_error(rule, "unknown action \"" + text + "\"");
  }
  return action;
}

void parse_trigger(const std::string& rule, const std::string& text, FaultRule& out,
                   bool& mode_set) {
  const auto eq = text.find('=');
  if (eq == std::string::npos) spec_error(rule, "trigger missing '='");
  const std::string key = text.substr(0, eq);
  const std::string value = text.substr(eq + 1);
  try {
    if (key == "p") {
      if (mode_set) spec_error(rule, "more than one trigger mode");
      out.probability = whole_double(value);
      if (!(out.probability > 0.0 && out.probability <= 1.0)) {
        spec_error(rule, "probability must be in (0, 1]");
      }
      mode_set = true;
    } else if (key == "n") {
      if (mode_set) spec_error(rule, "more than one trigger mode");
      for (const std::string& index : split_on(value, ',')) {
        const long long hit = whole_int(index);
        if (hit <= 0) spec_error(rule, "hit indices are 1-based");
        out.hits.push_back(static_cast<std::uint64_t>(hit));
      }
      mode_set = true;
    } else if (key == "every") {
      if (mode_set) spec_error(rule, "more than one trigger mode");
      const long long every = whole_int(value);
      if (every <= 0) spec_error(rule, "every= must be positive");
      out.every = static_cast<std::uint64_t>(every);
      mode_set = true;
    } else if (key == "limit") {
      const long long limit = whole_int(value);
      if (limit <= 0) spec_error(rule, "limit= must be positive");
      out.max_fires = static_cast<std::uint64_t>(limit);
    } else {
      spec_error(rule, "unknown trigger \"" + key + "\"");
    }
  } catch (const std::invalid_argument& e) {
    if (std::string(e.what()).rfind("fault spec:", 0) == 0) throw;
    spec_error(rule, "malformed number \"" + value + "\"");
  } catch (const std::out_of_range&) {
    spec_error(rule, "number out of range \"" + value + "\"");
  }
}

}  // namespace

const char* fault_point_name(FaultPoint point) {
  const auto index = static_cast<std::size_t>(point);
  return index < kFaultPointCount ? kPointNames[index] : "unknown";
}

bool fault_point_from_name(std::string_view name, FaultPoint& out) {
  for (std::size_t i = 0; i < kFaultPointCount; ++i) {
    if (name == kPointNames[i]) {
      out = static_cast<FaultPoint>(i);
      return true;
    }
  }
  return false;
}

std::vector<FaultRule> parse_fault_spec(const std::string& spec) {
  std::vector<FaultRule> rules;
  for (const std::string& text : split_on(spec, ';')) {
    if (text.empty()) continue;
    const auto colon = text.find(':');
    if (colon == std::string::npos) spec_error(text, "missing ':' after fault point");
    FaultRule rule;
    if (!fault_point_from_name(text.substr(0, colon), rule.point)) {
      spec_error(text, "unknown fault point \"" + text.substr(0, colon) + "\"");
    }
    const std::vector<std::string> clauses = split_on(text.substr(colon + 1), '@');
    if (clauses.empty() || clauses.front().empty()) spec_error(text, "missing action");
    rule.action = parse_action(text, clauses.front());
    bool mode_set = false;
    for (std::size_t i = 1; i < clauses.size(); ++i) {
      parse_trigger(text, clauses[i], rule, mode_set);
    }
    rules.push_back(std::move(rule));
  }
  return rules;
}

void FaultInjector::add_rule(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.push_back({std::move(rule), 0});
}

void FaultInjector::add_rules(const std::vector<FaultRule>& rules) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const FaultRule& rule : rules) rules_.push_back({rule, 0});
}

void FaultInjector::arm(std::uint64_t seed) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rng_ = Rng(seed);
  }
  armed_.store(true, std::memory_order_relaxed);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_relaxed); }

void FaultInjector::set_observer(Observer observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  observer_ = std::move(observer);
}

FaultAction FaultInjector::check(FaultPoint point) {
  if (!armed()) return {};
  std::lock_guard<std::mutex> lock(mutex_);
  const auto index = static_cast<std::size_t>(point);
  const std::uint64_t hit = ++hit_counts_[index];
  for (ArmedRule& armed_rule : rules_) {
    const FaultRule& rule = armed_rule.rule;
    if (rule.point != point || armed_rule.fired >= rule.max_fires) continue;
    bool fire = false;
    if (!rule.hits.empty()) {
      fire = std::find(rule.hits.begin(), rule.hits.end(), hit) != rule.hits.end();
    } else if (rule.every > 0) {
      fire = hit % rule.every == 0;
    } else if (rule.probability > 0.0) {
      fire = rng_.chance(rule.probability);
    } else {
      fire = true;
    }
    if (!fire) continue;
    ++armed_rule.fired;
    ++fire_counts_[index];
    if (observer_) observer_(point, rule.action);
    return rule.action;
  }
  return {};
}

std::uint64_t FaultInjector::hits(FaultPoint point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hit_counts_[static_cast<std::size_t>(point)];
}

std::uint64_t FaultInjector::fires(FaultPoint point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fire_counts_[static_cast<std::size_t>(point)];
}

std::uint64_t FaultInjector::total_fires() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const std::uint64_t fires : fire_counts_) total += fires;
  return total;
}

void FaultInjector::reset() {
  disarm();
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  observer_ = nullptr;
  std::fill(std::begin(hit_counts_), std::end(hit_counts_), 0);
  std::fill(std::begin(fire_counts_), std::end(fire_counts_), 0);
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* instance = new FaultInjector();  // leaked: process lifetime
  return *instance;
}

}  // namespace cwc::fault

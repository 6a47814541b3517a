#include "common/link_fault.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/rng.h"

namespace cwc::fault {

namespace {

constexpr Millis kInf = std::numeric_limits<Millis>::infinity();

/// Longest delay one paced frame may be given: pacing models a slow link,
/// not a wedged one, so one huge frame must not hold its link for minutes.
constexpr Millis kMaxFrameDelayMs = 2000.0;

[[noreturn]] void spec_error(const std::string& rule, const std::string& why) {
  throw std::invalid_argument("link spec: " + why + " in \"" + rule + "\"");
}

std::vector<std::string> split_on(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = text.find(sep, begin);
    const std::string piece =
        text.substr(begin, end == std::string::npos ? std::string::npos : end - begin);
    if (!piece.empty()) out.push_back(piece);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return out;
}

/// Splits "120ms" / "5s" / "2min" / "80kbps" into (number, suffix).
std::pair<double, std::string> split_units(const std::string& rule, const std::string& value) {
  std::size_t cut = value.size();
  while (cut > 0 && std::isalpha(static_cast<unsigned char>(value[cut - 1]))) --cut;
  if (cut == 0) spec_error(rule, "missing numeric value '" + value + "'");
  double number = 0.0;
  try {
    std::size_t used = 0;
    number = std::stod(value.substr(0, cut), &used);
    if (used != cut) spec_error(rule, "bad number '" + value + "'");
  } catch (const std::invalid_argument&) {
    spec_error(rule, "bad number '" + value + "'");
  } catch (const std::out_of_range&) {
    spec_error(rule, "number out of range '" + value + "'");
  }
  return {number, value.substr(cut)};
}

Millis parse_time_ms(const std::string& rule, const std::string& value) {
  const auto [number, unit] = split_units(rule, value);
  if (unit.empty() || unit == "ms") return number;
  if (unit == "s") return number * 1000.0;
  if (unit == "min") return number * 60'000.0;
  spec_error(rule, "unknown time unit '" + unit + "'");
}

double parse_rate_kbps(const std::string& rule, const std::string& value) {
  const auto [number, unit] = split_units(rule, value);
  if (unit.empty() || unit == "kbps") return number;
  if (unit == "mbps") return number * 1024.0;
  spec_error(rule, "unknown rate unit '" + unit + "'");
}

double parse_fraction(const std::string& rule, const std::string& key,
                      const std::string& value) {
  const auto [number, unit] = split_units(rule, value);
  if (!unit.empty()) spec_error(rule, "unexpected unit on " + key);
  if (number <= 0.0 || number > 1.0) spec_error(rule, key + " must be in (0, 1]");
  return number;
}

LinkRule parse_rule(const std::string& text) {
  const auto clauses = split_on(text, '@');
  if (clauses.empty()) spec_error(text, "empty rule");
  const auto head = split_on(clauses[0], ':');
  if (head.size() != 3 || head[0] != "link") {
    spec_error(text, "expected link:<target>:<kind>");
  }

  LinkRule rule;
  if (head[1] == "*") {
    rule.phone = kInvalidPhone;
  } else if (head[1].rfind("phone=", 0) == 0) {
    try {
      rule.phone = static_cast<PhoneId>(std::stol(head[1].substr(6)));
    } catch (const std::exception&) {
      spec_error(text, "bad phone id '" + head[1] + "'");
    }
    if (rule.phone < 0) spec_error(text, "phone id must be >= 0");
  } else {
    spec_error(text, "target must be 'phone=<id>' or '*'");
  }

  if (head[2] == "partition") {
    rule.kind = LinkFaultKind::kPartition;
  } else if (head[2] == "slow") {
    rule.kind = LinkFaultKind::kSlow;
  } else if (head[2] == "flap") {
    rule.kind = LinkFaultKind::kFlap;
  } else if (head[2] == "burst") {
    rule.kind = LinkFaultKind::kBurst;
  } else {
    spec_error(text, "unknown kind '" + head[2] + "'");
  }

  bool saw_rate = false;
  bool saw_latency = false;
  for (std::size_t i = 1; i < clauses.size(); ++i) {
    for (const auto& kv : split_on(clauses[i], ',')) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) spec_error(text, "expected key=value, got '" + kv + "'");
      const std::string key = kv.substr(0, eq);
      const std::string value = kv.substr(eq + 1);
      if (key == "t") {
        rule.start = parse_time_ms(text, value);
        if (rule.start < 0) spec_error(text, "t must be >= 0");
      } else if (key == "dur") {
        rule.duration = parse_time_ms(text, value);
        if (rule.duration <= 0) spec_error(text, "dur must be > 0");
      } else if (key == "dir") {
        if (value == "both") rule.dir = LinkDirection::kBoth;
        else if (value == "to") rule.dir = LinkDirection::kToPhone;
        else if (value == "from") rule.dir = LinkDirection::kFromPhone;
        else spec_error(text, "dir must be to|from|both");
      } else if (key == "rate") {
        rule.rate_kbps = parse_rate_kbps(text, value);
        if (rule.rate_kbps <= 0) spec_error(text, "rate must be > 0");
        saw_rate = true;
      } else if (key == "latency") {
        rule.latency_ms = parse_time_ms(text, value);
        if (rule.latency_ms < 0) spec_error(text, "latency must be >= 0");
        saw_latency = true;
      } else if (key == "period") {
        rule.period = parse_time_ms(text, value);
        if (rule.period <= 0) spec_error(text, "period must be > 0");
      } else if (key == "duty") {
        rule.duty = parse_fraction(text, "duty", value);
      } else if (key == "p") {
        rule.loss_p = parse_fraction(text, "p", value);
      } else {
        spec_error(text, "unknown key '" + key + "'");
      }
    }
  }
  if (rule.kind == LinkFaultKind::kSlow && !saw_rate && !saw_latency) {
    spec_error(text, "slow needs rate= and/or latency=");
  }
  return rule;
}

std::string format_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

bool in_window(const LinkRule& rule, Millis t) {
  if (t < rule.start) return false;
  if (rule.duration >= 0 && t >= rule.start + rule.duration) return false;
  return true;
}

}  // namespace

std::vector<LinkRule> parse_link_spec(const std::string& spec) {
  std::vector<LinkRule> rules;
  for (const auto& text : split_on(spec, ';')) rules.push_back(parse_rule(text));
  return rules;
}

std::string to_string(const LinkRule& rule) {
  std::string out = "link:";
  out += rule.phone == kInvalidPhone ? "*" : "phone=" + std::to_string(rule.phone);
  out += ':';
  switch (rule.kind) {
    case LinkFaultKind::kPartition: out += "partition"; break;
    case LinkFaultKind::kSlow: out += "slow"; break;
    case LinkFaultKind::kFlap: out += "flap"; break;
    case LinkFaultKind::kBurst: out += "burst"; break;
  }
  std::vector<std::string> params;
  if (rule.start != 0.0) params.push_back("t=" + format_number(rule.start) + "ms");
  if (rule.duration >= 0) params.push_back("dur=" + format_number(rule.duration) + "ms");
  if (rule.dir == LinkDirection::kToPhone) params.push_back("dir=to");
  if (rule.dir == LinkDirection::kFromPhone) params.push_back("dir=from");
  if (rule.kind == LinkFaultKind::kSlow) {
    if (rule.rate_kbps > 0) params.push_back("rate=" + format_number(rule.rate_kbps) + "kbps");
    if (rule.latency_ms > 0) {
      params.push_back("latency=" + format_number(rule.latency_ms) + "ms");
    }
  }
  if (rule.kind == LinkFaultKind::kFlap) {
    params.push_back("period=" + format_number(rule.period) + "ms");
    params.push_back("duty=" + format_number(rule.duty));
  }
  if (rule.kind == LinkFaultKind::kBurst) params.push_back("p=" + format_number(rule.loss_p));
  if (!params.empty()) {
    out += '@';
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i) out += ',';
      out += params[i];
    }
  }
  return out;
}

void LinkFaultPlane::add_rules(const std::vector<LinkRule>& rules) {
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.insert(rules_.end(), rules.begin(), rules.end());
}

void LinkFaultPlane::arm(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  seed_ = seed;
  arm_time_ = std::chrono::steady_clock::now();
  buckets_.clear();
  send_counters_.clear();
  last_up_.clear();
  armed_.store(true, std::memory_order_release);
}

void LinkFaultPlane::disarm() { armed_.store(false, std::memory_order_release); }

void LinkFaultPlane::reset() {
  armed_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mutex_);
  rules_.clear();
  buckets_.clear();
  send_counters_.clear();
  last_up_.clear();
  stats_ = Stats{};
}

bool LinkFaultPlane::rule_applies(const LinkRule& rule, PhoneId phone,
                                  bool toward_phone) const {
  if (rule.phone != kInvalidPhone && rule.phone != phone) return false;
  switch (rule.dir) {
    case LinkDirection::kBoth: return true;
    case LinkDirection::kToPhone: return toward_phone;
    case LinkDirection::kFromPhone: return !toward_phone;
  }
  return false;
}

Millis LinkFaultPlane::now_ms() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   arm_time_)
      .count();
}

LinkState LinkFaultPlane::state_at(PhoneId phone, bool toward_phone, Millis t) const {
  std::lock_guard<std::mutex> lock(mutex_);
  LinkState state;
  for (const auto& rule : rules_) {
    if (!rule_applies(rule, phone, toward_phone) || !in_window(rule, t)) continue;
    switch (rule.kind) {
      case LinkFaultKind::kPartition:
        state.up = false;
        break;
      case LinkFaultKind::kFlap: {
        const Millis phase = std::fmod(t - rule.start, rule.period);
        if (phase >= rule.duty * rule.period) state.up = false;
        break;
      }
      case LinkFaultKind::kSlow:
        if (rule.rate_kbps > 0) {
          state.rate_kbps = state.rate_kbps > 0
                                ? std::min(state.rate_kbps, rule.rate_kbps)
                                : rule.rate_kbps;
        }
        state.latency_ms += rule.latency_ms;
        break;
      case LinkFaultKind::kBurst:
        state.loss_p = 1.0 - (1.0 - state.loss_p) * (1.0 - rule.loss_p);
        break;
    }
  }
  return state;
}

Millis LinkFaultPlane::next_change(PhoneId phone, bool toward_phone, Millis t) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Millis next = kInf;
  for (const auto& rule : rules_) {
    if (!rule_applies(rule, phone, toward_phone)) continue;
    if (t < rule.start) {
      next = std::min(next, rule.start);
      continue;
    }
    const Millis end = rule.duration >= 0 ? rule.start + rule.duration : kInf;
    if (t >= end) continue;
    if (rule.kind == LinkFaultKind::kFlap) {
      const Millis up_len = rule.duty * rule.period;
      const Millis phase = std::fmod(t - rule.start, rule.period);
      const Millis edge = phase < up_len ? t - phase + up_len : t - phase + rule.period;
      next = std::min(next, std::min(edge, end));
    } else {
      next = std::min(next, end);
    }
  }
  return next;
}

Millis LinkFaultPlane::latency_at(PhoneId phone, bool toward_phone, Millis t) const {
  return state_at(phone, toward_phone, t).latency_ms;
}

Millis LinkFaultPlane::transfer_ms(PhoneId phone, Millis t, Kilobytes kb,
                                   double base_ms_per_kb) const {
  if (kb <= 0) return 0.0;
  if (!armed()) return kb * base_ms_per_kb;
  const Millis begin = t;
  const Millis latency = latency_at(phone, true, t);
  double remaining = kb;
  for (int guard = 0; remaining > 1e-12; ++guard) {
    if (guard > 100'000) return kNeverMs;
    const LinkState state = state_at(phone, true, t);
    const Millis boundary = next_change(phone, true, t);
    if (!state.up) {
      if (boundary == kInf) return kNeverMs;
      t = std::max(boundary, t + 1e-6);
      continue;
    }
    double per_kb = base_ms_per_kb;
    if (state.rate_kbps > 0) per_kb = std::max(per_kb, 1000.0 / state.rate_kbps);
    // Burst loss has no frames to drop in the sim; model it as the
    // expected-throughput inflation of retransmitting lost sends.
    if (state.loss_p > 0) per_kb /= (1.0 - std::min(state.loss_p, 0.95));
    if (boundary == kInf) {
      t += remaining * per_kb;
      break;
    }
    const double possible = (boundary - t) / per_kb;
    if (possible >= remaining) {
      t += remaining * per_kb;
      break;
    }
    remaining -= possible;
    t = std::max(boundary, t + 1e-6);
  }
  return (t - begin) + latency;
}

LinkFaultPlane::Decision LinkFaultPlane::on_send(PhoneId phone, bool toward_phone,
                                                 std::size_t bytes) {
  if (!armed()) return {};
  const Millis t = now_ms();
  // state_at takes and releases the lock itself; re-acquire for the
  // bucket/counter/edge bookkeeping below.
  const LinkState state = state_at(phone, toward_phone, t);

  std::lock_guard<std::mutex> lock(mutex_);
  const LinkKey key{phone, toward_phone};
  auto [edge_it, inserted] = last_up_.try_emplace(key, true);
  if (edge_it->second && !state.up) {
    edge_it->second = false;
    if (observer_) observer_(LinkEvent::kPartitionStart, phone, t);
  } else if (!edge_it->second && state.up) {
    edge_it->second = true;
    if (observer_) observer_(LinkEvent::kHeal, phone, t);
  }

  if (!state.up) {
    ++stats_.partition_drops;
    if (observer_) observer_(LinkEvent::kPartitionDrop, phone, t);
    return {true, 0.0};
  }

  if (state.loss_p > 0) {
    // Counter-hash rather than a shared RNG: each link direction sees its
    // own reproducible Bernoulli stream no matter how threads interleave.
    std::uint64_t h = seed_ ^
                      (static_cast<std::uint64_t>(phone + 1) * 0x9e3779b97f4a7c15ULL) ^
                      (toward_phone ? 0xd6e8feb86659fd93ULL : 0x2545f4914f6cdd1dULL) ^
                      send_counters_[key]++;
    const double u =
        static_cast<double>(splitmix64(h) >> 11) * (1.0 / 9007199254740992.0);
    if (u < state.loss_p) {
      ++stats_.burst_drops;
      if (observer_) observer_(LinkEvent::kBurstDrop, phone, t);
      return {true, 0.0};
    }
  }

  Decision decision;
  decision.delay_ms = state.latency_ms;
  if (state.rate_kbps > 0) {
    Bucket& bucket = buckets_[key];
    const double capacity_kb = std::max(64.0, state.rate_kbps * 0.1);
    if (bucket.last_ms < 0) {
      bucket.tokens_kb = capacity_kb;
      bucket.last_ms = t;
    }
    bucket.tokens_kb = std::min(
        capacity_kb, bucket.tokens_kb + (t - bucket.last_ms) * state.rate_kbps / 1000.0);
    bucket.last_ms = t;
    const double need_kb = static_cast<double>(bytes) / 1024.0;
    if (bucket.tokens_kb >= need_kb) {
      bucket.tokens_kb -= need_kb;
    } else {
      const Millis wait = (need_kb - bucket.tokens_kb) * 1000.0 / state.rate_kbps;
      decision.delay_ms += wait;
      bucket.tokens_kb = 0.0;
      // The frame leaves `wait` from now, so credit accrues from then. A
      // frame queued before that instant finds the bucket in debt and
      // waits for this one too.
      bucket.last_ms = t + wait;
    }
  }
  decision.delay_ms = std::min(decision.delay_ms, kMaxFrameDelayMs);
  if (decision.delay_ms > 0) {
    ++stats_.paced_sends;
    stats_.paced_ms += decision.delay_ms;
    if (observer_) observer_(LinkEvent::kPaced, phone, decision.delay_ms);
  }
  return decision;
}

void LinkFaultPlane::set_observer(Observer observer) {
  std::lock_guard<std::mutex> lock(mutex_);
  observer_ = std::move(observer);
}

LinkFaultPlane::Stats LinkFaultPlane::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

bool LinkFaultPlane::has_rules() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !rules_.empty();
}

LinkFaultPlane& LinkFaultPlane::global() {
  static LinkFaultPlane* instance = new LinkFaultPlane();  // leaked on purpose
  return *instance;
}

}  // namespace cwc::fault

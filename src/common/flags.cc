#include "common/flags.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/strings.h"

namespace cwc {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      flags.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "true";  // bare boolean flag
    }
  }
  return flags;
}

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long long Flags::get_int(const std::string& name, long long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(it->second, &consumed);
    if (consumed == it->second.size()) return value;
  } catch (const std::exception&) {
    // no digits, or out of range for a 64-bit integer
  }
  throw std::invalid_argument("flag --" + name + ": not an integer: " + it->second);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(it->second, &consumed);
    if (consumed == it->second.size() && std::isfinite(value)) return value;
  } catch (const std::exception&) {
    // no digits, or out of range for a double
  }
  throw std::invalid_argument("flag --" + name + ": not a finite number: " + it->second);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string lower = to_lower(it->second);
  if (lower == "true" || lower == "1" || lower == "yes") return true;
  if (lower == "false" || lower == "0" || lower == "no") return false;
  throw std::invalid_argument("flag --" + name + ": not a boolean: " + it->second);
}

std::vector<std::string> Flags::unknown(const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) out.push_back(name);
  }
  return out;
}

}  // namespace cwc

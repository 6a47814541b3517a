// Minimal command-line flag parsing for the CWC tools and benches.
//
// Syntax: --name=value or --name value; bare --name sets a bool flag.
// Unknown flags are collected so tools can reject them with a usage
// message. Positional arguments are preserved in order.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cwc {

class Flags {
 public:
  /// Parses argv (argv[0] is skipped).
  static Flags parse(int argc, const char* const* argv);

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// String value; `fallback` when absent.
  std::string get(const std::string& name, const std::string& fallback = {}) const;
  /// Integer value; throws std::invalid_argument naming the flag on
  /// malformed or out-of-range input.
  long long get_int(const std::string& name, long long fallback) const;
  /// Finite double value; throws std::invalid_argument naming the flag on
  /// malformed, out-of-range or non-finite input.
  double get_double(const std::string& name, double fallback) const;
  /// Bool: bare flag or explicit true/false/1/0.
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen on the command line but not in `known`; tools use this to
  /// reject typos.
  std::vector<std::string> unknown(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace cwc

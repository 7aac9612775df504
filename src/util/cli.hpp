// Minimal command-line flag parser for the example and benchmark binaries.
//
// Supports "--name=value", "--name value", and boolean "--name" forms.
// Positional arguments are collected in order; unknown_flag() finds a flag
// the caller did not declare, and check_flags() turns that into the usage
// error a main() returns on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace trojanscout::util {

class CliParser {
 public:
  CliParser(int argc, const char* const* argv);

  /// True if the flag appeared on the command line (with or without value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// The first flag (in name order) that is not in `known`, or "" when
  /// every flag on the command line is known.
  [[nodiscard]] std::string unknown_flag(
      const std::vector<std::string>& known) const;

  /// False, after printing "error: unknown flag --NAME" to stderr, when a
  /// flag outside `known` is on the command line: a mistyped or retired
  /// flag must not run the program with defaults and look like success.
  [[nodiscard]] bool check_flags(const std::vector<std::string>& known) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace trojanscout::util

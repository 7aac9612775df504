#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace trojanscout::util {

CliParser::CliParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";
    }
  }
}

bool CliParser::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string CliParser::get_string(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 0);
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

std::string CliParser::unknown_flag(
    const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return "";
}

bool CliParser::check_flags(const std::vector<std::string>& known) const {
  const std::string unknown = unknown_flag(known);
  if (unknown.empty()) return true;
  std::fprintf(stderr, "error: unknown flag --%s\n", unknown.c_str());
  return false;
}

bool CliParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "1" || it->second == "true" ||
      it->second == "yes") {
    return true;
  }
  return false;
}

}  // namespace trojanscout::util

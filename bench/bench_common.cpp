#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "util/json_escape.hpp"

#ifndef TROJANSCOUT_GIT_REV
#define TROJANSCOUT_GIT_REV "unknown"
#endif

namespace trojanscout::bench {

namespace {

/// String-returning form of util::append_json_escaped for the stream
/// writer below.
std::string json_escape(const std::string& text) {
  std::string out;
  util::append_json_escaped(out, text);
  return out;
}

std::string format_seconds(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

std::string hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

long page_size() {
#if defined(__unix__) || defined(__APPLE__)
  const long size = sysconf(_SC_PAGESIZE);
  if (size > 0) return size;
#endif
  return 0;
}

/// Median over a sorted copy; even counts average the middle pair.
double median_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double stddev_of(const std::vector<double>& values) {
  const std::size_t n = values.size();
  if (n < 2) return 0.0;
  double mean = 0.0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(n);
  double sq = 0.0;
  for (double v : values) sq += (v - mean) * (v - mean);
  // Sample stddev: the gate treats it as measurement noise, so the
  // unbiased (n-1) estimator is the conservative choice.
  return std::sqrt(sq / static_cast<double>(n - 1));
}

}  // namespace

BenchWriter::BenchWriter(std::string bench_name, const util::CliParser& cli)
    : bench_name_(std::move(bench_name)),
      path_(cli.get_string("bench-out", "")) {}

BenchWriter::Case& BenchWriter::case_of(const std::string& name) {
  for (auto& c : cases_) {
    if (c.name == name) return c;
  }
  cases_.push_back({name, {}});
  return cases_.back();
}

void BenchWriter::add_sample(const std::string& case_name, double seconds) {
  if (!enabled()) return;
  case_of(case_name).samples.push_back(seconds);
}

std::string BenchWriter::to_json() const {
  std::vector<Case> sorted = cases_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Case& a, const Case& b) { return a.name < b.name; });

  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"trojanscout-bench-v1\",\n";
  out << "  \"bench\": \"" << json_escape(bench_name_) << "\",\n";
  out << "  \"git_rev\": \"" << json_escape(TROJANSCOUT_GIT_REV) << "\",\n";
  out << "  \"machine\": {\"hostname\": \"" << json_escape(hostname())
      << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"page_size\": " << page_size() << "},\n";
  out << "  \"cases\": [";
  bool first = true;
  for (const Case& c : sorted) {
    if (c.samples.empty()) continue;
    if (!first) out << ",";
    first = false;
    const double lo = *std::min_element(c.samples.begin(), c.samples.end());
    const double hi = *std::max_element(c.samples.begin(), c.samples.end());
    out << "\n    {\"name\": \"" << json_escape(c.name)
        << "\", \"runs\": " << c.samples.size()
        << ", \"median_seconds\": " << format_seconds(median_of(c.samples))
        << ", \"min_seconds\": " << format_seconds(lo)
        << ", \"max_seconds\": " << format_seconds(hi)
        << ", \"stddev_seconds\": " << format_seconds(stddev_of(c.samples))
        << "}";
  }
  out << "\n  ]\n";
  out << "}\n";
  return out.str();
}

bool BenchWriter::flush() const {
  if (!enabled()) return true;
  std::ofstream out(path_);
  if (!out) {
    std::fprintf(stderr, "[bench] cannot write %s\n", path_.c_str());
    return false;
  }
  out << to_json();
  std::fprintf(stderr, "[bench] history written to %s (%zu cases)\n",
               path_.c_str(), cases_.size());
  return static_cast<bool>(out);
}

}  // namespace trojanscout::bench

// Layered audit benchmark: command-line entry point.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--dimacs-dir <dir>]
//   perfbench --record-dimacs <dir>
//
// Workloads: bmc-audit, atpg-audit, fuzz-corpus (see
// README.md). Prints one "name = value unit" line per metric, then, as the
// last line, {"correct", "attempted", "failed", "metrics"} as JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "util/resource.hpp"

namespace perfbench {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  return static_cast<double>(ts::util::peak_rss_hwm_bytes()) /
         (1024.0 * 1024.0);
}

bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Regularized incomplete beta function I_x(a, b), by the continued
/// fraction of Numerical Recipes (betacf) evaluated with Lentz's method.
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - incomplete_beta(b, a, 1.0 - x);
  }
  constexpr double kTiny = 1e-300;
  const auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1.0;
  double d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
  double f = d;
  for (int m = 1; m <= 1000; ++m) {
    const double even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
    d = 1.0 / clamp(1.0 + even * d);
    c = clamp(1.0 + even / c);
    f *= d * c;
    const double odd =
        -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
    d = 1.0 / clamp(1.0 + odd * d);
    c = clamp(1.0 + odd / c);
    f *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-13) break;
  }
  const double log_front = std::lgamma(a + b) - std::lgamma(a) -
                           std::lgamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  return std::exp(log_front) * f / a;
}

}  // namespace

double hd_quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  double estimate = 0.0;
  double below = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double upto = incomplete_beta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upto - below) * values[i];
    below = upto;
  }
  return estimate;
}

Tail tail_of(std::vector<double> values) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 95.0,
                                       90.0, 80.0, 75.0};
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : kLadder) {
    // Nearest-rank percentile: the sample at rank ceil(p/100 * n).
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0 || n - rank < 10) continue;
    tail.percentile = p;
    tail.value = hd_quantile(values, p / 100.0);
    tail.beyond = n - rank;
    return tail;
  }
  tail.percentile = 50.0;
  tail.value = hd_quantile(values, 0.5);
  tail.beyond = n / 2;
  return tail;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Metrics::print() const {
  for (const auto& entry : entries_) {
    std::printf("  %-28s = %.6g %s\n", entry.name.c_str(), entry.value,
                entry.unit.c_str());
  }
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Metrics::json() const {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << entries_[i].name << "\": {\"value\": "
        << json_number(entries_[i].value) << ", \"unit\": \""
        << entries_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

std::size_t Tracer::open(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.start = wall_seconds();
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  spans_[id].end = wall_seconds();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const auto& span : spans_) {
    if (span.name == name && span.end >= span.start) {
      out.push_back(span.end - span.start);
    }
  }
  return out;
}

void Tracer::print_summary() const {
  std::map<std::string, std::pair<double, double>> per_name;  // total, self
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const auto& span : spans_) {
    if (span.parent != kNoParent) {
      child_time[span.parent] += span.end - span.start;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = spans_[i].end - spans_[i].start;
    auto& slot = per_name[spans_[i].name];
    slot.first += duration;
    slot.second += duration - child_time[i];
  }
  std::printf("trace: %zu spans\n  %-28s %12s %12s\n", spans_.size(), "span",
              "total_s", "self_s");
  for (const auto& [name, times] : per_name) {
    std::printf("  %-28s %12.4f %12.4f\n", name.c_str(), times.first,
                times.second);
  }
}

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <bmc-audit|"
               "atpg-audit|fuzz-corpus> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--dimacs-dir <dir>]\n       perfbench --record-dimacs <dir>\n",
               why);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--dimacs-dir") {
      args.dimacs_dir = value;
    } else if (flag == "--record-dimacs") {
      args.record_dimacs = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  if (!args.record_dimacs.empty()) return record_dimacs(args.record_dimacs);

  Metrics metrics;
  Outcome outcome;
  int status = 0;
  try {
    status = run_workload(args, metrics, outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (status < 0) {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }

  std::printf("%s seed=%llu trace=%d: %llu attempted, %llu failed "
              "(failed share %.4f)\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted));
  metrics.print();
  std::fflush(stdout);
  std::cout << "{\"correct\": " << (status == 0 ? "true" : "false")
            << ", \"attempted\": " << outcome.attempted
            << ", \"failed\": " << outcome.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

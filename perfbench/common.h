// Shared reporting and measurement helpers for the ctsdd benchmark.
//
// Every workload fills one Report: named metrics with unit and sample
// count, the exact counts that must repeat between runs at one seed, the
// attempted/failed tally of checked operations, and error messages. The
// binary prints it as one JSON object on the last line of stdout.

#ifndef CTSDD_PERFBENCH_COMMON_H_
#define CTSDD_PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

namespace ctsdd::perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

struct Report {
  std::vector<Metric> metrics;
  // Counts that must be identical in every run of one workload at one
  // seed on one source tree (checked within a run and, by run.py, across
  // runs).
  std::vector<std::pair<std::string, uint64_t>> exact_counts;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  // The configuration the workload ran with, as name/value pairs; it is
  // printed in the result's provenance.
  std::vector<std::pair<std::string, uint64_t>> options;

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Exact(const std::string& name, uint64_t value) {
    exact_counts.emplace_back(name, value);
  }
  void Error(const std::string& message) { errors.push_back(message); }
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// The window is split into rounds of about this many seconds, each on a
// fresh set-up, and every end-to-end metric is the median of its
// per-round values.
constexpr double kRoundSeconds = 5;

inline int Rounds(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)));
}

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 0.5);
}

inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double NowSeconds() {
  timespec now;
  clock_gettime(CLOCK_MONOTONIC, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// CPU seconds consumed by every thread of this process.
inline double ProcessCpuSeconds() {
  timespec t;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

inline double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Counter-based seed derivation (splitmix64 finalizer): request i of
// client c at seed s gets an independent, reproducible weight stream.
inline uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
               c * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Answers from the service or a compiled diagram against a reference.
inline bool SameProbability(double a, double b) {
  return std::fabs(a - b) <= 1e-9;
}

Report RunDbChurn(const RunArgs& args);
Report RunColdCompile(const RunArgs& args);

}  // namespace ctsdd::perfbench

#endif  // CTSDD_PERFBENCH_COMMON_H_

// ctsdd_perfbench: runs one workload and prints its report as one
// JSON object on the last line of stdout. perfbench/run.py builds this
// binary, runs it, checks the exact counts across runs, and prints the
// final result line.
//
//   ctsdd_perfbench --workload db_churn|cold_compile
//                   --seed N --seconds S --trace 0|1

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/common.h"

#ifndef CTSDD_PERFBENCH_BUILD_TYPE
#define CTSDD_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ctsdd::perfbench {
namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n' || ch == '\t') ? ' ' : ch;
  }
  return out;
}

void Print(const Report& r) {
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"metrics\": [",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s{\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", \"samples\": %llu}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("], \"exact_counts\": {");
  for (size_t i = 0; i < r.exact_counts.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", r.exact_counts[i].first.c_str(),
                static_cast<unsigned long long>(r.exact_counts[i].second));
  }
  std::printf("}, \"errors\": [");
  for (size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", Escape(r.errors[i]).c_str());
  }
  std::printf("], \"provenance\": {\"nproc\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"asserts\": %s, \"options\": {",
              std::thread::hardware_concurrency(), Escape(__VERSION__).c_str(),
              CTSDD_PERFBENCH_BUILD_TYPE, asserts ? "true" : "false");
  for (size_t i = 0; i < r.options.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", r.options[i].first.c_str(),
                static_cast<unsigned long long>(r.options[i].second));
  }
  std::printf("}}}\n");
}

}  // namespace
}  // namespace ctsdd::perfbench

int main(int argc, char** argv) {
  using namespace ctsdd::perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Report report;
  if (args.workload == "db_churn") {
    report = RunDbChurn(args);
  } else if (args.workload == "cold_compile") {
    report = RunColdCompile(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Print(report);
  return 0;
}

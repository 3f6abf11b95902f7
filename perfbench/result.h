// What one workload run reports back to the driver.

#ifndef PERFBENCH_RESULT_H_
#define PERFBENCH_RESULT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "loadgen.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string world;  // the workload's fixed, cached inputs
  std::string dir;    // the run's own inputs, sockets and trace.json
};

struct Result {
  std::vector<std::string> check_failures;
  Tally tally;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // The traced run's own end-to-end numbers, next to an untraced pass
  // made in the same process: their ratio is the tracing overhead.
  std::vector<Metric> traced_e2e;
  std::vector<Metric> untraced_e2e;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  bool correct() const { return check_failures.empty(); }
};

// Peak resident set of this process in MB (getrusage ru_maxrss).
double PeakRssMb();

Result RunTrainMid(const RunArgs& args);
Result RunServeIvf(const RunArgs& args);
Result RunServeRouted(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_H_

// perfbench_driver — one process per step, driven by run.py:
//
//   perfbench_driver prepare <workload> --seed N --seconds S --world W --dir D
//   perfbench_driver run <workload> --seed N --seconds S --trace 0|1
//       --world W --dir D
//
// `run` prints human-readable reports and, as its last stdout line, one
// JSON object: workload, host block, checks, outcome tally, metrics (and
// in a traced run the traced/untraced end-to-end pairs). A traced run
// also writes D/trace.json (chrome://tracing). Exit code 0 means every
// output check passed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "host.h"
#include "result.h"
#include "spans.h"
#include "util/json.h"
#include "world.h"

namespace perfbench {

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string MetricsJson(const std::vector<Metric>& metrics) {
  dgnn::util::JsonObject o;
  for (const Metric& m : metrics) {
    dgnn::util::JsonObject v;
    v.Set("value", m.value).Set("unit", m.unit);
    o.SetRaw(m.name, v.Build());
  }
  return o.Build();
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver prepare|run "
               "train_mid|serve_ivf|serve_routed --seed N --seconds S "
               "[--trace 0|1] --world W --dir D\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 3) return Usage();
  const std::string mode = argv[1];
  RunArgs args;
  args.workload = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--world") {
      args.world = value;
    } else if (flag == "--dir") {
      args.dir = value;
    } else {
      return Usage();
    }
  }
  if (args.dir.empty() || args.world.empty() || args.seconds <= 0.0 ||
      (args.workload != "train_mid" && args.workload != "serve_ivf" &&
       args.workload != "serve_routed")) {
    return Usage();
  }

  if (mode == "prepare") {
    return Prepare(args.workload, args.seed, args.seconds, args.world,
                   args.dir)
               ? 0
               : 1;
  }
  if (mode != "run") return Usage();

  Result result;
  if (args.workload == "train_mid") {
    result = RunTrainMid(args);
  } else if (args.workload == "serve_ivf") {
    result = RunServeIvf(args);
  } else {
    result = RunServeRouted(args);
  }
  if (args.trace) {
    spans::WriteChromeTrace(args.dir + "/trace.json");
  }

  dgnn::util::JsonObject out;
  std::string failures = "[";
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    if (i > 0) failures += ",";
    failures += "\"" + dgnn::util::JsonEscape(result.check_failures[i]) + "\"";
  }
  failures += "]";
  out.Set("workload", args.workload)
      .Set("seed", static_cast<int64_t>(args.seed))
      .Set("trace", args.trace)
      .SetRaw("host", HostJson())
      .Set("correct", result.correct())
      .SetRaw("check_failures", failures)
      .SetRaw("tally", result.tally.Json())
      .SetRaw("metrics", MetricsJson(result.metrics));
  if (args.trace) {
    out.SetRaw("traced_e2e", MetricsJson(result.traced_e2e))
        .SetRaw("untraced_e2e", MetricsJson(result.untraced_e2e));
  }
  std::fflush(stderr);
  std::printf("%s\n", out.Build().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

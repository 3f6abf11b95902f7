#include "host.h"

#include <fstream>
#include <thread>

#include "kernels/kernels.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

std::string HostJson() {
  dgnn::util::JsonObject o;
  o.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("isa", dgnn::kernels::IsaName(dgnn::kernels::ActiveIsa()))
      .Set("deterministic", dgnn::kernels::Deterministic())
      .Set("threads", static_cast<int64_t>(dgnn::util::NumThreads()))
      .Set("compiler", PERFBENCH_CXX_COMPILER)
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("cpu", CpuModel());
  return o.Build();
}

}  // namespace perfbench

// The `host` block every result carries: where and how it was measured.

#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

// {"nproc":..,"isa":..,"deterministic":..,"threads":..,"compiler":..,
//  "build_type":..,"cpu":..}; run.py adds the source revision.
std::string HostJson();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_

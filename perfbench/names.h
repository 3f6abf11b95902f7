// Short names for the library namespaces the benchmark calls into.

#ifndef PERFBENCH_NAMES_H_
#define PERFBENCH_NAMES_H_

namespace dgnn::ag {}
namespace dgnn::core {}
namespace dgnn::data {}
namespace dgnn::graph {}
namespace dgnn::models {}
namespace dgnn::quant {}
namespace dgnn::serve {}
namespace dgnn::shard {}
namespace dgnn::train {}
namespace dgnn::util {}

namespace perfbench {
namespace ag = dgnn::ag;
namespace core = dgnn::core;
namespace data = dgnn::data;
namespace graph = dgnn::graph;
namespace models = dgnn::models;
namespace quant = dgnn::quant;
namespace serve = dgnn::serve;
namespace shard = dgnn::shard;
namespace train = dgnn::train;
namespace util = dgnn::util;
}  // namespace perfbench

#endif  // PERFBENCH_NAMES_H_

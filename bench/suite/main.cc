// sfdf_suite: runs one benchmark workload and prints its metrics.
//
//   sfdf_suite --workload W [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--out-dir DIR]
//
// Prints every metric as `name value unit`, then one JSON object
// {"correct", "attempted", "failed", "metrics"} as the last line. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (bench/suite/README.md). Exits 1 when any operation
// failed or disagreed with its oracle. bench/suite/run.py is the usual
// way in: it builds this binary and pins the thread budget.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "suite.h"

namespace {

using namespace sfdf::suite;

int Usage(const char* message) {
  std::fprintf(stderr,
               "sfdf_suite: %s\nusage: sfdf_suite --workload "
               "pagerank-wiki|cc-webbase|cc-webbase-async|gateway-cc "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--out-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A gateway-cc server process that died must surface as a failed write
  // to its command pipe, not kill this process.
  std::signal(SIGPIPE, SIG_IGN);
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      config.out_dir = argv[++i];
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (config.seed == 0) return Usage("--seed must be a positive integer");
  if (!(config.seconds > 0 && config.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  Report report;
  if (config.workload == "pagerank-wiki") {
    RunPageRankWiki(config, &report);
  } else if (config.workload == "cc-webbase") {
    RunCcWebbase(config, &report, /*async=*/false);
  } else if (config.workload == "cc-webbase-async") {
    RunCcWebbase(config, &report, /*async=*/true);
  } else if (config.workload == "gateway-cc") {
    RunGatewayCc(config, &report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  report.Print();
  return report.ops.failed.load() == 0 && report.ops.attempted.load() > 0 ? 0
                                                                           : 1;
}

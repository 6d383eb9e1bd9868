// InstantDB repository benchmark: one workload per process.
//
//   perfbench_instantdb --workload <ingest|hot_query|cold_scan|expiry_mix>
//       --seed <n> --seconds <s> --trace <0|1> [--dir <scratch>] [--out <dir>]
//
// Prints one line per metric and, as the last line of stdout, the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when --trace 0, the per-layer metrics when --trace 1. Exits 1 when
// a correctness check fails and 2 on a usage error. See README.md.

#include <cstdio>
#include <map>

#include "trace.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  const std::string error = ParseArgs(argc, argv, &args);
  const std::map<std::string, void (*)(const Args&, Report*)> workloads = {
      {"ingest", RunIngest},
      {"hot_query", RunHotQuery},
      {"cold_scan", RunColdScan},
      {"expiry_mix", RunExpiryMix},
  };
  const auto workload = workloads.find(args.workload);
  if (!error.empty() || workload == workloads.end()) {
    std::fprintf(stderr, "%s\nusage: %s --workload <%s> --seed N --seconds S "
                 "--trace 0|1 [--dir DIR] [--out DIR]\n",
                 error.empty() ? ("unknown workload: " + args.workload).c_str()
                               : error.c_str(),
                 argv[0], "ingest|hot_query|cold_scan|expiry_mix");
    return 2;
  }
  // Spans for every request of a traced run fit in this per-thread buffer;
  // the dropped-span count in the self-time table says if they did not.
  if (args.trace) Tracer::Get().Arm(1 << 18);
  std::printf("workload %s seed %llu seconds %d trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report report;
  workload->second(args, &report);
  FinishTrace(args, &report);
  return report.Finish(args.trace);
}

// perfbench: the repository benchmark.
//
//   perfbench --workload explore_gz|serve|tpch --seed N --seconds S
//             --trace 0|1 --data-dir DIR [--trace-out FILE]
//   perfbench --self-test
//
// Generates the workload's inputs from the seed into DIR, checks every
// answer against a loaded-table reference engine, and prints the metrics
// by name and unit, ending with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans to --trace-out). Exit codes: 0 all answers right,
// 1 a query failed or answered wrong, 2 bad usage or set-up failure, 3 hang.
// perfbench/run.py builds this binary and runs it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"
#include "io/inflate_file.h"
#include "raw/parse_kernels.h"

namespace perfbench {
namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model = model.c_str();  // drop trailing NULs
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

void PrintFingerprint(const Args& args) {
  std::string cpu = CpuModel();
  for (char& c : cpu) {
    if (c == '"' || c == '\\') c = ' ';
  }
  printf("fingerprint: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
         "\"trace\": %d, \"nproc\": %u, \"cpu\": \"%s\", \"build\": \"%s\", "
         "\"kernels\": \"%s\", \"zlib\": %s}\n",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
         cpu.c_str(), PERFBENCH_BUILD_TYPE, nodb::ActiveKernels().name,
         nodb::InflateSupported() ? "true" : "false");
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload explore_gz|serve|tpch "
          "--seed N --seconds S --trace 0|1 --data-dir DIR "
          "[--trace-out FILE]\n       perfbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const int failures = SelfTest();
      printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || args.seconds < 1 || args.data_dir.empty()) return Usage();
  if (SelfTest() != 0) return 2;

  Context ctx;
  ctx.args = args;
  PrintFingerprint(args);
  // A query may take kQueryDeadline before its deadline kills it; a hang is
  // one that outlives that by half again. The whole run must end well
  // within the 180 s a run is allowed.
  const double query_limit_s =
      1.5 * std::chrono::duration<double>(kQueryDeadline).count();
  Watchdog watchdog(args.workload, args.seed, query_limit_s, 170);
  ctx.watchdog = &watchdog;

  int rc;
  if (args.workload == "explore_gz") {
    rc = RunExploreGz(&ctx);
  } else if (args.workload == "serve") {
    rc = RunServe(&ctx);
  } else if (args.workload == "tpch") {
    rc = RunTpch(&ctx);
  } else {
    return Usage();
  }
  if (rc != 0) return rc;

  if (args.trace) {
    // Layers a workload does not exercise read 0.
    for (const MetricDef& def : kPerLayer) {
      if (!ctx.report.Has(def.name)) ctx.report.Add(def.name, 0);
    }
    if (!args.trace_path.empty()) {
      if (ctx.tracer.Write(args.trace_path)) {
        ctx.report.Note("spans written to " + args.trace_path);
      } else {
        fprintf(stderr, "perfbench: cannot write %s\n", args.trace_path.c_str());
      }
    }
  }
  ctx.report.Print(ctx.correct.load(), ctx.tally);
  return ctx.correct.load() ? 0 : 1;
}

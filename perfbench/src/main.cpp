// ppgr_perfbench: the repository benchmark program.
//
//   ppgr_perfbench --workload he-n16|engine-mix --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]
//
// Runs one workload for about S seconds on inputs generated from the seed,
// checks every session's ranks against core::reference_ranks, prints every
// metric with its unit, and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the sessions
// of the first half of the window with spans, op counters, CommRegistry and
// (on he-n16) the TimedGroup decorator on, reports the per-layer metrics, and
// writes the benchmark-side spans to --trace-out. Exit status: 0 when every
// output is correct, 1 on any mismatch, 2 on a usage error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload he-n16|engine-mix "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0, why.c_str(), argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(argv[0], "missing value for " + flag);
      const std::string value = argv[i + 1];
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") opt.trace_out = value;
      else return usage(argv[0], "unknown flag " + flag);
    }
  } catch (const std::exception&) {
    return usage(argv[0], "bad numeric argument");
  }
  if (!perfbench::is_workload(opt.workload))
    return usage(argv[0], "unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) return usage(argv[0], "--seconds must be > 0");

  const perfbench::RunResult run = perfbench::run_workload(opt);
  const perfbench::Verdict verdict = perfbench::check(run);
  const std::vector<perfbench::Metric> metrics =
      opt.trace ? perfbench::per_layer_metrics(run)
                : perfbench::end_to_end_metrics(run, verdict);
  if (opt.trace && !opt.trace_out.empty()) {
    perfbench::write_spans(opt.trace_out, run);
    std::printf("spans: %s\n", opt.trace_out.c_str());
  }

  for (const auto& p : verdict.problems) std::printf("! %s\n", p.c_str());
  std::printf("%s: seed %llu, %zu sessions%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), run.untraced.size(),
              opt.trace ? " untraced + the same traced" : "");
  for (const auto& m : metrics)
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", perfbench::result_json(verdict, metrics).c_str());
  std::fflush(stdout);
  return verdict.correct ? 0 : 1;
}

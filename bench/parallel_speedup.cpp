// Speedup curve of the deterministic parallel execution engine: real
// end-to-end run_framework executions (no cost model) at fixed n, sweeping
// cfg.parallelism, verifying that every thread count produces bit-identical
// ranks/β/trace, and emitting BENCH_parallel.json.
//
// The phase-2 work — n·(n-1) comparison-circuit evaluations and the
// decrypt-shuffle chain — is embarrassingly parallel, so on a machine with
// C cores the expected speedup at parallelism p is ~min(p, C) (Amdahl-
// limited by the serial trace/merge epilogues, which are O(n) bookkeeping).
//
// The per-phase group_* counts in the report are executed Group interface
// calls (benchcore::model_he_ops states them in closed form).
//
// Usage: parallel_speedup [--n N] [--threads "1,2,4"] [--out FILE]
#include <cstdio>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"

namespace {

using namespace ppgr;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  std::size_t parallelism;
  double wall_seconds;
  core::FrameworkResult result;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 16;
  std::string threads_arg = "1,2,4";
  std::string out_path = "BENCH_parallel.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--n") == 0) n = std::stoul(argv[i + 1]);
    else if (std::strcmp(argv[i], "--threads") == 0) threads_arg = argv[i + 1];
    else if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }
  std::vector<std::size_t> thread_counts;
  for (std::size_t pos = 0; pos < threads_arg.size();) {
    const std::size_t comma = threads_arg.find(',', pos);
    thread_counts.push_back(
        std::stoul(threads_arg.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  // Small-but-real parameters: l stays ~35 bits so a full n=16 run (and its
  // O(n²·l) phase 2) finishes in seconds per engine setting.
  const auto g = group::make_group(group::GroupId::kDlTest256);
  core::FrameworkConfig cfg;
  cfg.spec = core::ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};
  cfg.n = n;
  cfg.k = 3;
  cfg.group = g.get();
  cfg.dot_field = &core::default_dot_field();
  // Per-phase breakdowns for the JSON report; also lets the bit-identity
  // check below cover the deterministic metrics/span exports.
  cfg.metrics = true;

  const auto instance_rng = [&] { return mpz::ChaChaRng{4242}; };
  core::AttrVec v0(cfg.spec.m), w(cfg.spec.m);
  std::vector<core::AttrVec> infos;
  {
    auto rng = instance_rng();
    for (auto& x : v0) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
    for (auto& x : w) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d2);
    for (std::size_t j = 0; j < n; ++j) {
      core::AttrVec v(cfg.spec.m);
      for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
      infos.push_back(std::move(v));
    }
  }

  std::printf("parallel_speedup: end-to-end run_framework, group=%s, n=%zu, "
              "l=%zu bits, hardware_concurrency=%u\n\n",
              g->name().c_str(), n, cfg.spec.beta_bits(),
              std::thread::hardware_concurrency());

  std::printf("%12s %14s %10s %12s\n", "parallelism", "wall[s]", "speedup",
              "identical");

  std::vector<RunResult> runs;
  for (const std::size_t p : thread_counts) {
    cfg.parallelism = p;
    // Fresh protocol rng per run: determinism must come from the seed, not
    // from shared state.
    mpz::ChaChaRng rng{777};
    const double t0 = now_s();
    auto result = core::run_framework(cfg, v0, w, infos, rng);
    const double wall = now_s() - t0;
    runs.push_back(RunResult{p, wall, std::move(result)});

    const auto& base = runs.front().result;
    const auto& cur = runs.back().result;
    const bool identical =
        base.ranks == cur.ranks && base.submitted_ids == cur.submitted_ids &&
        base.trace.total_bytes() == cur.trace.total_bytes() &&
        base.metrics->to_json(/*include_timing=*/false) ==
            cur.metrics->to_json(/*include_timing=*/false) &&
        base.spans->chrome_trace_json(/*deterministic=*/true) ==
            cur.spans->chrome_trace_json(/*deterministic=*/true) &&
        base.comm->to_json() == cur.comm->to_json() &&
        base.comm->chrome_trace_json() == cur.comm->chrome_trace_json();
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: parallelism=%zu output differs from serial\n", p);
      return 1;
    }
    std::printf("%12zu %14.3f %9.2fx %12s\n", p, wall,
                runs.front().wall_seconds / wall, "yes");
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"parallel_speedup\",\n"
               "  \"group\": \"%s\",\n"
               "  \"n\": %zu,\n"
               "  \"k\": %zu,\n"
               "  \"beta_bits\": %zu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"runs\": [\n",
               g->name().c_str(), n, cfg.k, cfg.spec.beta_bits(),
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::fprintf(out,
                 "    {\"parallelism\": %zu, \"wall_seconds\": %.6f, "
                 "\"speedup_vs_serial\": %.4f, \"outputs_identical\": true,\n"
                 "     \"phases\": [\n",
                 runs[i].parallelism, runs[i].wall_seconds,
                 runs.front().wall_seconds / runs[i].wall_seconds);
    // Per-phase breakdown: wall seconds from the depth-1 phase spans, op
    // counters from the metrics registry (counters are identical across
    // runs by the bit-identity check above; wall time is not).
    const auto walls = runs[i].result.spans->phase_wall_seconds();
    for (std::size_t p = 0; p < runtime::kPhaseCount; ++p) {
      const auto ops = runs[i].result.metrics->phase_totals(
          static_cast<runtime::Phase>(p));
      const auto c = [&ops](runtime::CryptoOp op) {
        return static_cast<unsigned long long>(ops[op]);
      };
      std::fprintf(
          out,
          "      {\"phase\": \"%s\", \"wall_seconds\": %.6f, "
          "\"group_exps\": %llu, \"group_exp_g\": %llu, "
          "\"group_dual_exps\": %llu, "
          "\"group_muls\": %llu, \"compare_circuits\": %llu, "
          "\"shuffle_hops\": %llu, \"accel_fixed_base_exps\": %llu}%s\n",
          runtime::phase_name(static_cast<runtime::Phase>(p)), walls[p],
          c(runtime::CryptoOp::kGroupExp), c(runtime::CryptoOp::kGroupExpG),
          c(runtime::CryptoOp::kGroupDualExp), c(runtime::CryptoOp::kGroupMul),
          c(runtime::CryptoOp::kCompareCircuit),
          c(runtime::CryptoOp::kShuffleHop),
          c(runtime::CryptoOp::kAccelFixedBaseExp),
          p + 1 < runtime::kPhaseCount ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");

  // Measured communication of the run (identical at every parallelism, per
  // the bit-identity check): per-phase totals plus the per-link breakdown
  // from the serial run's CommRegistry. Virtual seconds come from the
  // deterministic network simulation, so they are exact, not sampled.
  {
    const runtime::CommRegistry& comm = *runs.front().result.comm;
    const auto links = comm.links();
    std::fprintf(out,
                 "  \"comm\": {\n"
                 "    \"messages\": %zu,\n"
                 "    \"bytes\": %llu,\n"
                 "    \"rounds\": %zu,\n"
                 "    \"virtual_seconds\": %.9f,\n"
                 "    \"links\": [\n",
                 comm.message_count(),
                 static_cast<unsigned long long>(comm.total_bytes()),
                 comm.rounds(), comm.virtual_seconds());
    for (std::size_t i = 0; i < links.size(); ++i) {
      const auto& lk = links[i];
      std::fprintf(out,
                   "      {\"phase\": \"%s\", \"src\": %zu, \"dst\": %zu, "
                   "\"messages\": %llu, \"bytes\": %llu, "
                   "\"tx_seconds\": %.9f}%s\n",
                   runtime::phase_name(lk.phase), lk.src, lk.dst,
                   static_cast<unsigned long long>(lk.messages),
                   static_cast<unsigned long long>(lk.bytes), lk.tx_s,
                   i + 1 < links.size() ? "," : "");
    }
    std::fprintf(out, "    ]\n  }\n");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

// ppgr_server — serve a batch of ranking requests through the multi-session
// engine (src/engine/): FIFO admission, a shared thread pool and the shared
// crypto precompute cache, with a deterministic rolled-up JSON export.
//
// Usage:
//   ppgr_server <request-file> [--seed N] [--max-in-flight N]
//               [--parallelism N] [--rollup-out FILE]
//   ppgr_server --demo [...]
//
// Request format (one directive per line, '#' comments; `session` opens a
// new request and the other directives fill the current one):
//
//   session <id>
//   framework <he|ss>               # default he
//   group <dl-1024|...|dl-test-256> # default dl-test-256
//   spec <m> <t> <d1> <d2> <h>
//   k <top-k>
//   threshold <t>                   # ss only: collusion threshold
//   criterion <v1> ... <vm>
//   weights   <w1> ... <wm>
//   participant <v1> ... <vm>       # one line per participant
//
// Example (two sessions sharing the engine):
//   session 1
//   spec 4 2 8 4 8
//   k 2
//   criterion 35 120 0 0
//   weights 10 5 2 1
//   participant 34 118 90 55
//   participant 52 160 20 90
//   participant 35 121 40 40
//   session 2
//   spec 4 2 8 4 8
//   k 1
//   criterion 0 0 0 0
//   weights 1 1 1 1
//   participant 10 20 30 40
//   participant 40 30 20 10
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "directive_file.h"
#include "engine/engine.h"
#include "engine/introspect.h"
#include "engine/session_log.h"

namespace {

using namespace ppgr;

/// parse_file never aborts on a malformed entry: the offending request is
/// dropped (every bad line reported in `errors`) and the rest of the batch
/// still runs — the exit-code contract in --help turns a nonempty `errors`
/// into exit 3.
struct ParseOutcome {
  std::vector<engine::RankingRequest> reqs;
  std::vector<std::string> errors;
};

ParseOutcome parse_file(const std::string& path) {
  ParseOutcome out;
  std::vector<char> bad;  // parallel to out.reqs
  const auto handle = [&](const std::string& directive,
                          std::istringstream& line) {
    if (directive == "session") {
      engine::RankingRequest req;
      const bool ok = static_cast<bool>(line >> req.session_id);
      out.reqs.push_back(std::move(req));
      bad.push_back(ok ? 0 : 1);
      if (!ok) throw std::invalid_argument("session needs an id");
      return;
    }
    if (out.reqs.empty())
      throw std::invalid_argument("'" + directive +
                                  "' before the first 'session' line");
    engine::RankingRequest& req = out.reqs.back();
    if (directive == "framework") {
      std::string name;
      line >> name;
      if (name == "he") req.framework = engine::FrameworkKind::kHe;
      else if (name == "ss") req.framework = engine::FrameworkKind::kSs;
      else throw std::invalid_argument("framework must be 'he' or 'ss'");
    } else if (directive == "group") {
      std::string name;
      line >> name;
      req.group = group::parse_group_id(name);
    } else if (directive == "spec") {
      req.spec = cli::parse_spec(line);
    } else if (directive == "k") {
      req.k = cli::parse_count(line, directive);
    } else if (directive == "threshold") {
      req.ss_threshold = cli::parse_count(line, directive);
    } else if (directive == "criterion") {
      req.v0 = cli::parse_values(line);
    } else if (directive == "weights") {
      req.w = cli::parse_values(line);
    } else if (directive == "participant") {
      req.infos.push_back(cli::parse_values(line));
    } else if (directive == "fault-plan") {
      std::string spec;
      std::getline(line, spec);
      const auto start = spec.find_first_not_of(" \t");
      if (start == std::string::npos)
        throw std::invalid_argument("fault-plan needs a spec string");
      req.fault_plan = net::parse_fault_plan(spec.substr(start));
    } else if (directive == "degrade-on-dropout") {
      req.degrade_on_dropout = true;
    } else {
      cli::unknown_directive(directive);
    }
  };
  cli::read_directives(path, handle, [&](const std::string& message) {
    out.errors.push_back(message);
    if (!bad.empty()) bad.back() = 1;
  });
  if (out.reqs.empty() && out.errors.empty())
    throw std::runtime_error(path + ": no 'session' lines");
  std::vector<engine::RankingRequest> good;
  good.reserve(out.reqs.size());
  for (std::size_t i = 0; i < out.reqs.size(); ++i) {
    if (bad[i] != 0) {
      out.errors.push_back(path + ": session " +
                           std::to_string(out.reqs[i].session_id) +
                           " dropped (malformed entry, see above)");
      continue;
    }
    good.push_back(std::move(out.reqs[i]));
  }
  out.reqs = std::move(good);
  return out;
}

// A built-in batch (3 HE + 1 SS session) so the engine can be exercised
// without writing a request file: ppgr_server --demo
std::vector<engine::RankingRequest> demo_batch() {
  std::vector<engine::RankingRequest> reqs;
  for (std::uint64_t sid = 1; sid <= 4; ++sid) {
    engine::RankingRequest req;
    req.session_id = sid;
    req.spec = core::ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};
    req.k = 2;
    if (sid == 4) req.framework = engine::FrameworkKind::kSs;
    mpz::ChaChaRng rng{1000 + sid};
    const std::size_t n = sid == 4 ? 5 : 4;
    req.v0.resize(req.spec.m);
    req.w.resize(req.spec.m);
    for (auto& x : req.v0) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
    for (auto& x : req.w) x = rng.below_u64(std::uint64_t{1} << req.spec.d2);
    for (std::size_t j = 0; j < n; ++j) {
      core::AttrVec v(req.spec.m);
      for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
      req.infos.push_back(std::move(v));
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

// Derives the per-session variant of an export path: the session id is
// inserted before the extension ("out/m.json" -> "out/m.7.json"; no
// extension: appended).
std::string per_session_path(const std::string& path, std::uint64_t sid) {
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + "." + std::to_string(sid);
  return path.substr(0, dot) + "." + std::to_string(sid) + path.substr(dot);
}

void print_usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s <request-file> [--seed N] [--max-in-flight N]\n"
      "       [--parallelism N] [--rollup-out FILE] [per-session exports]\n"
      "       [live telemetry]\n"
      "       %s --demo [same options]\n"
      "\n"
      "  --seed N          engine seed; every session's randomness derives\n"
      "                    from (seed, session id), so a fixed request file\n"
      "                    gives bit-identical results at any setting below\n"
      "  --max-in-flight N admission cap / driver threads (default 4)\n"
      "  --parallelism N   shared thread-pool concurrency; 0 = all hardware\n"
      "                    threads (default 1)\n"
      "  --rollup-out FILE write the deterministic rolled-up JSON export\n"
      "                    (schema ppgr.engine.v1)\n"
      "  --demo            run a built-in 4-session batch instead of a file\n"
      "  --help            show this message\n"
      "\n"
      "Per-session exports (FILE gains the session id before its extension,\n"
      "m.json -> m.7.json; every path is opened up front and an unwritable\n"
      "one exits 2 before any session runs):\n"
      "  --metrics-out FILE   per-phase crypto-op counters with timing\n"
      "                       (schema ppgr.metrics.v1)\n"
      "  --trace-out FILE     per-session Chrome trace-event JSON\n"
      "  --comm-out FILE      measured communication (schema ppgr.comm.v1)\n"
      "  --stitched-trace-out FILE\n"
      "                       ONE engine-wide Chrome trace: every session's\n"
      "                       spans on a shared wall-clock timeline\n"
      "                       (pid = session, tid = party)\n"
      "\n"
      "Forensics & conformance (observation-only; with all of these off\n"
      "every deterministic export is byte-identical to a build without\n"
      "them):\n"
      "  --audit               attach a live conformance auditor to every\n"
      "                        session: running counters are checked against\n"
      "                        the closed-form model at each phase boundary;\n"
      "                        confirmed drift is reported, lands in the\n"
      "                        rollup and degrades engine health\n"
      "  --session-log-out FILE\n"
      "                        wide-event session log: ONE ppgr.session.v1\n"
      "                        JSON line per completed session\n"
      "  --postmortem-dir DIR  on a session fault, write a self-contained\n"
      "                        ppgr.postmortem.v1 bundle (wide event +\n"
      "                        fault report + audit report + last\n"
      "                        telemetry snapshot) atomically to\n"
      "                        DIR/session-<id>.postmortem.json\n"
      "\n"
      "Live telemetry (wall-clock observations; never affects the\n"
      "deterministic exports above):\n"
      "  --telemetry-out FILE   background sampler JSONL stream, one\n"
      "                         ppgr.telemetry.v1 object per line\n"
      "  --openmetrics-out FILE OpenMetrics exposition file, atomically\n"
      "                         replaced every period (Prometheus scrape)\n"
      "  --telemetry-period S   sampler period in seconds (default 0.1)\n"
      "  --stall-deadline S     watchdog: a session is stalled when its\n"
      "                         phase/round has not advanced for S seconds\n"
      "                         (default 5.0)\n"
      "\n"
      "Per-session request directives also include:\n"
      "  fault-plan <spec>    deterministic fault injection for this session\n"
      "                       (e.g. seed=7,drop=0.05; see net/fault.h)\n"
      "  degrade-on-dropout   rank the survivors when a participant is lost\n"
      "                       in phase 1 instead of aborting the session\n"
      "\n"
      "Exit codes:\n"
      "  0  every request parsed, was admitted and completed with ranks\n"
      "  1  fatal error (unreadable request file, I/O failure, engine abort)\n"
      "  2  usage error (bad command line, unwritable output path)\n"
      "  3  batch degraded: at least one request was malformed (dropped at\n"
      "     parse), rejected at submit, or ended in a typed protocol fault —\n"
      "     every such request is reported on stderr, the rest still ran\n"
      "  4  conformance drift: every session completed (no faults, nothing\n"
      "     malformed) but --audit confirmed at least one divergence from\n"
      "     the model — the numbers are suspect even though ranks delivered\n",
      prog, prog);
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path;
  bool demo = false;
  engine::EngineConfig cfg;
  cfg.seed = 1;
  std::string rollup_path;
  std::string metrics_path;
  std::string trace_path;
  std::string comm_path;
  std::string stitched_path;
  std::string telemetry_path;
  std::string openmetrics_path;
  std::string session_log_path;
  std::string postmortem_dir;
  double telemetry_period = 0.1;
  double stall_deadline = 5.0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg{argv[i]};
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument(arg + " needs an argument");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        print_usage(argv[0], stdout);
        return 0;
      } else if (arg == "--demo") {
        demo = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--max-in-flight") {
        cfg.max_in_flight = std::stoul(value());
      } else if (arg == "--parallelism") {
        cfg.parallelism = std::stoul(value());
      } else if (arg == "--rollup-out") {
        rollup_path = value();
      } else if (arg == "--metrics-out") {
        metrics_path = value();
      } else if (arg == "--trace-out") {
        trace_path = value();
      } else if (arg == "--comm-out") {
        comm_path = value();
      } else if (arg == "--stitched-trace-out") {
        stitched_path = value();
      } else if (arg == "--telemetry-out") {
        telemetry_path = value();
      } else if (arg == "--openmetrics-out") {
        openmetrics_path = value();
      } else if (arg == "--audit") {
        cfg.audit = true;
      } else if (arg == "--session-log-out") {
        session_log_path = value();
      } else if (arg == "--postmortem-dir") {
        postmortem_dir = value();
      } else if (arg == "--telemetry-period") {
        telemetry_period = std::stod(value());
        if (telemetry_period <= 0.0)
          throw std::invalid_argument("--telemetry-period must be > 0");
      } else if (arg == "--stall-deadline") {
        stall_deadline = std::stod(value());
      } else if (input_path.empty() && arg[0] != '-') {
        input_path = arg;
      } else {
        throw std::invalid_argument("unknown option '" + arg + "'");
      }
    }
    if (demo == !input_path.empty())
      throw std::invalid_argument("need a request file or --demo (not both)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(argv[0], stderr);
    return 2;
  }

  try {
    ParseOutcome parsed;
    if (demo)
      parsed.reqs = demo_batch();
    else
      parsed = parse_file(input_path);
    for (const std::string& err : parsed.errors)
      std::fprintf(stderr, "request error: %s\n", err.c_str());

    // Per-session export files: derive every path up front and open with
    // the bench fail-fast contract (exit 2) — a typo'd directory must not
    // cost the batch. Keyed by session id; written as results come back.
    std::map<std::uint64_t, std::ofstream> metrics_outs;
    std::map<std::uint64_t, std::ofstream> trace_outs;
    std::map<std::uint64_t, std::ofstream> comm_outs;
    for (const auto& req : parsed.reqs) {
      const std::uint64_t sid = req.session_id;
      if (!metrics_path.empty())
        metrics_outs.emplace(
            sid, bench::open_bench_out(per_session_path(metrics_path, sid)));
      if (!trace_path.empty())
        trace_outs.emplace(
            sid, bench::open_bench_out(per_session_path(trace_path, sid)));
      if (!comm_path.empty())
        comm_outs.emplace(
            sid, bench::open_bench_out(per_session_path(comm_path, sid)));
    }
    std::optional<std::ofstream> stitched_out;
    if (!stitched_path.empty())
      stitched_out = bench::open_bench_out(stitched_path);
    std::optional<std::ofstream> session_log_out;
    if (!session_log_path.empty())
      session_log_out = bench::open_bench_out(session_log_path);
    if (!postmortem_dir.empty()) {
      // Probe the directory with the same fail-fast contract: a bundle that
      // cannot land when a session faults is an operator trap.
      const std::string probe = postmortem_dir + "/.postmortem.probe";
      bench::open_bench_out(probe);
      std::remove(probe.c_str());
    }

    // Any telemetry output also turns on the rollup's latency/health
    // sections (EngineConfig::telemetry).
    cfg.telemetry = !telemetry_path.empty() || !openmetrics_path.empty();

    std::size_t rejected = 0;
    std::size_t faulted = 0;
    engine::SessionEngine eng{cfg};

    std::unique_ptr<engine::EngineSampler> sampler;
    if (!telemetry_path.empty() || !openmetrics_path.empty()) {
      engine::EngineSampler::Config scfg;
      scfg.period_s = telemetry_period;
      scfg.stall_deadline_s = stall_deadline;
      scfg.jsonl_path = telemetry_path;
      scfg.openmetrics_path = openmetrics_path;
      sampler = std::make_unique<engine::EngineSampler>(eng, scfg);
      sampler->start();
    }

    std::printf("ppgr_server: %zu session(s), max_in_flight=%zu, "
                "parallelism=%zu, seed=%llu\n\n",
                parsed.reqs.size(), cfg.max_in_flight, cfg.parallelism,
                static_cast<unsigned long long>(cfg.seed));
    // Submit everything up front (open loop), then collect in order;
    // invalid requests are reported and skipped, valid ones still run.
    std::vector<std::uint64_t> ids;
    for (auto& req : parsed.reqs) {
      const std::uint64_t sid = req.session_id;
      try {
        ids.push_back(eng.submit(std::move(req)));
      } catch (const engine::EngineError& e) {
        ++rejected;
        std::fprintf(stderr, "session %llu rejected (%s): %s\n",
                     static_cast<unsigned long long>(sid),
                     engine::to_string(e.code()), e.what());
      }
    }
    std::size_t drifted = 0;
    std::size_t log_failures = 0;
    std::vector<engine::SessionResult> results;
    results.reserve(ids.size());
    for (const std::uint64_t sid : ids) {
      results.push_back(eng.take(sid));
      const engine::SessionResult& res = results.back();
      if (session_log_out)
        *session_log_out << engine::session_wide_event_json(res) << '\n';
      if (res.audit != nullptr && !res.audit->clean()) {
        ++drifted;
        for (const engine::AuditFinding& f : res.audit->findings)
          std::fprintf(stderr, "audit drift: session %llu: %s\n",
                       static_cast<unsigned long long>(sid),
                       f.detail.c_str());
      }
      if (res.outcome == engine::SessionOutcome::kFault &&
          !postmortem_dir.empty()) {
        std::string err;
        const std::string path =
            engine::write_postmortem(
                postmortem_dir, res,
                engine::snapshot(eng, stall_deadline).to_jsonl(), &err);
        if (path.empty()) {
          ++log_failures;
          std::fprintf(stderr, "postmortem error: %s\n", err.c_str());
        } else {
          std::printf("postmortem bundle written to %s\n", path.c_str());
        }
      }
      // Per-session exports: a faulted session has no observability payload
      // (he/ss are empty), so its pre-opened files stay empty.
      if (auto it = metrics_outs.find(sid);
          it != metrics_outs.end() && res.metrics() != nullptr)
        it->second << res.metrics()->to_json(/*include_timing=*/true);
      if (auto it = trace_outs.find(sid);
          it != trace_outs.end() && res.spans() != nullptr)
        it->second << res.spans()->chrome_trace_json(/*deterministic=*/false);
      if (auto it = comm_outs.find(sid);
          it != comm_outs.end() && res.comm() != nullptr)
        it->second << res.comm()->to_json();
      if (res.outcome == engine::SessionOutcome::kFault) {
        ++faulted;
        std::printf("session %llu (%s): FAULT\n", (unsigned long long)sid,
                    engine::to_string(res.framework));
        std::fprintf(stderr, "session fault: %s\n", res.fault_what.c_str());
        continue;
      }
      std::printf("session %llu (%s): n=%zu", (unsigned long long)sid,
                  engine::to_string(res.framework), res.ranks().size());
      std::printf(", ranks [");
      for (std::size_t j = 0; j < res.ranks().size(); ++j)
        std::printf("%s%zu", j == 0 ? "" : " ", res.ranks()[j]);
      std::printf("], submitted [");
      const auto& sub = res.submitted_ids();
      for (std::size_t j = 0; j < sub.size(); ++j)
        std::printf("%s%zu", j == 0 ? "" : " ", sub[j]);
      std::printf("], %.3fs\n", res.wall_seconds);
    }
    // The sampler's stop() takes one final sample, so the drained state is
    // the last JSONL line and the exposition file's final content.
    if (sampler != nullptr) {
      sampler->stop();
      std::printf("telemetry: %llu sample(s)%s%s%s%s\n",
                  static_cast<unsigned long long>(sampler->samples()),
                  telemetry_path.empty() ? "" : ", JSONL ",
                  telemetry_path.c_str(),
                  openmetrics_path.empty() ? "" : ", OpenMetrics ",
                  openmetrics_path.c_str());
    }
    if (session_log_out)
      std::printf("session log written to %s\n", session_log_path.c_str());
    if (stitched_out) {
      std::vector<const engine::SessionResult*> ptrs;
      ptrs.reserve(results.size());
      for (const auto& r : results) ptrs.push_back(&r);
      *stitched_out << engine::stitched_trace_json(ptrs);
      std::printf("stitched engine trace written to %s (open in Perfetto)\n",
                  stitched_path.c_str());
    }

    const engine::PrecomputeStats stats = eng.precompute_stats();
    std::printf("\nprecompute cache: generator tables %llu hits, %llu "
                "misses\n",
                (unsigned long long)stats.generator_table.hits,
                (unsigned long long)stats.generator_table.misses);

    if (!rollup_path.empty()) {
      std::ofstream out{rollup_path};
      if (!out)
        throw std::runtime_error("cannot open '" + rollup_path +
                                 "' for writing");
      out << eng.rollup_json();
      if (!out)
        throw std::runtime_error("failed writing '" + rollup_path + "'");
      std::printf("rollup JSON written to %s\n", rollup_path.c_str());
    }
    if (log_failures != 0)
      throw std::runtime_error("failed writing " +
                               std::to_string(log_failures) +
                               " postmortem bundle(s)");
    if (!parsed.errors.empty() || rejected != 0 || faulted != 0) {
      std::fprintf(stderr,
                   "batch degraded: %zu malformed line(s), %zu rejected, "
                   "%zu faulted\n",
                   parsed.errors.size(), rejected, faulted);
      return 3;
    }
    if (drifted != 0) {
      std::fprintf(stderr, "conformance drift: %zu session(s) diverged "
                           "from the model (see audit findings above)\n",
                   drifted);
      return 4;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

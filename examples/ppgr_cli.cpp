// ppgr_cli — run the privacy preserving group ranking framework from a
// plain-text instance description.
//
// Usage:
//   ppgr_cli <instance-file> [--seed N] [--parallelism N]
//
// Instance format (one directive per line, '#' comments):
//
//   spec <m> <t> <d1> <d2> <h>
//   group <dl-1024|dl-2048|dl-3072|ecc-p192|ecc-p224|ecc-p256|dl-test-256>
//   k <top-k>
//   criterion <v1> ... <vm>
//   weights   <w1> ... <wm>
//   participant <v1> ... <vm>     # one line per participant
//
// Example:
//   spec 4 2 8 4 8
//   group ecc-p192
//   k 2
//   criterion 35 120 0 0
//   weights 10 5 2 1
//   participant 34 118 90 55
//   participant 52 160 20 90
//   participant 35 121 40 40
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "core/framework.h"
#include "directive_file.h"

namespace {

using namespace ppgr;

struct CliInstance {
  core::ProblemSpec spec;
  group::GroupId group_id = group::GroupId::kEcP192;
  std::size_t k = 1;
  core::AttrVec criterion;
  core::AttrVec weights;
  std::vector<core::AttrVec> participants;
};

CliInstance parse_file(const std::string& path) {
  CliInstance inst;
  bool have_spec = false;
  cli::read_directives(path, [&](const std::string& directive,
                                 std::istringstream& line) {
    if (directive == "spec") {
      inst.spec = cli::parse_spec(line);
      inst.spec.validate();
      have_spec = true;
    } else if (directive == "group") {
      std::string name;
      line >> name;
      inst.group_id = group::parse_group_id(name);
    } else if (directive == "k") {
      inst.k = cli::parse_count(line, directive);
    } else if (directive == "criterion") {
      inst.criterion = cli::parse_values(line);
    } else if (directive == "weights") {
      inst.weights = cli::parse_values(line);
    } else if (directive == "participant") {
      inst.participants.push_back(cli::parse_values(line));
    } else {
      cli::unknown_directive(directive);
    }
  });
  if (!have_spec) throw std::runtime_error(path + ": missing 'spec' line");
  if (inst.participants.size() < 2)
    throw std::runtime_error(path + ": need at least 2 participants");
  return inst;
}

void print_usage(const char* prog, std::FILE* out) {
  std::fprintf(
      out,
      "usage: %s <instance-file> [--seed N] [--parallelism N]\n"
      "       [--metrics-out FILE] [--trace-out FILE] [--comm-out FILE]\n"
      "       [--comm-trace-out FILE] [--fault-plan SPEC] [--fault-seed N]\n"
      "       [--fault-out FILE] [--degrade-on-dropout]\n"
      "\n"
      "  --seed N           deterministic run from ChaCha20 seed N (default:\n"
      "                     fresh OS entropy)\n"
      "  --parallelism N    worker threads for the execution engine; 0 = all\n"
      "                     hardware threads (default 1). Outputs are\n"
      "                     bit-identical for every N given the same seed.\n"
      "  --metrics-out FILE write per-phase crypto-op counters as JSON\n"
      "                     (schema ppgr.metrics.v1) and print a per-phase\n"
      "                     report to stdout\n"
      "  --trace-out FILE   write Chrome trace-event JSON (open in\n"
      "                     about:tracing or https://ui.perfetto.dev)\n"
      "  --comm-out FILE    write measured communication as JSON (schema\n"
      "                     ppgr.comm.v1): per-phase per-link bytes/messages\n"
      "                     and the per-message virtual-time flow log\n"
      "  --comm-trace-out FILE\n"
      "                     write network-flow Chrome trace JSON on the\n"
      "                     simulated timeline (send/receive slices linked\n"
      "                     by flow arrows; load next to --trace-out in\n"
      "                     Perfetto)\n"
      "  --fault-plan SPEC  inject a deterministic fault schedule, e.g.\n"
      "                     'seed=7,drop=0.05,corrupt=0.02' or\n"
      "                     'seed=3,crash=2@1' (see net/fault.h). The run\n"
      "                     either completes or exits 4 with a typed\n"
      "                     protocol-fault report; same SPEC => same faults\n"
      "                     at any --parallelism\n"
      "  --fault-seed N     override the SPEC's seed= field\n"
      "  --fault-out FILE   write the fault/retry report as JSON (schema\n"
      "                     ppgr.fault.v1), on success and on fault alike\n"
      "  --degrade-on-dropout\n"
      "                     rank the survivors when a participant is lost\n"
      "                     before phase-2 commitment instead of aborting\n"
      "  --help             show this message\n",
      prog);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg{argv[i]};
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0], stdout);
      return 0;
    }
  }
  if (argc < 2) {
    print_usage(argv[0], stderr);
    return 2;
  }
  std::uint64_t seed = 0;
  bool seeded = false;
  std::size_t parallelism = 1;
  std::string metrics_path;
  std::string trace_path;
  std::string comm_path;
  std::string comm_trace_path;
  std::string fault_spec;
  std::string fault_path;
  std::optional<std::uint64_t> fault_seed;
  std::optional<net::FaultPlanConfig> fault_cfg;
  bool degrade_on_dropout = false;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg{argv[i]};
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument(arg + " needs an argument");
        return argv[++i];
      };
      if (arg == "--seed") {
        seed = std::stoull(value());
        seeded = true;
      } else if (arg == "--parallelism") {
        parallelism = std::stoul(value());
      } else if (arg == "--metrics-out") {
        metrics_path = value();
      } else if (arg == "--trace-out") {
        trace_path = value();
      } else if (arg == "--comm-out") {
        comm_path = value();
      } else if (arg == "--comm-trace-out") {
        comm_trace_path = value();
      } else if (arg == "--fault-plan") {
        fault_spec = value();
      } else if (arg == "--fault-seed") {
        fault_seed = std::stoull(value());
      } else if (arg == "--fault-out") {
        fault_path = value();
      } else if (arg == "--degrade-on-dropout") {
        degrade_on_dropout = true;
      } else {
        throw std::invalid_argument("unknown option '" + arg + "'");
      }
    }
    if (fault_spec.empty() && (fault_seed.has_value() || !fault_path.empty()))
      throw std::invalid_argument(
          "--fault-seed/--fault-out need a --fault-plan");
    // A malformed spec is a usage error: parse it here so it exits 2 with
    // the usage text, not 1 from the run path.
    if (!fault_spec.empty()) {
      fault_cfg = net::parse_fault_plan(fault_spec);
      if (fault_seed.has_value()) fault_cfg->seed = *fault_seed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage(argv[0], stderr);
    return 2;
  }

  try {
    const CliInstance inst = parse_file(argv[1]);
    // Validate output paths before spending time on the protocol run.
    std::optional<std::ofstream> metrics_out;
    std::optional<std::ofstream> trace_out;
    std::optional<std::ofstream> comm_out;
    std::optional<std::ofstream> comm_trace_out;
    if (!metrics_path.empty()) metrics_out = cli::open_out(metrics_path);
    if (!trace_path.empty()) trace_out = cli::open_out(trace_path);
    if (!comm_path.empty()) comm_out = cli::open_out(comm_path);
    if (!comm_trace_path.empty())
      comm_trace_out = cli::open_out(comm_trace_path);

    const auto group = group::make_group(inst.group_id);
    core::FrameworkConfig cfg;
    cfg.spec = inst.spec;
    cfg.n = inst.participants.size();
    cfg.k = inst.k;
    cfg.group = group.get();
    cfg.dot_field = &core::default_dot_field();
    cfg.parallelism = parallelism;
    cfg.metrics = metrics_out.has_value() || trace_out.has_value() ||
                  comm_out.has_value() || comm_trace_out.has_value();

    std::optional<net::FaultPlan> fault_plan;
    if (fault_cfg.has_value()) {
      fault_plan.emplace(*fault_cfg);
      cfg.fault_plan = &*fault_plan;
      cfg.degrade_on_dropout = degrade_on_dropout;
    }
    std::optional<std::ofstream> fault_out;
    if (!fault_path.empty()) fault_out = cli::open_out(fault_path);

    mpz::ChaChaRng rng = seeded ? mpz::ChaChaRng{seed}
                                : mpz::ChaChaRng::from_os();
    const auto result = core::run_framework(cfg, inst.criterion, inst.weights,
                                            inst.participants, rng);

    std::printf("n=%zu participants, k=%zu, group=%s, l=%zu bits\n\n", cfg.n,
                cfg.k, group->name().c_str(), cfg.spec.beta_bits());
    for (std::size_t j = 0; j < cfg.n; ++j) {
      if (result.ranks[j] == 0) {
        std::printf("participant %2zu: dropped (lost in phase 1)\n", j + 1);
        continue;
      }
      std::printf("participant %2zu: rank %2zu%s\n", j + 1, result.ranks[j],
                  result.ranks[j] <= cfg.k ? "   -> submitted to initiator"
                                           : "");
    }
    std::printf("\nrounds=%zu messages=%zu bytes=%zu\n", result.trace.rounds(),
                result.trace.message_count(), result.trace.total_bytes());
    if (result.faults.has_value()) {
      const net::FaultStats& fs = result.faults->stats;
      std::printf(
          "faults: injected=%llu retransmits=%llu crc_detected=%llu "
          "timeouts=%llu giveups=%llu\n",
          static_cast<unsigned long long>(fs.injected_total()),
          static_cast<unsigned long long>(fs.retransmits),
          static_cast<unsigned long long>(fs.crc_detected),
          static_cast<unsigned long long>(fs.timeouts),
          static_cast<unsigned long long>(fs.giveups));
    }
    if (fault_out) {
      if (!result.faults.has_value())
        throw std::runtime_error("--fault-out: run produced no fault report");
      *fault_out << result.faults->to_json();
      if (!*fault_out)
        throw std::runtime_error("failed writing '" + fault_path + "'");
      std::printf("fault report written to %s\n", fault_path.c_str());
    }

    if (metrics_out) {
      *metrics_out << result.metrics->to_json(/*include_timing=*/true);
      if (!*metrics_out)
        throw std::runtime_error("failed writing '" + metrics_path + "'");
      std::printf("\n%s\nmetrics JSON written to %s\n",
                  runtime::phase_report(*result.metrics, result.spans.get(),
                                        result.comm.get())
                      .c_str(),
                  metrics_path.c_str());
    }
    if (trace_out) {
      *trace_out << result.spans->chrome_trace_json(/*deterministic=*/false);
      if (!*trace_out)
        throw std::runtime_error("failed writing '" + trace_path + "'");
      std::printf("Chrome trace written to %s (open in about:tracing)\n",
                  trace_path.c_str());
    }
    if (comm_out) {
      *comm_out << result.comm->to_json();
      if (!*comm_out)
        throw std::runtime_error("failed writing '" + comm_path + "'");
      std::printf("communication JSON written to %s\n", comm_path.c_str());
    }
    if (comm_trace_out) {
      *comm_trace_out << result.comm->chrome_trace_json();
      if (!*comm_trace_out)
        throw std::runtime_error("failed writing '" + comm_trace_path + "'");
      std::printf("network-flow trace written to %s (open in Perfetto)\n",
                  comm_trace_path.c_str());
    }
    return 0;
  } catch (const core::ProtocolFault& pf) {
    const core::FaultInfo& fi = pf.info();
    std::fprintf(stderr, "protocol fault: %s\n", pf.what());
    std::fprintf(stderr, "  phase: %s\n  round: %zu\n",
                 runtime::phase_name(fi.phase), fi.round);
    if (fi.party != core::kNoParty)
      std::fprintf(stderr, "  party: P%zu\n", fi.party);
    std::fprintf(stderr, "  cause: %s\n", fi.cause.c_str());
    if (!fault_path.empty()) {
      std::ofstream out{fault_path};
      out << pf.report().to_json();
      if (out)
        std::fprintf(stderr, "fault report written to %s\n",
                     fault_path.c_str());
    }
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

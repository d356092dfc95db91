// Model validation: the figure benchmarks price exact operation counts with
// calibrated per-op costs instead of running 1024-bit crypto for hours at
// n = 70. This bench justifies that two ways:
//
//  - default mode: runs the REAL framework end to end at small n and
//    compares measured mean per-participant compute time against the
//    model's prediction for the same configuration (timing sanity check);
//  - --check mode (run as the `model_validation` ctest): runs the real
//    framework with the runtime metrics layer enabled and asserts every
//    *measured* per-phase counter the conformance auditor checks
//    (benchcore::audited_op) equals the closed-form executed counts of
//    benchcore::model_he_ops exactly, reporting the offending
//    (phase, counter) on drift. An instrumentation or protocol change that
//    alters the executed calls without the model (or vice versa) fails CI;
//  - --check-comm mode (run as the `comm_validation` ctest): runs the real
//    framework and asserts the message trace recorded on the wire (every
//    message serialized through net::Router) equals
//    benchcore::model_he_schedule element for element (phase, round,
//    endpoints, bytes), with the same round count, and that the comm
//    report's per-(phase, link) message/byte totals match
//    benchcore::model_he_comm exactly. A codec or protocol
//    change that alters either side fails CI.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "benchcore/model.h"

namespace {

using namespace ppgr;

/// Exits nonzero if any per-phase audited counter drifts between the
/// measured runtime metrics and the closed-form model.
int run_check() {
  const core::ProblemSpec spec{.m = 4, .t = 2, .d1 = 6, .d2 = 6, .h = 6};
  constexpr std::size_t n = 4;
  constexpr std::size_t k = 2;
  constexpr std::uint64_t seed = 1234;

  const auto g = group::make_group(group::GroupId::kDlTest256);
  core::FrameworkConfig cfg;
  cfg.spec = spec;
  cfg.n = n;
  cfg.k = k;
  cfg.group = g.get();
  cfg.dot_field = &core::default_dot_field();
  cfg.metrics = true;
  const auto inst = benchcore::random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 1};
  const auto real = core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);
  const auto model =
      benchcore::model_he_ops(spec, n, benchcore::beta_popcounts(real.betas));

  using runtime::CryptoOp;
  int failures = 0;
  for (std::size_t p = 0; p < runtime::kPhaseCount; ++p) {
    const auto phase = static_cast<runtime::Phase>(p);
    const runtime::OpTally measured = real.metrics->phase_totals(phase);
    for (std::size_t i = 0; i < runtime::kOpCount; ++i) {
      const auto op = static_cast<CryptoOp>(i);
      if (!benchcore::audited_op(op)) continue;
      const std::uint64_t measured_v = measured[op];
      const std::uint64_t model_v = model.phase_ops[p][op];
      if (measured_v == model_v) continue;
      std::fprintf(stderr,
                   "DRIFT %-7s %-18s measured=%llu model=%llu (delta %+lld)\n",
                   runtime::phase_name(phase), runtime::op_name(op),
                   static_cast<unsigned long long>(measured_v),
                   static_cast<unsigned long long>(model_v),
                   static_cast<long long>(measured_v) -
                       static_cast<long long>(model_v));
      ++failures;
    }
  }

  if (failures != 0) {
    std::fprintf(stderr,
                 "\nmodel validation FAILED: %d counter(s) drifted between "
                 "benchcore::model_he_ops and the measured runtime metrics\n",
                 failures);
    return 1;
  }
  const runtime::OpTally measured = real.metrics->totals();
  std::printf("model validation OK: measured audited counters match "
              "model_he_ops in every phase\n"
              "  group_exp=%llu group_dual_exp=%llu group_exp_g=%llu "
              "group_mul=%llu group_inv=%llu (n=%zu, l=%zu)\n",
              static_cast<unsigned long long>(measured[CryptoOp::kGroupExp]),
              static_cast<unsigned long long>(
                  measured[CryptoOp::kGroupDualExp]),
              static_cast<unsigned long long>(measured[CryptoOp::kGroupExpG]),
              static_cast<unsigned long long>(measured[CryptoOp::kGroupMul]),
              static_cast<unsigned long long>(measured[CryptoOp::kGroupInv]),
              n, spec.beta_bits());
  return 0;
}

/// Exits nonzero if the measured message trace or round count drifts from
/// the closed-form schedule, or any (phase, src -> dst) link's measured
/// message count or serialized byte total from the communication model.
int run_check_comm() {
  const core::ProblemSpec spec{.m = 4, .t = 2, .d1 = 6, .d2 = 6, .h = 6};
  constexpr std::size_t n = 4;
  constexpr std::size_t k = 2;
  constexpr std::uint64_t seed = 1234;

  const auto g = group::make_group(group::GroupId::kDlTest256);
  core::FrameworkConfig cfg;
  cfg.spec = spec;
  cfg.n = n;
  cfg.k = k;
  cfg.group = g.get();
  cfg.dot_field = &core::default_dot_field();
  cfg.metrics = true;
  const auto inst = benchcore::random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 1};
  const auto real = core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);

  int failures = 0;
  const auto schedule = benchcore::model_he_schedule(
      spec, n, *g, *cfg.dot_field, cfg.dot_s, real.submitted_ids);
  const auto& trace = real.trace.transfers();
  for (std::size_t i = 0; i < std::min(trace.size(), schedule.transfers.size());
       ++i) {
    const runtime::Transfer& ms = trace[i];
    const runtime::Transfer& md = schedule.transfers[i];
    if (ms.phase == md.phase && ms.round == md.round && ms.src == md.src &&
        ms.dst == md.dst && ms.bytes == md.bytes)
      continue;
    std::fprintf(stderr,
                 "SCHEDULE drift at message %zu: measured %s round %zu "
                 "%zu->%zu %zu B, model %s round %zu %zu->%zu %zu B\n",
                 i, runtime::phase_name(ms.phase), ms.round, ms.src, ms.dst,
                 ms.bytes, runtime::phase_name(md.phase), md.round, md.src,
                 md.dst, md.bytes);
    ++failures;
  }
  if (trace.size() != schedule.transfers.size() ||
      real.comm->rounds() != schedule.rounds) {
    std::fprintf(stderr,
                 "SCHEDULE size drift: measured %zu messages in %zu rounds, "
                 "model %zu in %zu\n",
                 trace.size(), real.comm->rounds(), schedule.transfers.size(),
                 schedule.rounds);
    ++failures;
  }

  const auto measured = real.comm->links();
  const auto modeled = benchcore::model_he_comm(
      spec, n, *g, *cfg.dot_field, cfg.dot_s, real.submitted_ids);
  const auto link_name = [](const runtime::CommLink& lk) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s %zu->%zu",
                  runtime::phase_name(lk.phase), lk.src, lk.dst);
    return std::string{buf};
  };
  const std::size_t common = std::min(measured.size(), modeled.size());
  for (std::size_t i = 0; i < common; ++i) {
    const auto& ms = measured[i];
    const auto& md = modeled[i];
    if (ms.phase != md.phase || ms.src != md.src || ms.dst != md.dst) {
      std::fprintf(stderr, "LINK MISMATCH at %zu: measured %s vs model %s\n",
                   i, link_name(ms).c_str(), link_name(md).c_str());
      ++failures;
      continue;
    }
    if (ms.messages != md.messages || ms.bytes != md.bytes) {
      std::fprintf(
          stderr,
          "DRIFT %-16s measured msgs=%llu bytes=%llu  model msgs=%llu "
          "bytes=%llu\n",
          link_name(ms).c_str(), static_cast<unsigned long long>(ms.messages),
          static_cast<unsigned long long>(ms.bytes),
          static_cast<unsigned long long>(md.messages),
          static_cast<unsigned long long>(md.bytes));
      ++failures;
    }
  }
  if (measured.size() != modeled.size()) {
    std::fprintf(stderr, "LINK COUNT drift: measured %zu links, model %zu\n",
                 measured.size(), modeled.size());
    ++failures;
  }

  if (failures != 0) {
    std::fprintf(stderr,
                 "\ncomm validation FAILED: %d check(s) drifted between the "
                 "measured wire and benchcore::model_he_schedule/_comm\n",
                 failures);
    return 1;
  }
  std::printf("comm validation OK: the measured trace equals the closed-form "
              "schedule and the wire bytes match the model on all %zu links\n"
              "  messages=%zu bytes=%llu rounds=%zu virtual=%.6fs (n=%zu, "
              "l=%zu)\n",
              measured.size(), real.comm->message_count(),
              static_cast<unsigned long long>(real.comm->total_bytes()),
              real.comm->rounds(), real.comm->virtual_seconds(), n,
              spec.beta_bits());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--check") == 0) return run_check();
  if (argc > 1 && std::strcmp(argv[1], "--check-comm") == 0)
    return run_check_comm();
  using namespace ppgr;
  using benchcore::TablePrinter;

  // Small spec so the real run stays in seconds.
  core::ProblemSpec spec{.m = 6, .t = 3, .d1 = 8, .d2 = 8, .h = 8};

  std::printf("Model validation: measured real runs vs modeled predictions\n"
              "(l = %zu bits)\n\n", spec.beta_bits());
  TablePrinter table({"group", "n", "measured/party", "modeled/party",
                      "model/measured"});

  mpz::ChaChaRng rng{66};
  for (const auto gid : {group::GroupId::kEcP192, group::GroupId::kDl1024}) {
    const auto g = group::make_group(gid);
    const auto costs = benchcore::calibrate_group(*g, rng);
    for (const std::size_t n : {4u, 6u, 8u}) {
      const auto inst = benchcore::random_instance(spec, n, 77 + n);
      core::FrameworkConfig cfg;
      cfg.spec = spec;
      cfg.n = n;
      cfg.k = 2;
      cfg.group = g.get();
      cfg.dot_field = &core::default_dot_field();
      mpz::ChaChaRng run_rng{88 + n};
      const auto real =
          core::run_framework(cfg, inst.v0, inst.w, inst.infos, run_rng);
      double measured = 0;
      for (std::size_t j = 1; j <= n; ++j) measured += real.compute_seconds[j];
      measured /= static_cast<double>(n);

      const auto modeled = benchcore::price_he_counts(
          benchcore::count_he_framework(spec, n, 2, *g, 77 + n), g->name(),
          costs);
      char ratio[16];
      std::snprintf(ratio, sizeof(ratio), "%.2f",
                    modeled.total_seconds() / measured);
      table.row({g->name(), std::to_string(n),
                 TablePrinter::fmt_seconds(measured),
                 TablePrinter::fmt_seconds(modeled.total_seconds()), ratio});
    }
  }
  std::printf("\nA ratio near 1.0 validates pricing counted ops with "
              "calibrated costs.\n");
  return 0;
}

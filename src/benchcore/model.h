// Shared sweep machinery for the figure-reproduction benchmarks, and the
// closed-form model of an HE run that the conformance auditor also checks
// live sessions against.
//
// Once phase 1 has run, an HE session is fixed: the β values give every
// circuit's popcount, the ranks and the submitted set; the rest is a closed
// form of (spec, n) and the group's wire sizes. So every prediction here is
// phase 1 (core::phase1_betas, on the real field) plus model_he_ops (op
// counts), model_he_schedule (every message, and the rounds) and
// beta_ranks. A sweep point prices one framework configuration two ways:
//  - HE frameworks (the paper's DL-xxxx and ECC-xxx): the naive op counts
//    per participant, priced with calibrated real-group costs
//    (benchcore/calibrate.h), plus the real measured phase-1 time;
//  - SS framework: exact counts from an MpcEngine::kCountOnly run, priced
//    per participant.
#pragma once

#include <array>
#include <string>

#include "benchcore/calibrate.h"
#include "core/framework.h"
#include "core/ss_framework.h"

namespace ppgr::benchcore {

using core::AttrVec;
using core::ProblemSpec;

/// The paper's default evaluation parameters (Sec. VII): n=25, m=10, d1=15,
/// h=15; the paper does not state t, d2 or k — we use t = m/2, d2 = 15,
/// k = 3 (documented in EXPERIMENTS.md).
[[nodiscard]] ProblemSpec paper_default_spec();

/// Deterministic random instance of a problem (criterion, weights, infos).
struct Instance {
  AttrVec v0;
  AttrVec w;
  std::vector<AttrVec> infos;
};
[[nodiscard]] Instance random_instance(const ProblemSpec& spec, std::size_t n,
                                       std::uint64_t seed);

/// One priced HE data point.
struct HePoint {
  std::string framework;                 // "dl-1024", "ecc-p192", ...
  double participant_seconds = 0;        // modeled phase-2+ compute
  double phase1_seconds = 0;             // measured real phase-1 (per party)
  OpCounts per_participant;              // counts after division by n
  std::size_t rounds = 0;                // rounds carrying a message
  [[nodiscard]] double total_seconds() const {
    return participant_seconds + phase1_seconds;
  }
};

/// Which evaluation of the phase-2 steps an op profile describes.
enum class OpProfile {
  /// The Group interface calls run_framework executes — what a
  /// group::MeteredGroup counts (group_* keys, group_dual_exp included).
  kExecuted,
  /// The paper's Sec. VI-B evaluation: every homomorphic step as plain
  /// ct_scale / ct_add_plain / ct_add / rerandomize, every hop ciphertext
  /// as partial_decrypt + exp_randomize (DESIGN.md §5e). This is the
  /// profile the figure benches price, and the differential oracle's
  /// (tests/phase2_oracle_test.cpp).
  kNaive,
};

/// Group calls of one comparison circuit over l bits whose evaluator's own
/// β has `pop` set bits, each output re-randomized with a drawn encryption
/// of zero.
[[nodiscard]] runtime::OpTally compare_circuit_ops(std::size_t l,
                                                   std::size_t pop,
                                                   OpProfile profile);
/// Group calls of one shuffle-hop ciphertext (the permutation calls none).
[[nodiscard]] runtime::OpTally hop_ciphertext_ops(OpProfile profile);

/// The counters model_he_ops (a) states and the conformance auditor checks:
/// all but the accel_* diagnostics (they depend on the group family and
/// tables).
[[nodiscard]] bool audited_op(runtime::CryptoOp op);

/// Phase 1's counters, HE and SS alike: one secure dot product per party.
[[nodiscard]] runtime::OpTally phase1_ops(std::size_t n);

/// Closed-form op model of one HE framework run — no protocol run.
struct HeOpModel {
  /// (a) Executed counts per phase, every audited_op counter: what the
  /// metrics layer measures for run_framework on any group family.
  std::array<runtime::OpTally, runtime::kPhaseCount> phase_ops{};
  /// (b) The Sec. VI-B naive profile of the same run, all phases and
  /// parties summed (group_* slots except group_dual_exp, which the naive
  /// evaluation never calls).
  runtime::OpTally naive;
};
/// `popcounts[j]` is the popcount of participant j+1's β (a circuit's cost
/// depends on its evaluator's own bits; see beta_popcounts).
[[nodiscard]] HeOpModel model_he_ops(const ProblemSpec& spec, std::size_t n,
                                     const std::vector<std::size_t>& popcounts);
/// Popcounts of FrameworkResult::betas, in party order.
[[nodiscard]] std::vector<std::size_t> beta_popcounts(
    const std::vector<mpz::Nat>& betas);
/// The protocol's ranking rule on phase 1's output: rank_j = 1 +
/// #{i : β_i > β_j}. A comparison circuit yields a zero exactly when the
/// peer's β is larger, so tied β values share a rank.
[[nodiscard]] std::vector<std::size_t> beta_ranks(
    const std::vector<mpz::Nat>& betas);
/// 1-based ids whose rank is within the top k, ascending: the parties that
/// submit in phase 3 (FrameworkResult::submitted_ids).
[[nodiscard]] std::vector<std::size_t> top_k_ids(
    const std::vector<std::size_t>& ranks, std::size_t k);

/// Closed-form message schedule of one HE run: every message, in the order
/// the Router accounts it — what TraceRecorder::transfers() records for a
/// real run, byte for byte and phase for phase. Phase 1 takes rounds 0-1,
/// phase 2 the next n + 5 (key shares, proofs, an empty joint-key round,
/// β bits, sets to P1, then one round per chain hop), phase 3 the last one.
struct HeSchedule {
  std::vector<runtime::Transfer> transfers;
  /// Closed rounds (Router::round_index() after phase 3), empty included.
  std::size_t rounds = 0;
  /// Rounds carrying at least one message (TraceRecorder::rounds()).
  [[nodiscard]] std::size_t message_rounds() const;
};
/// Phase-3 message sizes depend on the ranking outcome (a submission from
/// the top k, an empty message from everyone else), so the submitting party
/// ids are an input; everything else is data-independent.
[[nodiscard]] HeSchedule model_he_schedule(
    const ProblemSpec& spec, std::size_t n, const group::Group& g,
    const mpz::FpCtx& dot_field, std::size_t dot_s,
    const std::vector<std::size_t>& submitted_ids);

/// Counts for one sweep point, reusable across price points: DL and ECC
/// execute the same operation sequence, so one instance prices both (only
/// the schedule depends on the group's wire sizes).
struct HeCounts {
  OpCounts per_participant;
  /// model_he_ops' naive profile of the instance, undivided.
  OpCounts totals;
  HeSchedule schedule;  // on the group passed to count_he_framework
  double phase1_seconds = 0;
};
/// Runs the instance's phase 1 (core::phase1_betas) for its β values and
/// takes the op counts from model_he_ops and the messages from
/// model_he_schedule on `g`. No protocol run.
[[nodiscard]] HeCounts count_he_framework(const ProblemSpec& spec,
                                          std::size_t n, std::size_t k,
                                          const group::Group& g,
                                          std::uint64_t seed);
/// Prices HeCounts with a real group's calibrated costs.
[[nodiscard]] HePoint price_he_counts(const HeCounts& counts,
                                      const std::string& name,
                                      const GroupCosts& real_costs);

/// Closed-form communication model of the HE framework: model_he_schedule
/// aggregated per (phase, src -> dst) into message counts and serialized
/// byte totals. This is the Sec. VI-B communication analysis made
/// byte-exact; `validate_model --check-comm` asserts it matches what
/// CommRegistry measures on the wire for a real run. Returned links are
/// sorted by (phase, src, dst) with tx_s left at 0 — virtual time belongs
/// to the simulator, not the model.
[[nodiscard]] std::vector<runtime::CommLink> model_he_comm(
    const ProblemSpec& spec, std::size_t n, const group::Group& g,
    const mpz::FpCtx& dot_field, std::size_t dot_s,
    const std::vector<std::size_t>& submitted_ids);

/// One priced SS data point.
struct SsPoint {
  double participant_seconds = 0;
  double phase1_seconds = 0;
  sss::MpcCosts totals;
  std::uint64_t parallel_rounds = 0;
  runtime::TraceRecorder trace;
  [[nodiscard]] double total_seconds() const {
    return participant_seconds + phase1_seconds;
  }
};

[[nodiscard]] SsPoint price_ss_framework(const ProblemSpec& spec,
                                         std::size_t n, std::size_t k,
                                         std::uint64_t seed);

/// Simple aligned table printer shared by the bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void row(const std::vector<std::string>& cells);
  static std::string fmt_seconds(double s);
  static std::string fmt_count(std::uint64_t c);

 private:
  std::vector<std::size_t> widths_;
};

}  // namespace ppgr::benchcore

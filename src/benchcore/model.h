// Shared sweep machinery for the figure-reproduction benchmarks.
//
// A sweep point prices one framework configuration two ways:
//  - HE frameworks (the paper's DL-xxxx and ECC-xxx): the closed-form op
//    counts of model_he_ops, divided per participant, priced with
//    calibrated real-group costs (benchcore/calibrate.h), plus the real
//    measured phase-1 time. A MockGroup protocol run supplies what the
//    closed form takes as input (the β bit patterns) and the communication
//    trace replayed by the fig3b network benchmark.
//  - SS framework: exact counts from an MpcEngine::kCountOnly run, priced
//    per participant.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "benchcore/calibrate.h"
#include "core/framework.h"
#include "core/ss_framework.h"
#include "group/mock_group.h"

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
  runtime::TraceRecorder trace;          // with modeled element sizes
  std::size_t rounds = 0;
  std::size_t total_bytes = 0;
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
/// β has `pop` set bits. `pooled`: the re-randomizations add precomputed
/// zero encryptions instead of drawing fresh ones.
[[nodiscard]] runtime::OpTally compare_circuit_ops(std::size_t l,
                                                   std::size_t pop,
                                                   bool pooled,
                                                   OpProfile profile);
/// Group calls of one shuffle-hop ciphertext (the permutation calls none).
[[nodiscard]] runtime::OpTally hop_ciphertext_ops(OpProfile profile);

/// The group-layer counters the model states.
inline constexpr runtime::CryptoOp kModeledGroupOps[] = {
    runtime::CryptoOp::kGroupMul,       runtime::CryptoOp::kGroupExp,
    runtime::CryptoOp::kGroupExpG,      runtime::CryptoOp::kGroupDualExp,
    runtime::CryptoOp::kGroupInv,       runtime::CryptoOp::kGroupSerialize,
    runtime::CryptoOp::kGroupDeserialize};

/// Closed-form group-op model of one HE framework run — no protocol run.
struct HeOpModel {
  /// (a) Executed interface calls per phase (group_* slots only): what the
  /// metrics layer measures for run_framework on any group family.
  std::array<runtime::OpTally, runtime::kPhaseCount> phase_ops{};
  /// (b) The Sec. VI-B naive profile of the same run, all phases and
  /// parties summed (group_* slots except group_dual_exp, which the naive
  /// evaluation never calls).
  runtime::OpTally naive;
};
/// `popcounts[j]` is the popcount of participant j+1's β (a circuit's cost
/// depends on its evaluator's own bits; see beta_popcounts). `pooled`: a
/// precompute source supplies the widened zero-encryption pool, so the
/// bitwise β encryptions and the circuit re-randomizations ride it.
[[nodiscard]] HeOpModel model_he_ops(const ProblemSpec& spec, std::size_t n,
                                     const std::vector<std::size_t>& popcounts,
                                     bool pooled);
/// Popcounts of FrameworkResult::betas, in party order.
[[nodiscard]] std::vector<std::size_t> beta_popcounts(
    const std::vector<mpz::Nat>& betas);

/// Counts for one sweep point, reusable across price points: DL and ECC
/// execute the same operation sequence, so one instance prices both (only
/// the recorded trace depends on the modeled element size).
struct HeCounts {
  OpCounts per_participant;
  /// model_he_ops' naive profile of the instance, undivided.
  OpCounts totals;
  runtime::TraceRecorder trace;
  std::size_t rounds = 0;
  std::size_t total_bytes = 0;
  double phase1_seconds = 0;
};
/// Runs the instance once over a MockGroup dressed with the modeled
/// element/scalar sizes — for its transfer trace, rounds, bytes and β
/// popcounts — and takes the op counts from model_he_ops.
[[nodiscard]] HeCounts count_he_framework(const ProblemSpec& spec,
                                          std::size_t n, std::size_t k,
                                          std::size_t modeled_elem_bytes,
                                          std::size_t modeled_field_bits,
                                          std::uint64_t seed);
/// Prices HeCounts with a real group's calibrated costs. The trace is
/// copied only if `with_trace`.
[[nodiscard]] HePoint price_he_counts(const HeCounts& counts,
                                      const std::string& name,
                                      const GroupCosts& real_costs,
                                      bool with_trace = false);

/// Convenience: count + price in one call.
[[nodiscard]] HePoint price_he_framework(const ProblemSpec& spec,
                                         std::size_t n, std::size_t k,
                                         const group::Group& real,
                                         const GroupCosts& real_costs,
                                         std::uint64_t seed);

/// Closed-form communication model of the HE framework: per-(phase,
/// src -> dst) message counts and serialized byte totals computed from the
/// wire codecs' exact size functions — no protocol run. This is the
/// Sec. VI-B communication analysis made byte-exact; `validate_model
/// --check-comm` asserts it matches what CommRegistry measures on the wire
/// for a real run. Phase-3 message sizes depend on the ranking outcome
/// (a submission from the top k, an empty message from everyone else), so
/// the submitting party ids are an input (everything else is
/// data-independent).
/// Returned links are sorted by (phase, src, dst) with tx_s left at 0 —
/// virtual time belongs to the simulator, not the model.
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

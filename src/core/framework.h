// The paper's privacy preserving group ranking framework (Fig. 1):
//
//   Phase 1 — secure gain computation. Each participant P_j runs the secure
//   dot product with the initiator P0 on the expanded vectors of Sec. V and
//   obtains the masked partial gain β_j = ρ·p_j + ρ_j, converted to an l-bit
//   unsigned integer.
//
//   Phase 2 — unlinkable gain comparison. Distributed exponential-ElGamal
//   keygen with multi-verifier Schnorr proofs; bitwise encryption of β_j;
//   homomorphic evaluation of the first-difference comparison circuit
//   against every other participant; decrypt-shuffle chain P1 → ... → Pn in
//   which every hop partially decrypts, exponent-randomizes and permutes
//   every other participant's ciphertext set.
//
//   Phase 3 — ranking submission. Each participant counts zeros in her
//   returned set (rank = zeros + 1) and, if within top-k, submits her
//   information vector; the initiator cross-checks submissions by
//   recomputing gains.
//
// The classes below are the per-party protocol state machines. The per-party
// program of core/party_driver.h drives them — one party per process over
// sockets (run_party), or all n+1 parties in-process (run_framework, which
// launches the same program once per party over one shared net::Router).
// Every inter-party message is serialized for real through the wire codecs;
// the Router accounts the exact byte counts into a runtime::TraceRecorder
// (from which, with metrics on, the run computes a runtime::CommRegistry
// with simulated virtual-time delivery), and the run accounts per-party
// computation time —
// producing both the protocol outputs and the observability data the
// benchmarks (Figs. 2 and 3) need.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "core/spec.h"
#include "crypto/elgamal.h"
#include "crypto/schnorr_proof.h"
#include "dotprod/dot_product.h"
#include "group/fixed_base.h"
#include "group/group.h"
#include "mpz/mont.h"
#include "mpz/rng.h"
#include "net/fault.h"
#include "runtime/comm.h"
#include "runtime/metrics.h"
#include "runtime/span.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"

namespace ppgr::runtime {
class ThreadPool;  // runtime/thread_pool.h
}

namespace ppgr::core {

using crypto::Ciphertext;
using group::Elem;
using group::Group;
using mpz::Rng;

/// A participant's flattened comparison set travelling the shuffle chain
/// ((n-1)·l ciphertexts; the paper's script-E_j).
using CipherSet = std::vector<Ciphertext>;

/// Ciphertexts per shuffle-hop ladder batch: fixed, so the engine's task
/// split (and with it the span stream) does not depend on the pool size.
inline constexpr std::size_t kHopChunk = 64;

/// Party id for a fault not attributable to one party.
inline constexpr std::size_t kNoParty = static_cast<std::size_t>(-1);

/// Where and why a protocol run failed (DESIGN.md Sec. 7 "Failure model").
/// `party` is a router party id (0 = initiator, 1..n = participants,
/// kNoParty = unattributable); `round` is the transport round index at the
/// failure.
struct FaultInfo {
  runtime::Phase phase = runtime::Phase::kSetup;
  std::size_t round = 0;
  std::size_t party = kNoParty;
  std::string cause;
};

/// Typed protocol failure: every way a run can fail under faults — channel
/// give-up/timeout, peer crash, undecodable (tampered) message, rejected
/// zero-knowledge proof, or too few survivors to degrade onto — surfaces as
/// this exception, never as a hang, an abort or UB. Carries the fault
/// coordinates plus the router's full fault report (counters + injection
/// event log) for observability.
class ProtocolFault : public std::runtime_error {
 public:
  ProtocolFault(FaultInfo info, net::FaultReport report,
                const std::string& what)
      : std::runtime_error(what),
        info_(std::move(info)),
        report_(std::move(report)) {}

  [[nodiscard]] const FaultInfo& info() const { return info_; }
  [[nodiscard]] const net::FaultReport& report() const { return report_; }

 private:
  FaultInfo info_;
  net::FaultReport report_;
};

/// Live conformance-audit hook (implemented by engine::ConformanceAuditor;
/// see src/engine/audit.h). The frameworks call phase_complete(p, ...) at
/// the boundary where phase p's counters are final (the registries are
/// flushed first, so the callback sees complete per-phase totals),
/// run_complete once after phase 3, run_degraded when a dropout degrade
/// replaces the full-set run with a survivor-set rerun, and run_faulted
/// just before a typed ProtocolFault is thrown. Strictly observation-only:
/// implementations read the registries and must not mutate protocol state.
class AuditSink {
 public:
  virtual ~AuditSink() = default;
  virtual void phase_complete(runtime::Phase phase,
                              const runtime::MetricsRegistry* metrics) = 0;
  virtual void run_complete(const std::vector<std::size_t>& submitted_ids,
                            const runtime::MetricsRegistry* metrics,
                            const runtime::CommRegistry* comm,
                            std::size_t rounds) = 0;
  virtual void run_degraded(const std::vector<std::size_t>& dropped) = 0;
  virtual void run_faulted(runtime::Phase phase) = 0;
};

/// Configuration shared by all parties.
struct FrameworkConfig {
  ProblemSpec spec;
  std::size_t n = 0;  // participants
  std::size_t k = 1;  // top-k
  const Group* group = nullptr;        // DDH group for phase 2
  const FpCtx* dot_field = nullptr;    // prime field for phase 1
  /// Execution-engine concurrency for run_framework: 1 = serial (default),
  /// 0 = hardware concurrency, N = N-way fork-join. Outputs are
  /// bit-identical for every value (see DESIGN.md, "Threading model &
  /// determinism"). Must be 1 when `group` is not thread-safe.
  std::size_t parallelism = 1;
  /// Enables the observability layer (DESIGN.md, "Observability"): the run
  /// wraps `group` in group::MeteredGroup, records hierarchical spans and
  /// per-(phase, party) crypto-op counters, and returns them in
  /// FrameworkResult::metrics / ::spans. Counter totals and span streams are
  /// bit-identical for every `parallelism` value; wall-clock fields are not.
  bool metrics = false;
  /// Execute on an external long-lived pool instead of constructing a
  /// per-run one (the session engine shares one pool across all in-flight
  /// sessions; runtime::ThreadPool supports concurrent parallel_for calls).
  /// Null (the default) preserves the original behavior: a private pool of
  /// `parallelism` threads per run. When set, `parallelism` is ignored.
  runtime::ThreadPool* shared_pool = nullptr;
  /// Deterministic fault schedule routed into the run's net::Router; must
  /// outlive the run. Null or disabled: the fault layer is a strict no-op
  /// and every output/export is bit-identical to a build without it.
  const net::FaultPlan* fault_plan = nullptr;
  /// Live round-progress hook (see runtime/telemetry.h): the run's Router
  /// reports (phase, round) at every phase change and round barrier, which
  /// is what the session engine's stall watchdog watches. Must outlive the
  /// run. Null (the default): zero overhead; never affects outputs either
  /// way — progress reporting is observation, not computation.
  runtime::ProgressCell* progress = nullptr;
  /// Dropout policy: when a participant is declared dead *before the
  /// phase-2 commitment* (i.e. during phase 1), rerun the protocol over the
  /// surviving party set instead of aborting — the paper's β_j ordering is
  /// independent per party, so the survivors' ranking is exactly the
  /// ranking of the reduced instance (k is clamped to the survivor count).
  /// Dropouts at or after phase 2 always abort with a ProtocolFault:
  /// comparisons and the shuffle chain bind all parties cryptographically.
  /// Security caveat: degrading reveals *that* the dropped parties are
  /// absent and re-randomizes the survivors' masks — see DESIGN.md Sec. 7.
  bool degrade_on_dropout = false;
  /// Live conformance audit (see AuditSink above). Requires `metrics`; must
  /// outlive the run. Null: no checkpoints fire, zero overhead.
  AuditSink* audit = nullptr;

  void validate() const;
};

/// P0. Holds the criterion/weight vectors, ρ and the per-participant ρ_j.
class Initiator {
 public:
  /// Draws ρ and the ρ_j masks from `rng` (the only randomness P0 uses).
  Initiator(const FrameworkConfig& cfg, AttrVec v0, AttrVec w, Rng& rng);

  /// Phase 1 step 3: answer participant j's dot-product message.
  [[nodiscard]] dotprod::AliceRound2 answer_gain_query(
      std::size_t j, const dotprod::BobRound1& msg);

  /// Phase 3: a top-k submission.
  struct Submission {
    std::size_t participant;  // 1-based id
    std::size_t claimed_rank;
    AttrVec info;
  };
  void receive_submission(Submission s);
  /// Detects over-claimed ranks by recomputing gains of all submissions
  /// (the check described at the end of Sec. V): returns the ids whose
  /// claimed rank order contradicts the recomputed gain order.
  [[nodiscard]] std::vector<std::size_t> inconsistent_submissions() const;

 private:
  const FrameworkConfig& cfg_;
  AttrVec v0_;
  AttrVec w_;
  Nat rho_;                  // h-bit, shared across participants
  std::vector<Nat> rho_j_;   // per-participant masks, < rho
  std::vector<Submission> submissions_;
};

/// P_j (1-based id). Drives its side of all three phases.
///
/// Every randomness-consuming step takes its Rng explicitly: the execution
/// engine passes each task its own counter-seeded stream so results do not
/// depend on scheduling (DESIGN.md, "Threading model & determinism").
/// Group operations go through cfg.group, the run's (metered) group.
class Participant {
 public:
  Participant(const FrameworkConfig& cfg, std::size_t id, AttrVec info);

  // --- phase 1 ---
  [[nodiscard]] const dotprod::BobRound1& gain_query(Rng& rng);
  void receive_gain_answer(const dotprod::AliceRound2& answer);
  /// Unsigned l-bit masked gain (available after phase 1).
  [[nodiscard]] const Nat& beta() const { return beta_; }

  // --- phase 2 ---
  /// Step 5: draw the ElGamal key share; returns the public share.
  [[nodiscard]] const Elem& public_key(Rng& rng);
  /// The proof message (h, Σc, z) of the key share for n verifiers. The
  /// prover draws the challenges, so it is honest-verifier only.
  [[nodiscard]] crypto::SchnorrProof prove_key(std::size_t n_verifiers,
                                               Rng& rng) const;
  /// Checks a peer's proof message (h, Σc, z) for its key share y.
  [[nodiscard]] bool verify_peer_key(const Elem& y,
                                     const crypto::SchnorrProof& proof) const;
  /// Called once all shares are collected, with the comb table of the joint
  /// key y = table->base(). A run builds it once and shares it with every
  /// participant; every y^r is then a Group::exp_fixed through it.
  void set_joint_key(std::shared_ptr<const group::FixedBaseTable> table) {
    joint_key_ = std::move(table);
  }
  /// Step 6, bitwise encryption of β under the joint key: E(bit b of β)
  /// for b = 0..l-1 (LSB first), bit b's randomizer drawn from
  /// *bit_rngs[b] (the engine passes one stream per bit; l pointers,
  /// std::invalid_argument otherwise). The l encryptions run as one
  /// crypto::encrypt_exp_many.
  [[nodiscard]] std::vector<Ciphertext> encrypt_beta(
      std::span<Rng* const> bit_rngs) const;
  /// Step 7: homomorphic comparison of own (plaintext) bits against another
  /// participant's encrypted bits; returns E(τ^1..τ^l), each τ_b
  /// re-randomized with a fresh encryption of zero drawn from `rng` (bit
  /// l-1 first). A zero among the τ plaintexts means the peer's β is
  /// larger. The circuit's ladders run as batches: one dual_exp_many and
  /// one exp_many for every ω, then one crypto::rerandomize_many.
  [[nodiscard]] std::vector<Ciphertext> compare_against(
      const std::vector<Ciphertext>& peer_bits, Rng& rng) const;
  /// Step 8, one chain hop over a peer's set — partial decryption with this
  /// party's key share, per-ciphertext exponent randomization, and a
  /// uniform permutation of the set — as three steps, which the party
  /// driver fans out separately (DESIGN.md §5b): draw_hop, hop_ladders over
  /// kHopChunk ciphertexts at a time, then permute_hop. draw_hop draws all
  /// of one set's randomness from its stream: r[i] in [1, q) for every
  /// ciphertext in set order, then the Fisher–Yates indices swaps[i] for
  /// i = size-1 down to 1 (r and swaps have the set's size; swaps[0] is
  /// unused).
  void draw_hop(Rng& rng, std::span<Nat> r,
                std::span<std::uint64_t> swaps) const;
  /// Partially decrypts and randomizes cts[i] with r[i], through one
  /// dual_exp_many and one exp_many; cts may span several sets.
  void hop_ladders(std::span<Ciphertext> cts, std::span<const Nat> r) const;
  /// Applies draw_hop's Fisher–Yates swaps to its set.
  static void permute_hop(std::span<Ciphertext> set,
                          std::span<const std::uint64_t> swaps);
  /// Step 9: final decryption of (part of) the own returned set; the rank
  /// is 1 + the zeros of the whole set. The span's cp^x run through one
  /// Group::exp_many (phase 3 hands over kRankChunk ciphertexts at a
  /// time).
  [[nodiscard]] std::size_t count_zeros(std::span<const Ciphertext> cts) const;

  // --- phase 3 ---
  [[nodiscard]] std::optional<Initiator::Submission> submission(
      std::size_t rank) const;

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  const FrameworkConfig& cfg_;
  std::size_t id_;
  AttrVec info_;
  std::optional<dotprod::DotProductBob> dot_;
  Nat beta_;  // unsigned l-bit
  crypto::KeyPair key_;
  // Z_q's Montgomery context and x·R mod q, for the hop's
  // e = q - x·r mod q; unset for an even q (MockGroup's).
  std::optional<mpz::MontCtx> order_mont_;
  Nat x_mont_;
  std::shared_ptr<const group::FixedBaseTable> joint_key_;
};

/// Outputs plus observability data.
struct FrameworkResult {
  std::vector<std::size_t> ranks;          // per participant, 1-based
  std::vector<std::size_t> submitted_ids;  // participants with rank <= k
  /// Per-participant masked gains β_j — protocol-internal values exposed for
  /// observability and the determinism tests (this is an in-process
  /// honest-but-curious simulation; nothing leaves the process).
  std::vector<Nat> betas;
  runtime::TraceRecorder trace;
  std::vector<double> compute_seconds;     // index 0 = initiator
  /// Populated iff FrameworkConfig::metrics; null otherwise. Exporters:
  /// metrics->to_json(), spans->chrome_trace_json(),
  /// runtime::phase_report(*metrics, spans.get(), comm.get()).
  std::unique_ptr<runtime::MetricsRegistry> metrics;
  std::unique_ptr<runtime::SpanRecorder> spans;
  /// Measured communication: per-message flows with exact serialized bytes
  /// and virtual-time delivery segments, computed from `trace` after the
  /// run (net::comm_report). Exporters: comm->to_json() ("ppgr.comm.v1"),
  /// comm->chrome_trace_json() (flow events). Populated iff
  /// FrameworkConfig::metrics; the TraceRecorder byte accounting is always
  /// on.
  std::unique_ptr<runtime::CommRegistry> comm;
  /// Participants (1-based) that completed the run. All of 1..n normally;
  /// the survivor set after a degrade-on-dropout continuation. For dropped
  /// parties, ranks[j-1] == 0 and betas[j-1] is empty.
  std::vector<std::size_t> active_parties;
  /// Participants (1-based) declared dead and degraded around.
  std::vector<std::size_t> dropped_parties;
  /// Present iff a fault plan was installed: the run's fault report
  /// ("ppgr.fault.v1" via to_json()).
  std::optional<net::FaultReport> faults;
};

/// Runs the whole framework honestly (HBC) with in-process parties: n+1
/// party coroutines over one shared Router, one party computing at a time
/// (DESIGN.md §5b). Failures surface as typed ProtocolFaults.
[[nodiscard]] FrameworkResult run_framework(const FrameworkConfig& cfg,
                                            const AttrVec& v0, const AttrVec& w,
                                            const std::vector<AttrVec>& infos,
                                            Rng& rng);

/// Phase 1 alone, metrics muted: the Initiator and Participant state
/// machines on the substreams run_framework gives them (kInitiatorSetup,
/// kPhase1). Returns every β_j in participant order, i.e.
/// run_framework(cfg, ...).betas for an identically-seeded rng.
[[nodiscard]] std::vector<Nat> phase1_betas(const FrameworkConfig& cfg,
                                            const AttrVec& v0, const AttrVec& w,
                                            const std::vector<AttrVec>& infos,
                                            Rng& rng);

/// Plain (insecure) reference ranking for tests and examples: ranks by gain,
/// non-increasing; tied gains share a rank.
[[nodiscard]] std::vector<std::size_t> reference_ranks(
    const ProblemSpec& spec, const AttrVec& v0, const AttrVec& w,
    const std::vector<AttrVec>& infos);

/// Default phase-1 field: 2^255 - 19, large enough for every spec this
/// library accepts (beta_bits() <= ~210 at the extreme sweep settings).
[[nodiscard]] const FpCtx& default_dot_field();

}  // namespace ppgr::core

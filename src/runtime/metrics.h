// Crypto-operation metrics: counters and fixed-bin latency histograms for
// the protocol's expensive operations, attributed by (phase, party).
//
// The paper's whole evaluation (Figs. 2-3, the Sec. VI-B table) is a
// breakdown of where exponentiations, multiplications and bytes go across
// the three phases. This registry measures exactly that on the *real*
// runtime, so bench/validate_model can cross-check the measured counts
// against the closed-form predictions of benchcore::model_he_ops —
// the analytical table and the implementation can no longer silently
// diverge.
//
// Instrumentation funnel: hot paths (group ops via group::MeteredGroup,
// ElGamal/Paillier/Schnorr in src/crypto, the dot product, the comparison
// circuit and shuffle hops in core/framework.cpp) call count_op() /
// ScopedOpTimer. Both write through a thread-local MetricsBuffer* sink:
//
//  - Disabled (the default): no sink is installed, so every call is a
//    single thread-local load + branch — a no-op sink.
//  - Enabled (FrameworkConfig::metrics): every party installs its own
//    MetricsBuffer and one per parallel task (MetricsScope), and absorbs
//    them into the shared MetricsRegistry in deterministic order (task
//    buffers in task-index order after the fork-join barrier). Counter
//    totals are sums, so they are bit-identical for every --parallelism
//    value.
//
// Determinism contract: counters (and histogram sample *counts*) are pure
// functions of the protocol instance and seed; latency bin contents and
// sums are wall-clock and vary run to run. MetricsRegistry::to_json(false)
// therefore emits only the deterministic fields (the golden exporter test
// and the cross-parallelism bit-identity check run in that mode).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/histogram.h"

namespace ppgr::runtime {

class SpanRecorder;  // span.h

/// Protocol phases of the paper's framework (Fig. 1), plus setup.
enum class Phase : std::uint8_t {
  kSetup = 0,   // keygen-independent bookkeeping outside the three phases
  kPhase1 = 1,  // secure gain computation
  kPhase2 = 2,  // unlinkable gain comparison
  kPhase3 = 3,  // ranking submission
};
inline constexpr std::size_t kPhaseCount = 4;
[[nodiscard]] const char* phase_name(Phase p);

/// Party id used for orchestrator-level work not attributable to one party
/// (e.g. the joint-key product computed once in the HBC simulation).
inline constexpr std::int32_t kOrchestratorParty = -1;

/// The expensive operations of the protocol stack, at the granularity the
/// paper's Sec. VI-B analysis counts them.
enum class CryptoOp : std::uint8_t {
  // group layer: executed Group interface calls, counted by
  // group::MeteredGroup (one per call; serialize_many counts its elements)
  kGroupMul = 0,
  kGroupExp,        // variable-base exponentiation
  kGroupExpG,       // fixed-base (generator) exponentiation
  kGroupDualExp,    // fused x^a · y^b (Group::dual_exp)
  kGroupInv,
  kGroupSerialize,
  kGroupDeserialize,
  // ElGamal (src/crypto/elgamal.cpp)
  kElGamalEncrypt,
  kElGamalDecrypt,
  kElGamalRerandomize,
  kElGamalPartialDecrypt,
  kElGamalExpRandomize,
  // Paillier (src/crypto/paillier.cpp)
  kPaillierEncrypt,
  kPaillierDecrypt,
  kPaillierAdd,
  kPaillierScale,
  kPaillierRerandomize,
  // Schnorr proofs (src/crypto/schnorr_proof.cpp)
  kSchnorrProve,
  kSchnorrVerify,
  // dot product (src/dotprod)
  kDotprodQuery,    // Bob round-1 disguise construction
  kDotprodAnswer,   // Alice's reply
  kDotprodFinish,   // Bob's unmasking
  // framework steps (core/framework.cpp)
  kCompareCircuit,  // one l-bit comparison-circuit evaluation (step 7)
  kShuffleHop,      // one party's hop over one foreign set (step 8)
  // accelerated-execution diagnostics: how often the hot path took a fast
  // route — fixed-base comb exponentiation through an attached
  // non-generator table (group::AcceleratedGroup), and batched Montgomery
  // inversion for affine normalization. Deterministic functions of the run
  // configuration; they sit below the group-layer counters (a table-served
  // exp is still one kGroupExp) and depend on the group family and the
  // attached tables.
  kAccelFixedBaseExp,  // exps served by a non-generator fixed-base table
  kAccelBatchInverse,  // elements inverted through a batched inversion
};
inline constexpr std::size_t kOpCount = 26;
[[nodiscard]] const char* op_name(CryptoOp op);

/// Plain counter block, one slot per CryptoOp.
struct OpTally {
  std::array<std::uint64_t, kOpCount> v{};

  [[nodiscard]] std::uint64_t operator[](CryptoOp op) const {
    return v[static_cast<std::size_t>(op)];
  }
  OpTally& operator+=(const OpTally& o) {
    for (std::size_t i = 0; i < kOpCount; ++i) v[i] += o.v[i];
    return *this;
  }
  [[nodiscard]] bool empty() const {
    for (const auto x : v)
      if (x != 0) return false;
    return true;
  }
};

// LatencyHistogram lives in runtime/histogram.h (shared with the telemetry
// layer's OpenMetrics buckets and quantile estimators).

/// Per-task, unsynchronized staging area: counters keyed by (phase, party)
/// plus per-op latency histograms. Every party and every parallel task gets
/// its own buffer; task buffers are absorbed in task-index order.
class MetricsBuffer {
 public:
  struct Slot {
    Phase phase = Phase::kSetup;
    std::int32_t party = kOrchestratorParty;
    OpTally tally;
  };

  /// Routes subsequent add() calls to the (phase, party) slot, creating it
  /// on first use. O(#slots) on a context switch, O(1) per add.
  void set_context(Phase phase, std::int32_t party);

  void add(CryptoOp op, std::uint64_t delta = 1) {
    if (active_ == kNoSlot) set_context(Phase::kSetup, kOrchestratorParty);
    slots_[active_].tally.v[static_cast<std::size_t>(op)] += delta;
  }
  void add_latency(CryptoOp op, double seconds) {
    hist_[static_cast<std::size_t>(op)].add_seconds(seconds);
  }

  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }
  [[nodiscard]] const std::array<LatencyHistogram, kOpCount>& histograms()
      const {
    return hist_;
  }
  [[nodiscard]] bool empty() const;
  void clear();

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  std::vector<Slot> slots_;
  std::size_t active_ = kNoSlot;
  std::array<LatencyHistogram, kOpCount> hist_;
};

namespace detail {
/// The thread-local sink the instrumentation funnel writes through. Null
/// (the default) means metrics are disabled on this thread. constinit is
/// load-bearing: it guarantees no dynamic initialization, so reads compile
/// to a direct TLS access instead of going through the TLS init wrapper
/// (which GCC's UBSan misdiagnoses as a null-pointer load at -O2).
extern thread_local constinit MetricsBuffer* tl_sink;
}  // namespace detail

[[nodiscard]] inline MetricsBuffer* current_metrics_sink() {
  return detail::tl_sink;
}

/// The one-line instrumentation call for hot paths. With no sink installed
/// this is a thread-local load and an untaken branch.
inline void count_op(CryptoOp op, std::uint64_t delta = 1) {
  if (MetricsBuffer* sink = detail::tl_sink) sink->add(op, delta);
}

[[nodiscard]] inline double metrics_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Counts `op` once and records its wall-clock latency into the op's
/// histogram. Reads the sink once at construction; no clock calls when
/// metrics are disabled.
class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(CryptoOp op)
      : sink_(current_metrics_sink()), op_(op),
        start_(sink_ != nullptr ? metrics_now_seconds() : 0.0) {}
  ~ScopedOpTimer() {
    if (sink_ != nullptr) {
      sink_->add(op_);
      sink_->add_latency(op_, metrics_now_seconds() - start_);
    }
  }
  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  MetricsBuffer* sink_;
  CryptoOp op_;
  double start_;
};

/// RAII installer: makes `buf` the thread's sink (with the given attribution
/// context) and restores the previous sink on destruction. A null buffer is
/// a no-op scope, so call sites need no branching.
class MetricsScope {
 public:
  MetricsScope(MetricsBuffer* buf, Phase phase, std::int32_t party)
      : prev_(detail::tl_sink) {
    if (buf != nullptr) buf->set_context(phase, party);
    detail::tl_sink = buf != nullptr ? buf : prev_;
  }
  ~MetricsScope() { detail::tl_sink = prev_; }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  MetricsBuffer* prev_;
};

/// Makes `buf` this thread's sink until replaced: for a cooperative
/// scheduler that interleaves several parties on one thread, where each
/// party installs its own buffer whenever it resumes. The scheduler's
/// caller brackets the run with a MetricsMute to restore its own sink.
inline void install_metrics_sink(MetricsBuffer* buf) { detail::tl_sink = buf; }

/// RAII mute: removes this thread's sink entirely, restoring it on
/// destruction. MetricsScope cannot express "no sink" (a null buffer keeps
/// the previous one installed so call sites need no branching); the mute is
/// for work whose cost must not be attributed to the current measurement —
/// e.g. building a shared precompute artifact inside one session of the
/// session engine, where counting the build would make that session's
/// counters depend on whether an earlier session already paid for it.
class MetricsMute {
 public:
  MetricsMute() : prev_(detail::tl_sink) { detail::tl_sink = nullptr; }
  ~MetricsMute() { detail::tl_sink = prev_; }
  MetricsMute(const MetricsMute&) = delete;
  MetricsMute& operator=(const MetricsMute&) = delete;

 private:
  MetricsBuffer* prev_;
};

/// Thread-safe accumulation of MetricsBuffers. absorb() is one lock
/// acquisition per buffer; queries snapshot under the same lock. Counter
/// merging is commutative, so totals are schedule-independent; the
/// deterministic absorb order only matters for the exporters' slot order,
/// which is additionally canonicalized by sorting on (phase, party).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Merges and clears the buffer.
  void absorb(MetricsBuffer& buf);
  /// Direct locked increment (tests, non-hot call sites).
  void add(Phase phase, std::int32_t party, CryptoOp op,
           std::uint64_t delta = 1);

  [[nodiscard]] OpTally totals() const;
  [[nodiscard]] OpTally phase_totals(Phase phase) const;
  [[nodiscard]] std::uint64_t total(CryptoOp op) const;
  /// All (phase, party) slots, sorted by (phase, party).
  [[nodiscard]] std::vector<MetricsBuffer::Slot> slots() const;
  [[nodiscard]] LatencyHistogram histogram(CryptoOp op) const;
  [[nodiscard]] bool empty() const;
  void clear();

  /// Metrics JSON document ("ppgr.metrics.v1"). With include_timing the
  /// histograms carry bins and total time (wall-clock, nondeterministic);
  /// without it the output is a pure function of the protocol run and is
  /// bit-identical across thread counts (the golden-file mode).
  [[nodiscard]] std::string to_json(bool include_timing) const;

 private:
  mutable std::mutex mu_;
  std::vector<MetricsBuffer::Slot> slots_;
  std::array<LatencyHistogram, kOpCount> hist_;
};

class CommRegistry;  // runtime/comm.h (which includes this header)

/// Plain-text per-phase report: wall seconds per phase (from depth-1 spans,
/// when a recorder is supplied) and the key operation counters; with a
/// CommRegistry, also the per-phase communication summary and the per-link
/// breakdown with simulated utilization. For terminals instead of tooling.
[[nodiscard]] std::string phase_report(const MetricsRegistry& reg,
                                       const SpanRecorder* spans,
                                       const CommRegistry* comm = nullptr);

}  // namespace ppgr::runtime

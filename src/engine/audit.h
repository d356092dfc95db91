// Live model-conformance audit (DESIGN.md Sec. 8b "Forensics & conformance
// audit").
//
// The repo carries two independent descriptions of every protocol run: the
// *measured* one (runtime::MetricsRegistry, filled by the run itself, and
// the runtime::CommRegistry report computed from the run's transfer log)
// and the *modeled* one (benchcore's closed forms — the Sec. VI analysis
// made exact). ConformanceAuditor wires the two together while a session
// runs: it is a core::AuditSink the frameworks call at every phase boundary
// (op counters) and at run end (op counters, rounds and comm), comparing
// the measurements against what the model says they must be and emitting a
// typed AuditFinding for every divergence.
//
// Expectations per framework:
//  - HE: phase 1 plus closed forms. At construction the auditor runs phase 1
//    alone (core::phase1_betas) on an identically-seeded duplicate of the
//    session's stream, which yields every β exactly. From those:
//    benchcore::model_he_ops gives the per-phase op tallies,
//    benchcore::beta_ranks the submitted set, and
//    benchcore::model_he_schedule the round count. Comm bytes come from
//    benchcore::model_he_comm on the real group.
//  - SS: phase-1 op counts in closed form (benchcore::phase1_ops); comm is
//    the shared phase-1/phase-3 codec model. The in-process sort (phase 2)
//    exports its own cost model and is not re-checked here.
//
// Every audited quantity is a deterministic count, so every check is exact
// — except under an installed fault plan, where frames, retransmits and
// drops legitimately change wire bytes: the byte-exact comm check is then
// skipped and divergence surfaces through op tallies, the submitted set,
// and the run_faulted/run_degraded incompleteness findings instead (that is
// the tamper-detection path the chaos tests pin).
//
// Strictly observation-only: the auditor never mutates protocol state, and
// a session with `audit` off takes no branch through this code.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/spec.h"
#include "group/group.h"
#include "mpz/rng.h"
#include "runtime/comm.h"
#include "runtime/metrics.h"

namespace ppgr::engine {

/// What an AuditFinding is about.
enum class AuditCheckKind : std::uint8_t {
  kPhaseOps = 0,   // per-phase crypto-op tally vs benchcore::model_he_ops
  kComm,           // per-(phase, src, dst) messages/bytes vs the comm model
  kRounds,         // transport round count vs the message schedule
  kSubmissions,    // submitted top-k set vs the β ranking
  kIncomplete,     // the run degraded or faulted: expectations void
};
[[nodiscard]] const char* to_string(AuditCheckKind kind);

/// One confirmed divergence between the measured run and the model.
struct AuditFinding {
  AuditCheckKind kind = AuditCheckKind::kPhaseOps;
  runtime::Phase phase = runtime::Phase::kSetup;
  std::string key;               // op name / "src->dst" link / check label
  std::uint64_t expected = 0;
  std::uint64_t measured = 0;
  bool exact = true;             // every count check is; kept for the schema
  std::string detail;            // human-readable one-liner
};

/// The audit outcome of one session ("ppgr.audit.v1" via to_json()).
/// Deterministic: a pure function of the request and its fault schedule.
struct AuditReport {
  bool ss = false;               // audited framework kind
  std::size_t checkpoints = 0;   // phase_complete + run_complete calls seen
  std::size_t checks = 0;        // individual comparisons evaluated
  bool incomplete = false;       // run_degraded / run_faulted fired
  std::vector<AuditFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  /// "clean" | "drift" | "incomplete" (incompleteness dominates drift).
  [[nodiscard]] const char* verdict() const;
  [[nodiscard]] std::string to_json() const;
};

/// Live auditor for one session; attach via core::FrameworkConfig::audit.
/// Construction runs the HE session's phase 1 (n dot products on the real
/// field) to fix its β values.
class ConformanceAuditor final : public core::AuditSink {
 public:
  struct Config {
    bool ss = false;             // SS baseline instead of the HE protocol
    core::ProblemSpec spec;
    std::size_t n = 0;
    std::size_t k = 1;
    /// The group the *real* session runs on (sizes the comm model and the
    /// message schedule). Required for HE; must outlive the auditor.
    const group::Group* group = nullptr;
    const mpz::FpCtx* dot_field = nullptr;
    std::size_t dot_s = 8;
    /// True when the session runs under a fault plan: framing and
    /// retransmits make wire bytes legitimately diverge from the fault-free
    /// model, so the byte-exact comm check is skipped.
    bool fault_plan = false;
  };

  /// `rng` must be an identically-seeded duplicate of the stream the real
  /// session consumes (the engine draws the session's family stream twice).
  ConformanceAuditor(Config cfg, const core::AttrVec& v0,
                     const core::AttrVec& w,
                     const std::vector<core::AttrVec>& infos,
                     mpz::ChaChaRng rng);

  // core::AuditSink --------------------------------------------------------
  void phase_complete(runtime::Phase phase,
                      const runtime::MetricsRegistry* metrics) override;
  void run_complete(const std::vector<std::size_t>& submitted_ids,
                    const runtime::MetricsRegistry* metrics,
                    const runtime::CommRegistry* comm,
                    std::size_t rounds) override;
  void run_degraded(const std::vector<std::size_t>& dropped) override;
  void run_faulted(runtime::Phase phase) override;

  [[nodiscard]] const AuditReport& report() const { return report_; }
  /// Moves the report out (the auditor is spent afterwards).
  [[nodiscard]] std::shared_ptr<const AuditReport> take_report() {
    return std::make_shared<const AuditReport>(std::move(report_));
  }

 private:
  void check_count(AuditCheckKind kind, runtime::Phase phase,
                   const std::string& key, std::uint64_t expected,
                   std::uint64_t measured, const std::string& what);

  Config cfg_;
  AuditReport report_;
  /// Per-phase expected op tallies: model_he_ops on the session's β values,
  /// or the SS closed form (phase 1 only; other phases stay unchecked).
  std::array<runtime::OpTally, runtime::kPhaseCount> expected_ops_{};
  std::array<bool, runtime::kPhaseCount> check_ops_{};
  std::vector<std::size_t> expected_submitted_;
  bool check_submitted_ = false;
  std::size_t expected_rounds_ = 0;
  bool check_rounds_ = false;
};

}  // namespace ppgr::engine

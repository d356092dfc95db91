// Multi-session ranking engine.
//
// The ROADMAP north-star is a service, not a one-shot binary: many
// independent ranking sessions in flight at once, amortizing crypto setup
// across them. SessionEngine is that service core:
//
//   submit(RankingRequest) --> FIFO admission queue --> max_in_flight
//   driver threads, each executing one session end-to-end over the ONE
//   shared runtime::ThreadPool --> take(session_id) / run_batch()
//
// Determinism under load — the engine extends the repo's determinism
// invariant from "any thread count" to "any concurrent load": a session's
// randomness is derived from (engine seed, session id) via one
// mpz::StreamFamily draw, the one shared precompute artifact (a group's
// generator table) is a pure function of its cache key, and nothing a
// session computes depends on what else is in flight. A given request
// therefore produces bit-identical ranks, betas, traces and deterministic
// metric exports regardless of max_in_flight, parallelism, or whether the
// PrecomputeCache was cold or warm.
//
// Cache hit/miss counters flow into the engine's runtime::MetricsRegistry
// (kPrecomputeHit / kPrecomputeMiss) — never into a session's own registry,
// which must not see history-dependent counts.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.h"
#include "core/ss_framework.h"
#include "engine/audit.h"
#include "engine/precompute.h"
#include "runtime/flightrec.h"
#include "runtime/telemetry.h"
#include "runtime/thread_pool.h"

namespace ppgr::engine {

struct EngineSnapshot;  // engine/introspect.h

/// Which framework serves the session: the paper's HE protocol or the
/// secret-sharing baseline (Sec. VII).
enum class FrameworkKind : std::uint8_t { kHe = 0, kSs = 1 };
[[nodiscard]] const char* to_string(FrameworkKind kind);

/// One self-contained ranking instance: spec + per-party inputs.
struct RankingRequest {
  std::uint64_t session_id = 0;  // caller-chosen, unique per engine
  FrameworkKind framework = FrameworkKind::kHe;
  group::GroupId group = group::GroupId::kDlTest256;
  core::ProblemSpec spec;
  std::size_t k = 1;                  // top-k
  core::AttrVec v0;                   // initiator criterion
  core::AttrVec w;                    // initiator weights
  std::vector<core::AttrVec> infos;   // one per participant; n = size()
  /// kSs only: collusion threshold t with n >= 2t+1; 0 = largest valid t.
  std::size_t ss_threshold = 0;
  /// Deterministic fault schedule for this session (see net/fault.h);
  /// default-constructed = no faults, zero overhead, byte-identical outputs.
  net::FaultPlanConfig fault_plan{};
  /// Forwarded to FrameworkConfig::degrade_on_dropout.
  bool degrade_on_dropout = false;
};

/// How a session ended: kOk = ranks delivered (possibly over a degraded
/// survivor set); kFault = the run aborted with a typed core::ProtocolFault,
/// recorded in SessionResult::fault. Faulted sessions are normal results —
/// they never tear down the engine or poison other sessions.
enum class SessionOutcome : std::uint8_t { kOk = 0, kFault = 1 };
[[nodiscard]] const char* to_string(SessionOutcome outcome);

/// Typed rejection reasons: invalid sessions must fail cleanly at submit(),
/// never abort a driver thread.
enum class EngineErrorCode : std::uint8_t {
  kInvalidSpec,       // ProblemSpec::validate failed (e.g. t > m), or the
                      // beta range exceeds the phase-1 dot-product field
  kInvalidTopology,   // n < 2, or k outside [1, n]
  kInvalidInput,      // attribute/weight vector of the wrong shape or range
  kInvalidThreshold,  // kSs with t < 1 or n < 2t+1
  kDuplicateSession,  // session id already submitted to this engine
  kUnknownSession,    // take() of an id never submitted
};
[[nodiscard]] const char* to_string(EngineErrorCode code);

class EngineError : public std::runtime_error {
 public:
  EngineError(EngineErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] EngineErrorCode code() const { return code_; }

 private:
  EngineErrorCode code_;
};

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Cache interaction counts. Engine-wide totals are deterministic
/// (misses == distinct groups); per-session attribution of a shared build
/// is schedule-dependent and so never exported.
struct PrecomputeStats {
  CacheCounters generator_table;
  /// Always zero: the cache holds generator tables only (DESIGN.md §6).
  /// These two stay because perfbench's report still reads them.
  CacheCounters key_table;
  CacheCounters zero_pool;

  [[nodiscard]] CacheCounters total() const { return generator_table; }
  PrecomputeStats& operator+=(const PrecomputeStats& o) {
    generator_table.hits += o.generator_table.hits;
    generator_table.misses += o.generator_table.misses;
    return *this;
  }
};

struct SessionResult {
  std::uint64_t id = 0;
  FrameworkKind framework = FrameworkKind::kHe;
  /// Exactly one of these is populated, per `framework`; both expose the
  /// full observability payload (metrics/spans/comm/trace) of the run.
  core::FrameworkResult he;
  core::SsFrameworkResult ss;

  [[nodiscard]] const std::vector<std::size_t>& ranks() const {
    return framework == FrameworkKind::kHe ? he.ranks : ss.ranks;
  }
  [[nodiscard]] const std::vector<std::size_t>& submitted_ids() const {
    return framework == FrameworkKind::kHe ? he.submitted_ids
                                           : ss.submitted_ids;
  }
  [[nodiscard]] const runtime::TraceRecorder& trace() const {
    return framework == FrameworkKind::kHe ? he.trace : ss.trace;
  }
  [[nodiscard]] const runtime::MetricsRegistry* metrics() const {
    return framework == FrameworkKind::kHe ? he.metrics.get()
                                           : ss.metrics.get();
  }
  [[nodiscard]] const runtime::SpanRecorder* spans() const {
    return framework == FrameworkKind::kHe ? he.spans.get() : ss.spans.get();
  }
  [[nodiscard]] const runtime::CommRegistry* comm() const {
    return framework == FrameworkKind::kHe ? he.comm.get() : ss.comm.get();
  }

  double wall_seconds = 0.0;   // execution start -> completion (noisy)
  double setup_seconds = 0.0;  // time inside the generator-table fetch (noisy)
  PrecomputeStats precompute;  // this session's cache interactions

  /// Present iff EngineConfig::flight_events > 0: the session's forensic
  /// flight recording (phase/round/send/retry/fault-ladder events).
  std::shared_ptr<runtime::FlightRecorder> flight;
  /// Present iff EngineConfig::audit (and metrics): the conformance-audit
  /// report of this session ("ppgr.audit.v1").
  std::shared_ptr<const AuditReport> audit;

  /// kFault: the run aborted with a typed ProtocolFault; `fault` holds its
  /// phase/round/party/cause and `fault_what` the full message ("session
  /// <id>: ..."). he/ss are then empty — the run's registries unwound with
  /// the stack — but `fault_report` preserves the router's fault report
  /// (counters + injection log) for the post-mortem bundle.
  SessionOutcome outcome = SessionOutcome::kOk;
  std::optional<core::FaultInfo> fault;
  std::string fault_what;
  std::optional<net::FaultReport> fault_report;
};

struct EngineConfig {
  std::uint64_t seed = 1;
  /// Admission cap: at most this many sessions execute concurrently;
  /// further submissions queue FIFO. Also the driver thread count.
  std::size_t max_in_flight = 4;
  /// Concurrency of the shared runtime::ThreadPool every session fans its
  /// parallel protocol steps onto (0 = hardware concurrency, 1 = each
  /// driver runs its session inline). Never affects outputs.
  std::size_t parallelism = 1;
  /// Per-session observability (FrameworkConfig::metrics).
  bool metrics = true;
  /// Generator-table cache to share; null = the process-wide one. A fresh
  /// PrecomputeCache makes the engine's cache private. Outputs are
  /// bit-identical either way: the cache only moves where setup time is
  /// spent.
  PrecomputeCache* cache = nullptr;
  /// Enables the rollup's live-telemetry sections: per-kind queue-wait /
  /// run-duration quantiles and the health summary. Off by default — those
  /// values are wall-clock-derived and so nondeterministic, and the golden
  /// rollup (tests/golden/engine_small.json) pins the off state, which stays
  /// byte-identical to the pre-telemetry schema. Live snapshots
  /// (engine/introspect.h) work regardless of this flag.
  bool telemetry = false;
  /// Live conformance audit (engine/audit.h): every session runs with a
  /// ConformanceAuditor attached (requires `metrics`; ignored without it).
  /// The rollup gains a deterministic per-session "audit" entry, and audit
  /// drift degrades engine health. Off by default: the golden rollup pins
  /// the off state, and sessions take zero audit branches.
  bool audit = false;
  /// Ring capacity of the per-session forensic flight recorder
  /// (runtime/flightrec.h); 0 (default) = no recorder. Observation-only:
  /// every deterministic export is byte-identical at any value.
  std::size_t flight_events = 0;
};

class SessionEngine {
 public:
  explicit SessionEngine(EngineConfig cfg);
  /// Stops accepting work, discards queued-but-unstarted sessions and joins
  /// the drivers (in-flight sessions finish first).
  ~SessionEngine();
  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  /// Validates and enqueues; returns the session id. Throws EngineError on
  /// an invalid request or duplicate id — nothing is enqueued then.
  std::uint64_t submit(RankingRequest req);
  /// Blocks until the session completes, then removes and returns its
  /// result. Throws EngineError(kUnknownSession) for never-submitted ids;
  /// rethrows the session's exception if execution failed.
  [[nodiscard]] SessionResult take(std::uint64_t session_id);
  /// submit() all, then take() in request order.
  [[nodiscard]] std::vector<SessionResult> run_batch(
      std::vector<RankingRequest> requests);
  /// Blocks until the queue is empty and nothing is executing.
  void drain();

  /// High-water mark of concurrently executing sessions (<= max_in_flight
  /// by construction; the admission-cap test asserts exactly this).
  [[nodiscard]] std::size_t peak_in_flight() const;
  /// Engine-wide cache interaction totals (deterministic).
  [[nodiscard]] PrecomputeStats precompute_stats() const;
  /// Engine-level registry: kPrecomputeHit / kPrecomputeMiss.
  [[nodiscard]] const runtime::MetricsRegistry& metrics() const {
    return metrics_;
  }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }

  /// Rolled-up deterministic export ("ppgr.engine.v1"): per-session ranks,
  /// submissions, trace totals and op counters keyed by session id, plus
  /// the engine's cache counters. A pure function of the completed request
  /// set and the engine seed — bit-identical at any parallelism or load
  /// (the golden tests/golden/engine_small.json pins it).
  [[nodiscard]] std::string rollup_json() const;

 private:
  /// The live-telemetry observer (engine/introspect.h): reads queue / live /
  /// completion state under mu_ and the per-session progress cells lock-free,
  /// and bumps the sticky stall counters of sessions it judges stalled.
  friend EngineSnapshot snapshot(SessionEngine& engine,
                                 double stall_deadline_s);

  struct Summary {
    FrameworkKind framework = FrameworkKind::kHe;
    std::string group_name;
    std::size_t n = 0;
    std::size_t k = 0;
    std::size_t beta_bits = 0;
    std::vector<std::size_t> ranks;
    std::vector<std::size_t> submitted_ids;
    std::size_t trace_messages = 0;
    std::size_t trace_rounds = 0;
    std::uint64_t trace_bytes = 0;
    bool has_ops = false;
    runtime::OpTally ops;
    SessionOutcome outcome = SessionOutcome::kOk;
    std::optional<core::FaultInfo> fault;
    double queue_wait_s = 0.0;   // submit() -> driver claim (noisy)
    double run_s = 0.0;          // driver claim -> completion (noisy)
    std::uint64_t stalls = 0;    // watchdog observations while running
    // Audit outcome (EngineConfig::audit; deterministic counts).
    bool has_audit = false;
    std::size_t audit_checks = 0;
    std::size_t audit_findings = 0;
    std::string audit_verdict;
  };

  /// A submitted-but-unstarted session plus its admission timestamp (the
  /// queue-wait clock starts at submit()).
  struct Queued {
    RankingRequest req;
    double submit_s = 0.0;
  };

  /// Live view of one executing session, shared between the driver thread
  /// that owns it and observer threads (engine/introspect.h). The map entry
  /// exists exactly while the session executes: created under mu_ when a
  /// driver claims the request, erased under mu_ when the result lands. The
  /// progress cell and stall counter are atomics, so observers read them
  /// without ever blocking protocol work.
  struct LiveSession {
    std::uint64_t id = 0;
    FrameworkKind framework = FrameworkKind::kHe;
    std::size_t n = 0;
    std::size_t k = 0;
    double submit_s = 0.0;  // submit() time (steady-clock seconds)
    double start_s = 0.0;   // driver claim time
    runtime::ProgressCell progress;
    std::atomic<std::uint64_t> stalls{0};  // sticky watchdog flag count
  };

  void validate(const RankingRequest& req) const;
  void driver_loop();
  [[nodiscard]] SessionResult execute(const RankingRequest& req,
                                      runtime::ProgressCell* progress);
  [[nodiscard]] const group::Group& group_instance(group::GroupId id);

  EngineConfig cfg_;
  PrecomputeCache& cache_;
  mpz::ChaChaRng root_;
  mpz::StreamFamily session_family_;  // per-session protocol randomness
  runtime::ThreadPool pool_;
  runtime::MetricsRegistry metrics_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Queued> queue_;
  std::set<std::uint64_t> known_ids_;
  std::map<std::uint64_t, SessionResult> done_;
  std::map<std::uint64_t, std::exception_ptr> failed_;
  std::map<std::uint64_t, Summary> summaries_;
  std::map<std::uint64_t, std::unique_ptr<LiveSession>> live_;
  /// Per-kind (FrameworkKind index) latency histograms over completed
  /// sessions — the live snapshot's queue-wait / run-duration view.
  std::array<runtime::LatencyHistogram, 2> queue_wait_hist_{};
  std::array<runtime::LatencyHistogram, 2> run_hist_{};
  double born_s_ = runtime::metrics_now_seconds();  // engine start (uptime)
  PrecomputeStats totals_;
  std::size_t active_ = 0;
  std::size_t peak_ = 0;
  std::size_t faulted_done_ = 0;      // kFault results + driver exceptions
  std::size_t audit_drift_done_ = 0;  // completed sessions with findings
  std::uint64_t stalls_total_ = 0;    // stall flags of *completed* sessions
  bool stop_ = false;
  /// Latches true once any submitted request carries a fault plan (or
  /// degrade flag); only then does rollup_json() emit the per-outcome counts
  /// and per-session outcome/fault fields — fault-free engines export
  /// byte-identically to the pre-fault-layer golden.
  bool fault_aware_ = false;

  std::mutex group_mu_;
  std::map<group::GroupId, std::unique_ptr<group::Group>> groups_;

  std::vector<std::thread> drivers_;  // last member: joins before teardown
};

}  // namespace ppgr::engine

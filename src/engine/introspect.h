// Live engine introspection: snapshots, health, exposition and trace
// stitching for a running SessionEngine.
//
// The deterministic exports (engine rollup, metrics, trace, comm) answer
// "what did this run compute"; this layer answers "what is the service doing
// *right now*". Its outputs are wall-clock observations and therefore
// explicitly nondeterministic — the invariant the tests pin instead is
// non-perturbation: attaching a sampler or taking snapshots concurrently
// with a running engine leaves every deterministic export byte-identical
// (tests/telemetry_test.cpp).
//
// Pieces:
//  - snapshot(engine, stall_deadline_s): one consistent observation.
//    Queue / live / completion state is copied under the engine mutex (which
//    protocol threads do not hold while executing — drivers take it only to
//    claim work and land results, so sampling never blocks crypto); each
//    live session's (phase, round, last-advance) comes from its lock-free
//    runtime::ProgressCell, fed by the session router's round-progress hook.
//    The call is also the stall watchdog: a live session whose progress cell
//    has not advanced within stall_deadline_s is flagged stalled, its sticky
//    stall counter bumped, and the snapshot's health degraded to kStalled.
//  - EngineSnapshot::to_jsonl() / to_openmetrics(): the "ppgr.telemetry.v1"
//    JSONL line (its cache object is CacheCounters::append_json, shared
//    with the rollup and the session log) and the OpenMetrics exposition
//    page (validated by scripts/check_openmetrics.py in CI).
//  - EngineSampler: binds a runtime::TelemetrySampler to an engine — a
//    background thread snapshotting every period into a JSONL stream and an
//    atomically-replaced OpenMetrics file.
//  - stitched_trace_json(): merges the per-session span streams of completed
//    results onto ONE wall-clock Chrome-trace timeline (pid = session id,
//    tid = party lane) — all sessions share the steady metrics clock, so
//    cross-session overlap renders faithfully in Perfetto / about:tracing.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "runtime/telemetry.h"

namespace ppgr::engine {

/// Telemetry view of one in-flight session.
struct SessionTelemetry {
  std::uint64_t id = 0;
  FrameworkKind framework = FrameworkKind::kHe;
  std::size_t n = 0;
  std::size_t k = 0;
  runtime::Phase phase = runtime::Phase::kSetup;
  std::size_t round = 0;
  double queued_for_s = 0.0;     // submit() -> driver claim
  double running_for_s = 0.0;    // driver claim -> snapshot
  double since_advance_s = 0.0;  // last phase/round advance -> snapshot
  bool stalled = false;          // since_advance_s >= stall deadline
  std::uint64_t stalls = 0;      // sticky: total times flagged stalled
};

/// Completed-session latency histograms for one FrameworkKind.
struct KindLatency {
  runtime::LatencyHistogram queue_wait;
  runtime::LatencyHistogram run_duration;
};

/// One consistent observation of a SessionEngine in motion.
struct EngineSnapshot {
  double uptime_s = 0.0;          // engine construction -> snapshot
  double stall_deadline_s = 0.0;  // the watchdog deadline this used
  std::size_t queued = 0;         // admitted, not yet claimed by a driver
  std::size_t in_flight = 0;      // executing right now
  std::size_t completed = 0;      // results landed (ok or fault)
  std::size_t faulted = 0;        // kFault results + driver exceptions
  std::size_t audit_drift = 0;    // completed sessions with audit findings
  std::uint64_t cache_hits = 0;   // engine precompute cache, all components
  std::uint64_t cache_misses = 0;
  std::uint64_t stalls_total = 0;  // completed + live sticky stall flags
  runtime::HealthState health = runtime::HealthState::kOk;
  std::array<KindLatency, 2> latency{};  // indexed by FrameworkKind
  std::vector<SessionTelemetry> sessions;  // in-flight only, by id

  /// One "ppgr.telemetry.v1" JSON object, single line, no trailing newline.
  [[nodiscard]] std::string to_jsonl() const;
  /// Full OpenMetrics text exposition page (ends with "# EOF").
  [[nodiscard]] std::string to_openmetrics() const;
};

/// Takes a snapshot; also the stall watchdog (see the header comment).
/// `stall_deadline_s` <= 0 flags every in-flight session — useful in tests
/// that must observe a stall without waiting out a real deadline.
[[nodiscard]] EngineSnapshot snapshot(SessionEngine& engine,
                                      double stall_deadline_s);

/// Engine-wide Chrome trace: every result's span stream on one wall-clock
/// timeline, pid = session id (one process group per session), tid = party
/// (0 = orchestrator, p+1 = party p). Null span recorders (metrics off,
/// faulted runs) are skipped. Timestamps are microseconds relative to the
/// earliest event across all sessions.
[[nodiscard]] std::string stitched_trace_json(
    const std::vector<const SessionResult*>& results);

/// A runtime::TelemetrySampler bound to an engine: snapshots every period
/// (and once on stop), appending JSONL lines and atomically replacing the
/// OpenMetrics exposition file.
class EngineSampler {
 public:
  struct Config {
    double period_s = 0.1;
    double stall_deadline_s = 5.0;
    std::string jsonl_path;        // "" = no JSONL output
    std::string openmetrics_path;  // "" = no exposition file
  };

  /// The engine must outlive the sampler.
  EngineSampler(SessionEngine& engine, Config cfg);

  void start() { sampler_.start(); }
  void stop() { sampler_.stop(); }
  [[nodiscard]] std::uint64_t samples() const { return sampler_.samples(); }

 private:
  runtime::TelemetrySampler sampler_;
};

}  // namespace ppgr::engine

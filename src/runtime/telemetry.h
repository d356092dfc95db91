// Live telemetry primitives: the runtime-level building blocks the engine's
// introspection layer (src/engine/introspect.h) composes into a live view of
// a running service.
//
// Everything in this header is deliberately *outside* the deterministic
// export paths (metrics.h, span.h, comm.h): a telemetry snapshot is a
// wall-clock observation of a system in motion — which sessions happen to be
// in flight, how long since a round advanced, how many samples the sampler
// took — and is therefore explicitly NOT reproducible run to run. The
// invariant the tests pin instead is non-perturbation: with telemetry
// attached, every deterministic export (metrics, trace, comm, engine rollup)
// stays byte-identical to a run without it.
//
// Pieces:
//  - HealthState: the typed ok/degraded/stalled verdict of the watchdog;
//  - ProgressCell: the round-progress hook. net::Router advances it at
//    every phase change and round barrier; a sampler thread can read it
//    while the protocol thread writes (relaxed atomics — a reader sees a
//    recent, not-necessarily-latest, coherent (phase, round, when) triple);
//  - OpenMetricsBuilder: renders the OpenMetrics text exposition format
//    (Prometheus scrape format with `# EOF` terminator);
//  - TelemetrySampler: a background thread that calls a produce callback
//    every period, appending a JSONL line per sample and atomically
//    rewriting an OpenMetrics exposition file (write-tmp-then-rename, so a
//    scraper never reads a torn file). Clean start/stop; stop() takes one
//    final sample so a drained engine's last state is always on disk.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "runtime/metrics.h"

namespace ppgr::runtime {

/// Watchdog verdict, ordered by severity (max() of two states is the worse).
enum class HealthState : std::uint8_t { kOk = 0, kDegraded = 1, kStalled = 2 };
[[nodiscard]] const char* to_string(HealthState state);
[[nodiscard]] inline HealthState worse(HealthState a, HealthState b) {
  return a > b ? a : b;
}

/// Lock-free single-writer/many-reader progress cell. The writer is the
/// session's orchestrator thread (via the Router hook); readers are sampler
/// / watchdog threads. (phase, round) are packed into one atomic word so a
/// reader never sees a phase from one round paired with another round's
/// index; the advance timestamp is a separate relaxed atomic — the watchdog
/// tolerates it being one advance behind.
class ProgressCell {
 public:
  /// Called by the writer after each advance is published, on the writer's
  /// thread. A test seam (EngineConfig::on_progress): a hook that blocks
  /// holds the session at that step, visible to readers.
  using Hook = std::function<void(Phase phase, std::size_t round)>;

  ProgressCell() : state_(0), last_advance_s_(metrics_now_seconds()) {}
  /// Set before the writer starts; null = no hook.
  void set_hook(Hook hook) { hook_ = std::move(hook); }

  void advance(Phase phase, std::size_t round) {
    state_.store(pack(phase, round), std::memory_order_relaxed);
    last_advance_s_.store(metrics_now_seconds(), std::memory_order_relaxed);
    if (hook_) hook_(phase, round);
  }

  struct View {
    Phase phase = Phase::kSetup;
    std::size_t round = 0;
    double last_advance_s = 0.0;  // steady-clock seconds (metrics_now_seconds)
  };
  [[nodiscard]] View view() const {
    const std::uint64_t s = state_.load(std::memory_order_relaxed);
    return View{static_cast<Phase>(s >> 56),
                static_cast<std::size_t>(s & ((std::uint64_t{1} << 56) - 1)),
                last_advance_s_.load(std::memory_order_relaxed)};
  }

 private:
  static std::uint64_t pack(Phase phase, std::size_t round) {
    return (static_cast<std::uint64_t>(phase) << 56) |
           (static_cast<std::uint64_t>(round) &
            ((std::uint64_t{1} << 56) - 1));
  }
  std::atomic<std::uint64_t> state_;
  std::atomic<double> last_advance_s_;
  Hook hook_;
};

// latency_quantile_seconds (the binade p50/p99 estimator) lives in
// runtime/histogram.h, next to the histogram it reads.

/// Builder for the OpenMetrics text exposition format. Usage:
///
///   OpenMetricsBuilder om;
///   om.family("ppgr_engine_sessions", "gauge", "Sessions by state");
///   om.sample("ppgr_engine_sessions", "state=\"queued\"", 3);
///   std::string page = om.render();   // ends with "# EOF\n"
///
/// The builder escapes nothing: metric names and label strings are caller-
/// supplied literals (scripts/check_openmetrics.py validates the output in
/// CI). Histogram families emit their samples via sample() with the
/// conventional _bucket/_sum/_count suffixes.
class OpenMetricsBuilder {
 public:
  /// Starts a metric family: emits `# TYPE` and (when help is nonempty)
  /// `# HELP` lines. `type` is one of "gauge", "counter", "histogram".
  void family(const std::string& name, const char* type,
              const std::string& help);
  /// One sample line: `name{labels} value` (or `name value` without labels).
  void sample(const std::string& name, const std::string& labels,
              double value);
  void sample(const std::string& name, const std::string& labels,
              std::uint64_t value);
  /// Emits a LatencyHistogram as a conventional OpenMetrics histogram:
  /// cumulative `_bucket{le="..."}` lines over the occupied bins, the
  /// `le="+Inf"` bucket, `_sum` and `_count`. `labels` (may be empty) are
  /// added to every line.
  void histogram(const std::string& name, const std::string& labels,
                 const LatencyHistogram& hist);
  /// The full page, terminated with the mandatory `# EOF` line.
  [[nodiscard]] std::string render() const { return body_ + "# EOF\n"; }

 private:
  std::string body_;
};

/// One sampler observation: the JSONL line (without trailing newline) and
/// the full OpenMetrics page. Either may be empty (that output is skipped).
struct TelemetrySample {
  std::string jsonl;
  std::string openmetrics;
};

/// Background sampling thread. Calls `produce` every `period_s` seconds
/// (and once more on stop), appending sample.jsonl to `jsonl_path` and
/// atomically replacing `openmetrics_path` with sample.openmetrics.
/// The produce callback runs on the sampler thread: it must be safe to call
/// concurrently with the system it observes (the engine snapshot is).
class TelemetrySampler {
 public:
  struct Config {
    double period_s = 0.1;
    std::string jsonl_path;        // "" = no JSONL output
    std::string openmetrics_path;  // "" = no exposition file
  };

  TelemetrySampler(Config cfg, std::function<TelemetrySample()> produce);
  /// Joins the thread (taking the final sample) if still running.
  ~TelemetrySampler();
  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  /// Starts the background thread; throws std::logic_error if already
  /// started and std::runtime_error if an output path cannot be opened.
  void start();
  /// Stops the thread: takes one final sample, flushes, joins. Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  void loop();
  void take_sample();

  Config cfg_;
  std::function<TelemetrySample()> produce_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool started_ = false;
  bool joined_ = false;
  std::atomic<std::uint64_t> samples_{0};
  std::thread thread_;
};

}  // namespace ppgr::runtime

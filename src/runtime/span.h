// Hierarchical phase-span tracing: framework → phase → protocol step →
// party task.
//
// Spans are recorded as begin/end event pairs. Inside a parallel region
// every task writes into its own SpanBuffer (unsynchronized) and the
// party that forked the tasks absorbs the buffers in deterministic
// task-index order after the fork-join barrier — so the event *stream*
// (names, nesting, phases, parties) is bit-identical for every
// --parallelism value. Wall-clock timestamps ride along for the timing
// export but are excluded from the deterministic export mode.
//
// Exporter: chrome_trace_json() emits Chrome trace-event JSON ("X" complete
// events, one lane per party) loadable in about:tracing / Perfetto. In
// deterministic mode timestamps are event-stream indices (µs ticks), which
// both makes the file bit-identical across thread counts and preserves the
// nesting exactly; in timing mode timestamps are real microseconds (note
// that at parallelism > 1 two tasks of the same party can genuinely
// overlap, which renders as stacked slices in the same lane).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/metrics.h"

namespace ppgr::runtime {

struct SpanEvent {
  bool begin = true;
  std::uint32_t depth = 0;     // nesting depth of the span this event opens/closes
  Phase phase = Phase::kSetup;
  std::int32_t party = kOrchestratorParty;
  const char* name = "";       // static-lifetime literal
  std::uint64_t index = 0;     // optional disambiguator (hop number, ...)
  double t_wall = 0.0;         // steady-clock seconds
};

/// Destination for span events. Two implementations: SpanBuffer (per-task
/// staging) and SpanRecorder (the shared, locked stream).
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void push(SpanEvent ev) = 0;
};

/// Per-task, unsynchronized staging area. Events absorbed into a
/// SpanRecorder are re-based onto the recorder's current depth, so task
/// spans nest under the forking party's open step span.
class SpanBuffer final : public SpanSink {
 public:
  void push(SpanEvent ev) override;

  [[nodiscard]] const std::vector<SpanEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  void clear();

 private:
  std::vector<SpanEvent> events_;
  std::uint32_t depth_ = 0;
};

/// RAII span: pushes a begin event on construction and the matching end
/// event on destruction. A null sink makes the scope a no-op, so call sites
/// need no branching on whether tracing is enabled.
class SpanScope {
 public:
  SpanScope(SpanSink* sink, const char* name, Phase phase, std::int32_t party,
            std::uint64_t index = 0)
      : sink_(sink), name_(name), phase_(phase), party_(party), index_(index) {
    if (sink_ != nullptr)
      sink_->push(SpanEvent{.begin = true, .phase = phase_, .party = party_,
                            .name = name_, .index = index_,
                            .t_wall = metrics_now_seconds()});
  }
  ~SpanScope() {
    if (sink_ != nullptr)
      sink_->push(SpanEvent{.begin = false, .phase = phase_, .party = party_,
                            .name = name_, .index = index_,
                            .t_wall = metrics_now_seconds()});
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanSink* sink_;
  const char* name_;
  Phase phase_;
  std::int32_t party_;
  std::uint64_t index_;
};

/// The shared span stream. Direct push() calls (phase and step spans)
/// and absorb() (task buffers) are serialized by one mutex; reads are
/// unsynchronized and expect the run to have finished, exactly like
/// TraceRecorder::transfers().
class SpanRecorder final : public SpanSink {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void push(SpanEvent ev) override;
  /// Appends a task buffer's events (re-based onto the current depth) and
  /// clears the buffer. One lock acquisition per buffer.
  void absorb(SpanBuffer& buf);

  [[nodiscard]] const std::vector<SpanEvent>& events() const {
    return events_;
  }

  /// Total wall seconds of depth-1 spans (the phases) per Phase value —
  /// the per-phase wall-clock breakdown of the run.
  [[nodiscard]] std::array<double, kPhaseCount> phase_wall_seconds() const;

  /// Chrome trace-event JSON; see the header comment for the two modes.
  [[nodiscard]] std::string chrome_trace_json(bool deterministic) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanEvent> events_;
  std::uint32_t depth_ = 0;
};

}  // namespace ppgr::runtime

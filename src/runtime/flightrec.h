// Forensic flight recorder: a bounded ring buffer of typed protocol events.
//
// When a session faults or stalls today, the typed ProtocolFault says
// *where* it died, not *what led up to it*. The flight recorder keeps the
// recent event history — phase/round transitions, channel sends, the fault
// ladder's retry/backoff/give-up decisions, degradation steps, faults and
// audit verdicts — in a fixed-capacity ring that is cheap enough to leave
// always-on (<1% of session wall, gated by bench/engine_throughput) and is
// dumped only on fault/stall or on demand.
//
// Threading: the writer is the session's orchestrator/driver thread (the
// same serial choke point that owns net::Router), so record() is effectively
// single-writer. Dumps, however, can come from observer threads (the stall
// watchdog, an operator snapshot) while the session is still running, so the
// ring is guarded by a mutex — one uncontended lock per event, far below the
// cost of the crypto work each event describes.
//
// Observation-only contract: nothing reads the recorder back into protocol
// logic, and no deterministic export includes it. Event timestamps are
// wall-clock (metrics_now_seconds) and explicitly nondeterministic; the
// event *sequence* (kinds, phases, payloads) is a pure function of the run
// for a fault-free deterministic session.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/metrics.h"

namespace ppgr::runtime {

/// What happened. `detail`/`a`/`b`/`c` of FlightEvent are kind-specific:
///   kPhase        a=round at transition                  (Router::set_phase)
///   kRound        c=new round index                      (Router::next_round)
///   kSend         a=src, b=dst, c=bytes                  (every accounted message)
///   kRetry        a=src, b=dst, c=attempt                (retransmit ladder)
///   kInject       detail=net::FaultKind, a=src, b=dst, c=attempt (plan hit)
///   kChannelError detail=net::ChannelErrorKind, a=src, b=dst     (surfaced)
///   kDegrade      a=survivors, b=dropped                 (phase-1 degrade)
///   kFault        detail=party (+1 bias: 0 = none), c=round      (ProtocolFault)
///   kAudit        a=checks, b=findings                   (conformance audit)
enum class FlightEventKind : std::uint8_t {
  kPhase = 0,
  kRound,
  kSend,
  kRetry,
  kInject,
  kChannelError,
  kDegrade,
  kFault,
  kAudit,
};
[[nodiscard]] const char* to_string(FlightEventKind kind);

/// One fixed-size recorded event. POD so ring writes are a few stores.
struct FlightEvent {
  double t_s = 0.0;  // metrics_now_seconds() at record time (wall, noisy)
  FlightEventKind kind = FlightEventKind::kPhase;
  Phase phase = Phase::kSetup;
  std::uint16_t detail = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
};

class FlightRecorder {
 public:
  /// `capacity` = number of events retained (oldest overwritten first).
  explicit FlightRecorder(std::size_t capacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void record(FlightEventKind kind, Phase phase, std::uint16_t detail = 0,
              std::uint32_t a = 0, std::uint32_t b = 0, std::uint64_t c = 0);

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Events currently retained (== min(recorded, capacity)).
  [[nodiscard]] std::size_t size() const;
  /// Total record() calls over the recorder's lifetime.
  [[nodiscard]] std::uint64_t recorded() const;
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Snapshot of the retained events, oldest first. Safe to call from any
  /// thread while the writer keeps recording.
  [[nodiscard]] std::vector<FlightEvent> events() const;

  /// The dump: a "ppgr.flight.v1" JSON document with ring stats and the
  /// retained events oldest-first. Timestamps are relative to the first
  /// retained event (absolute steady-clock values mean nothing off-box).
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<FlightEvent> ring_;
  std::uint64_t recorded_ = 0;  // next write goes to recorded_ % capacity
};

}  // namespace ppgr::runtime

// Communication observability: the third pillar next to the crypto-op
// metrics (metrics.h) and the phase spans (span.h).
//
// The TraceRecorder (trace.h) is the one store of every message; a
// CommRegistry is the *measured* communication report computed from it
// once, after the run, by net::comm_report(): one FlowRecord per message
// carrying exact serialized byte counts (produced by the wire codecs, not
// analytic formulas) plus the virtual-time decomposition of its delivery on
// the simulated network — queueing, transmission and propagation segments,
// as computed by net::Simulator replaying each closed round. The report is
// immutable.
//
// Every message is recorded by net::Router, whose calls are serial (one
// party runs at a time, DESIGN.md §5b) — so the flow sequence, and
// therefore every exporter below, is bit-identical for any --parallelism
// value. Virtual times are derived from the deterministic discrete-event
// simulation, so they are deterministic too (the golden exporter tests run
// all comm exports in default mode).
//
// Exporters (both append through runtime/json.h):
//  - to_json(): "ppgr.comm.v1" — totals, per-phase per-link tables
//    (messages, bytes, transmission seconds, utilization) and the full flow
//    log with virtual-time segments;
//  - chrome_trace_json(): Chrome trace-event JSON on the *virtual* network
//    timeline — a send/receive slice pair per message, linked by flow
//    events ("s"/"f"), one lane per party. Loadable in Perfetto next to the
//    compute spans of SpanRecorder::chrome_trace_json().
//
// Party ids follow the paper: 0 is the initiator, 1..n the participants.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/metrics.h"

namespace ppgr::runtime {

/// Virtual-time decomposition of one message's delivery (seconds on the
/// simulated network, absolute since the start of the run):
///   send_s    - the message enters the network (round barrier);
///   deliver_s - its last packet reaches the destination;
///   tx_s      - pure serialization time of its bytes on one link;
///   prop_s    - pure propagation (hops x latency);
///   queue_s   - the remainder: contention + store-and-forward pipelining.
/// Invariant: deliver_s - send_s == tx_s + prop_s + queue_s, queue_s >= 0.
struct FlowTiming {
  double send_s = 0.0;
  double deliver_s = 0.0;
  double tx_s = 0.0;
  double prop_s = 0.0;
  double queue_s = 0.0;
};

/// One delivered inter-party message.
struct FlowRecord {
  Phase phase = Phase::kSetup;
  std::size_t round = 0;
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t bytes = 0;  // exact serialized wire bytes
  FlowTiming t;           // zero for a round that was never closed
};

/// Aggregate over one (phase, src -> dst) link.
struct CommLink {
  Phase phase = Phase::kSetup;
  std::size_t src = 0;
  std::size_t dst = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double tx_s = 0.0;  // summed transmission seconds
};

/// The communication report of one run: every flow with its virtual-time
/// delivery, the closed-round count and the virtual clock (whole run and
/// per phase). Built once by net::comm_report(); immutable afterwards.
class CommRegistry {
 public:
  /// `flows` in record order; `rounds` closed rounds (empty ones
  /// included); `virtual_seconds` the summed round durations and
  /// `phase_seconds` the same sum split by each round's phase.
  CommRegistry(std::vector<FlowRecord> flows, std::size_t rounds,
               double virtual_seconds,
               std::array<double, kPhaseCount> phase_seconds)
      : flows_(std::move(flows)),
        rounds_(rounds),
        virtual_seconds_(virtual_seconds),
        phase_virtual_(phase_seconds) {}

  [[nodiscard]] std::size_t message_count() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t total_bytes() const;
  /// Closed rounds (empty rounds are preserved, like TraceRecorder).
  [[nodiscard]] std::size_t rounds() const { return rounds_; }
  /// Virtual seconds of all closed rounds.
  [[nodiscard]] double virtual_seconds() const { return virtual_seconds_; }
  [[nodiscard]] double phase_virtual_seconds(Phase p) const {
    return phase_virtual_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const std::vector<FlowRecord>& flows() const { return flows_; }
  /// Per-(phase, src, dst) aggregates, sorted by (phase, src, dst).
  [[nodiscard]] std::vector<CommLink> links() const;
  [[nodiscard]] bool empty() const { return flows_.empty(); }

  /// Communication JSON document ("ppgr.comm.v1"). Fully deterministic: a
  /// pure function of the protocol run and the simulator config.
  [[nodiscard]] std::string to_json() const;
  /// Chrome trace-event JSON on the virtual timeline: per-message send and
  /// receive slices linked by flow events. Deterministic.
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  std::vector<FlowRecord> flows_;
  std::size_t rounds_ = 0;
  double virtual_seconds_ = 0.0;
  std::array<double, kPhaseCount> phase_virtual_{};
};

}  // namespace ppgr::runtime

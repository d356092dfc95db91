// Communication observability: the third pillar next to the crypto-op
// metrics (metrics.h) and the phase spans (span.h).
//
// The TraceRecorder keeps the raw (round, src, dst, bytes) transfer log the
// network benches replay; CommRegistry layers the *measured* communication
// view on top of it: one FlowRecord per delivered message carrying exact
// serialized byte counts (produced by the wire codecs, not analytic
// formulas) plus the virtual-time decomposition of its delivery on the
// simulated network — queueing, transmission and propagation segments, as
// computed by net::Simulator when net::Router closes a round.
//
// Every flow is recorded by net::Router, whose calls are serial (one party
// runs at a time, DESIGN.md §5b) — so the flow sequence, and therefore every
// exporter below, is bit-identical for any --parallelism value. Virtual
// times are derived from the deterministic discrete-event simulation, so
// they are deterministic too (the golden exporter tests run all comm exports
// in default mode).
//
// Exporters:
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

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
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
  FlowTiming t;           // filled when the round is closed
};

/// Channel-recovery counters mirrored from the fault-injection layer
/// (net::Router under a net::FaultPlan; see DESIGN.md Sec. 7). Pure
/// counters — a deterministic function of the fault schedule — so the
/// bench-regress gate compares them exactly.
struct FaultCounters {
  std::uint64_t injected_drop = 0;
  std::uint64_t injected_duplicate = 0;
  std::uint64_t injected_reorder = 0;
  std::uint64_t injected_corrupt = 0;
  std::uint64_t injected_tamper = 0;
  std::uint64_t injected_delay = 0;
  std::uint64_t injected_crash = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t crc_detected = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t reorders_healed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t giveups = 0;
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

/// Thread-safe accumulation of flows plus the virtual network clock.
/// Records arrive in deterministic order (serial Router calls);
/// close_round() stamps the current round's flows with their simulated
/// timings and advances the virtual clock.
class CommRegistry {
 public:
  CommRegistry() = default;
  CommRegistry(const CommRegistry&) = delete;
  CommRegistry& operator=(const CommRegistry&) = delete;

  void set_phase(Phase p);
  [[nodiscard]] Phase phase() const;

  /// Records one message in the current round; bytes must be the exact
  /// serialized size.
  void record(std::size_t src, std::size_t dst, std::size_t bytes);

  /// Closes the current round. `timings` holds one entry per flow recorded
  /// in this round (in record order) with times relative to the round
  /// start; `round_seconds` is the round's virtual duration. Throws
  /// std::invalid_argument on a size mismatch.
  void close_round(std::span<const FlowTiming> timings, double round_seconds);

  [[nodiscard]] std::size_t message_count() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  /// Closed rounds (empty rounds are preserved, like TraceRecorder).
  [[nodiscard]] std::size_t rounds() const;
  /// Virtual seconds of all closed rounds.
  [[nodiscard]] double virtual_seconds() const;
  [[nodiscard]] double phase_virtual_seconds(Phase p) const;
  [[nodiscard]] std::vector<FlowRecord> flows() const;
  /// Per-(phase, src, dst) aggregates, sorted by (phase, src, dst).
  [[nodiscard]] std::vector<CommLink> links() const;
  /// Installs the fault/retry counters (net::Router mirrors them at the end
  /// of a faulted run). Once set, to_json() gains a "faults" section —
  /// fault-free runs never call this, keeping their exports byte-identical
  /// to the pre-fault-layer goldens.
  void set_fault_counters(const FaultCounters& counters);
  [[nodiscard]] bool has_fault_counters() const;
  [[nodiscard]] FaultCounters fault_counters() const;
  [[nodiscard]] bool empty() const;
  void clear();

  /// Communication JSON document ("ppgr.comm.v1"). Fully deterministic: a
  /// pure function of the protocol run and the simulator config.
  [[nodiscard]] std::string to_json() const;
  /// Chrome trace-event JSON on the virtual timeline: per-message send and
  /// receive slices linked by flow events. Deterministic.
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<FlowRecord> flows_;
  std::size_t current_round_ = 0;
  std::size_t round_begin_ = 0;  // index of the current round's first flow
  std::size_t closed_rounds_ = 0;
  double virtual_clock_ = 0.0;
  std::array<double, kPhaseCount> phase_virtual_{};
  Phase phase_ = Phase::kSetup;
  FaultCounters fault_counters_{};
  bool has_fault_counters_ = false;
};

}  // namespace ppgr::runtime

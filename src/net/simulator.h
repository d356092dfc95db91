// Discrete-event store-and-forward packet network simulator.
//
// Stand-in for the paper's NS2 setup (Sec. VII): messages are chopped into
// MTU-sized packets, every (undirected) link transmits one packet at a time
// per direction at the configured bandwidth, packets queue FIFO behind the
// link, and each hop adds the propagation latency. Routing is hop-count
// shortest path (all links identical). Protocol rounds are synchronous: the
// packets of round k enter the network only after every packet of round k-1
// has been delivered — matching how the frameworks actually block on their
// predecessors' messages.
//
// This intentionally simplifies TCP to deterministic FIFO serialization: the
// phenomenon Fig. 3(b) demonstrates (many small rounds lose to few bulk
// transfers once latency and congestion matter) is a property of the
// bandwidth/latency arithmetic, not of TCP dynamics. See DESIGN.md.
//
// Edge cases pinned by tests/net_test.cpp: a zero-byte message still costs
// one header-only packet (TCP never sends a naked payload of zero frames
// for free); same-time packet events drain in FIFO submission order; and a
// transfer whose endpoints map to the same node is co-located (delivered
// instantly, no packets).
//
// comm_report() (below) is how a run's communication gets priced: it
// replays the run's recorded transfer log after the run ends.
#pragma once

#include "net/topology.h"
#include "runtime/comm.h"
#include "runtime/trace.h"

namespace ppgr::net {

struct SimulatorConfig {
  double bandwidth_bps = 2e6;  // 2 Mbps, per direction (duplex)
  double latency_s = 0.05;     // 50 ms per hop
  std::size_t mtu_bytes = 1500;
  std::size_t header_bytes = 40;  // IP+TCP header per packet
};

struct SimulationResult {
  double total_seconds = 0.0;
  std::vector<double> round_seconds;  // duration of each logical round
  std::size_t packets = 0;
};

/// replay_detailed(): the summary plus one timing record per input
/// transfer, in input order (runtime::FlowTiming — see runtime/comm.h for
/// the segment semantics). Times are absolute simulation seconds.
struct DetailedSimulationResult {
  SimulationResult summary;
  std::vector<runtime::FlowTiming> timings;
};

class Simulator {
 public:
  Simulator(const Topology& topo, SimulatorConfig config);

  /// Replays a recorded protocol trace. node_of[party] maps party ids to
  /// topology nodes (must be injective up to co-location; transfers between
  /// parties on the same node are free).
  [[nodiscard]] SimulationResult replay(
      std::span<const runtime::Transfer> trace,
      std::span<const std::size_t> node_of);

  /// Like replay(), but also decomposes every transfer's delivery into
  /// queueing / transmission / propagation segments. This is what
  /// comm_report() uses to stamp runtime::CommRegistry flows.
  [[nodiscard]] DetailedSimulationResult replay_detailed(
      std::span<const runtime::Transfer> trace,
      std::span<const std::size_t> node_of);

 private:
  const Topology& topo_;
  SimulatorConfig cfg_;
};

/// The communication report ("ppgr.comm.v1") of a recorded run: replays
/// each closed round of `trace` on its own — complete graph over the
/// parties, stock SimulatorConfig, rounds back to back on one virtual
/// clock — and stamps every flow with its timing. A transfer's injected
/// delay spike (Transfer::delay_s) stretches its delivery as queueing time
/// and, if it then finishes last, its round. Each round's duration is
/// charged to the phase of its transfers. Messages of a round that was
/// never closed keep zero timings.
[[nodiscard]] runtime::CommRegistry comm_report(
    const runtime::TraceRecorder& trace);

}  // namespace ppgr::net

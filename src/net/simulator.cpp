#include "net/simulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <stdexcept>

namespace ppgr::net {

namespace {

struct PacketEvent {
  double time;          // arrival at the head of its next link
  std::uint64_t seq;    // submission order — FIFO tie-break for equal times
  std::size_t packet;   // packet index
  std::size_t hop;      // index into the packet's path
  bool operator>(const PacketEvent& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

struct Packet {
  const std::vector<std::size_t>* path;  // edge indices
  std::size_t src;                       // traversal origin (fixes direction)
  std::size_t bytes;
  std::size_t transfer;                  // index into the round's transfers
};

}  // namespace

Simulator::Simulator(const Topology& topo, SimulatorConfig config)
    : topo_(topo), cfg_(config) {
  if (cfg_.bandwidth_bps <= 0 || cfg_.latency_s < 0 ||
      cfg_.mtu_bytes <= cfg_.header_bytes)
    throw std::invalid_argument("Simulator: bad config");
}

SimulationResult Simulator::replay(std::span<const runtime::Transfer> trace,
                                   std::span<const std::size_t> node_of) {
  return replay_detailed(trace, node_of).summary;
}

DetailedSimulationResult Simulator::replay_detailed(
    std::span<const runtime::Transfer> trace,
    std::span<const std::size_t> node_of) {
  for (const auto& t : trace) {
    if (t.src >= node_of.size() || t.dst >= node_of.size())
      throw std::invalid_argument("Simulator::replay: party id out of range");
  }

  // Group transfers by round (rounds may be sparse).
  std::size_t max_round = 0;
  for (const auto& t : trace) max_round = std::max(max_round, t.round);
  std::vector<std::vector<std::size_t>> by_round(max_round + 1);
  for (std::size_t i = 0; i < trace.size(); ++i)
    by_round[trace[i].round].push_back(i);

  DetailedSimulationResult result;
  result.timings.resize(trace.size());
  // Per-direction link occupancy: 2 entries per undirected edge.
  std::vector<double> link_free(2 * topo_.edges().size(), 0.0);
  double clock = 0.0;

  for (const auto& round : by_round) {
    if (round.empty()) {
      result.summary.round_seconds.push_back(0.0);
      continue;
    }
    // Round barrier: reset link availability to the round start (everything
    // from the previous round has drained).
    std::fill(link_free.begin(), link_free.end(), clock);

    // Build packets.
    std::vector<Packet> packets;
    std::priority_queue<PacketEvent, std::vector<PacketEvent>,
                        std::greater<PacketEvent>>
        events;
    std::uint64_t seq = 0;
    for (const std::size_t ti : round) {
      const runtime::Transfer& t = trace[ti];
      runtime::FlowTiming& timing = result.timings[ti];
      timing.send_s = clock;
      const std::size_t src_node = node_of[t.src];
      const std::size_t dst_node = node_of[t.dst];
      if (src_node == dst_node) {
        // Co-located parties: delivered instantly, no packets.
        timing.deliver_s = clock;
        continue;
      }
      const auto& path = topo_.path(src_node, dst_node);
      const std::size_t payload = cfg_.mtu_bytes - cfg_.header_bytes;
      // A zero-byte message still travels as one header-only packet.
      const std::size_t n_packets =
          std::max<std::size_t>(1, (t.bytes + payload - 1) / payload);
      std::size_t wire_bytes = 0;
      for (std::size_t p = 0; p < n_packets; ++p) {
        const std::size_t body =
            std::min(payload, t.bytes - std::min(t.bytes, p * payload)) +
            cfg_.header_bytes;
        wire_bytes += body;
        packets.push_back(Packet{&path, src_node, body, ti});
        events.push(PacketEvent{clock, seq++, packets.size() - 1, 0});
      }
      // Pure segments, independent of contention: one-link serialization of
      // the whole message and per-hop propagation. Queueing is whatever the
      // event simulation adds on top.
      timing.tx_s = static_cast<double>(wire_bytes) * 8.0 / cfg_.bandwidth_bps;
      timing.prop_s = static_cast<double>(path.size()) * cfg_.latency_s;
    }
    result.summary.packets += packets.size();

    double round_end = clock;
    while (!events.empty()) {
      const PacketEvent ev = events.top();
      events.pop();
      Packet& pkt = packets[ev.packet];
      const std::size_t edge_idx = (*pkt.path)[ev.hop];
      const Edge& e = topo_.edges()[edge_idx];
      // Determine traversal direction by walking the path from the packet's
      // source: the node we're currently at.
      std::size_t at = pkt.src;
      for (std::size_t h = 0; h < ev.hop; ++h) {
        const Edge& prev = topo_.edges()[(*pkt.path)[h]];
        at = (prev.a == at) ? prev.b : prev.a;
      }
      const bool forward = (e.a == at);
      double& free_at = link_free[2 * edge_idx + (forward ? 0 : 1)];
      const double tx = static_cast<double>(pkt.bytes) * 8.0 / cfg_.bandwidth_bps;
      const double depart = std::max(ev.time, free_at);
      free_at = depart + tx;
      const double arrive = depart + tx + cfg_.latency_s;
      if (ev.hop + 1 == pkt.path->size()) {
        runtime::FlowTiming& timing = result.timings[pkt.transfer];
        timing.deliver_s = std::max(timing.deliver_s, arrive);
        round_end = std::max(round_end, arrive);
      } else {
        events.push(PacketEvent{arrive, seq++, ev.packet, ev.hop + 1});
      }
    }
    for (const std::size_t ti : round) {
      runtime::FlowTiming& timing = result.timings[ti];
      timing.queue_s = std::max(
          0.0, (timing.deliver_s - timing.send_s) - timing.tx_s -
                   timing.prop_s);
    }
    result.summary.round_seconds.push_back(round_end - clock);
    clock = round_end;
  }
  result.summary.total_seconds = clock;
  return result;
}

runtime::CommRegistry comm_report(const runtime::TraceRecorder& trace) {
  const std::vector<runtime::Transfer>& log = trace.transfers();
  const std::size_t closed = trace.closed_rounds();
  std::size_t nodes = 2;
  for (const runtime::Transfer& t : log)
    nodes = std::max({nodes, t.src + 1, t.dst + 1});
  std::vector<Edge> edges;
  for (std::size_t a = 0; a < nodes; ++a)
    for (std::size_t b = a + 1; b < nodes; ++b) edges.push_back(Edge{a, b});
  const Topology complete{nodes, std::move(edges)};
  Simulator sim{complete, SimulatorConfig{}};
  std::vector<std::size_t> node_of(nodes);
  std::iota(node_of.begin(), node_of.end(), std::size_t{0});

  std::vector<runtime::FlowRecord> flows;
  flows.reserve(log.size());
  for (const runtime::Transfer& t : log)
    flows.push_back(
        runtime::FlowRecord{t.phase, t.round, t.src, t.dst, t.bytes, {}});
  double clock = 0.0;
  std::array<double, runtime::kPhaseCount> phase_s{};
  std::vector<runtime::Transfer> round;
  for (std::size_t begin = 0;
       begin < log.size() && log[begin].round < closed;) {
    std::size_t end = begin;
    round.clear();
    for (; end < log.size() && log[end].round == log[begin].round; ++end) {
      round.push_back(log[end]);
      round.back().round = 0;  // each round replays from an idle network
    }
    auto detail = sim.replay_detailed(round, node_of);
    double seconds = detail.summary.total_seconds;
    for (std::size_t i = 0; i < round.size(); ++i) {
      runtime::FlowTiming& t = detail.timings[i];
      // A delay spike is queueing from the flow's perspective, so
      // deliver - send == tx + prop + queue still holds.
      if (round[i].delay_s > 0.0) {
        t.deliver_s += round[i].delay_s;
        t.queue_s += round[i].delay_s;
        seconds = std::max(seconds, t.deliver_s);
      }
      t.send_s += clock;
      t.deliver_s += clock;
      flows[begin + i].t = t;
    }
    clock += seconds;
    phase_s[static_cast<std::size_t>(round.back().phase)] += seconds;
    begin = end;
  }
  return runtime::CommRegistry{std::move(flows), closed, clock, phase_s};
}

}  // namespace ppgr::net

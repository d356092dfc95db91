// Tests for the topology generator, routing, the packet simulator, the
// metered router/channel transport, and the runtime trace recorder.
#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/simulator.h"
#include "net/topology.h"
#include "runtime/trace.h"

namespace ppgr::net {
namespace {

using mpz::ChaChaRng;
using runtime::TraceRecorder;
using runtime::Transfer;

TEST(Topology, RejectsBadInput) {
  EXPECT_THROW((Topology{3, {Edge{0, 3}}}), std::invalid_argument);
  EXPECT_THROW((Topology{3, {Edge{1, 1}}}), std::invalid_argument);
  // Disconnected: 4 nodes, one edge.
  EXPECT_THROW((Topology{4, {Edge{0, 1}}}), std::invalid_argument);
}

TEST(Topology, LineGraphPaths) {
  const Topology t{4, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}}};
  EXPECT_EQ(t.distance(0, 3), 3u);
  EXPECT_EQ(t.distance(1, 2), 1u);
  EXPECT_EQ(t.path(0, 3), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(t.path(3, 0), (std::vector<std::size_t>{2, 1, 0}));
  // A node reaches itself over the empty path (co-located parties exchange
  // messages without touching any link).
  EXPECT_EQ(t.distance(0, 0), 0u);
  EXPECT_TRUE(t.path(0, 0).empty());
}

TEST(Topology, RandomConnectedHasExactEdgeCountAndIsConnected) {
  ChaChaRng rng{90};
  // The paper's instance: 80 nodes, 320 edges.
  const Topology t = Topology::random_connected(80, 320, rng);
  EXPECT_EQ(t.nodes(), 80u);
  EXPECT_EQ(t.edges().size(), 320u);
  // Connectivity is implied by construction; verify every pair has a path.
  for (std::size_t a = 0; a < 80; a += 13) {
    for (std::size_t b = a + 1; b < 80; b += 7) {
      EXPECT_GE(t.distance(a, b), 1u);
    }
  }
}

TEST(Topology, RandomConnectedSpanningTreeEdgeCase) {
  ChaChaRng rng{91};
  const Topology t = Topology::random_connected(10, 9, rng);  // tree
  EXPECT_EQ(t.edges().size(), 9u);
}

TEST(Topology, RandomConnectedRejectsInfeasible) {
  ChaChaRng rng{92};
  EXPECT_THROW((void)Topology::random_connected(10, 8, rng),
               std::invalid_argument);  // below spanning tree
  EXPECT_THROW((void)Topology::random_connected(10, 46, rng),
               std::invalid_argument);  // above complete graph
}

TEST(Simulator, SingleHopTimingIsExact) {
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{.bandwidth_bps = 1e6,
                                   .latency_s = 0.05,
                                   .mtu_bytes = 1500,
                                   .header_bytes = 40}};
  // 1000 payload bytes -> one packet of 1040 bytes on the wire:
  // tx = 1040*8/1e6 = 8.32 ms, + 50 ms latency.
  const Transfer msg[] = {{0, 0, 1, 1000}};
  const std::size_t nodes[] = {0, 1};
  const double d = sim.replay(msg, nodes).total_seconds;
  EXPECT_NEAR(d, 0.05 + 1040 * 8.0 / 1e6, 1e-9);
}

TEST(Simulator, MultiPacketSerializesOnLink) {
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{.bandwidth_bps = 1e6,
                                   .latency_s = 0.0,
                                   .mtu_bytes = 1500,
                                   .header_bytes = 0}};
  // 15000 bytes = 10 packets of 1500: serialized tx = 15000*8/1e6 = 120 ms.
  const Transfer msg[] = {{0, 0, 1, 15000}};
  const std::size_t nodes[] = {0, 1};
  const double d = sim.replay(msg, nodes).total_seconds;
  EXPECT_NEAR(d, 0.12, 1e-9);
}

TEST(Simulator, LatencyPerHopAccumulates) {
  const Topology line{4, {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}}};
  Simulator sim{line, SimulatorConfig{.bandwidth_bps = 1e9,
                                      .latency_s = 0.05,
                                      .mtu_bytes = 1500,
                                      .header_bytes = 0}};
  // Tiny message, 3 hops: ~3 * 50 ms dominates.
  const Transfer msg[] = {{0, 0, 1, 10}};
  const std::size_t nodes[] = {0, 3};
  const double d = sim.replay(msg, nodes).total_seconds;
  EXPECT_GT(d, 0.15);
  EXPECT_LT(d, 0.1501);
}

TEST(Simulator, ContentionOnSharedLink) {
  // Two flows share the middle link of a dumbbell: total time is about twice
  // a single flow's.
  const Topology t{4, {Edge{0, 2}, Edge{1, 2}, Edge{2, 3}}};
  Simulator sim{t, SimulatorConfig{.bandwidth_bps = 1e6,
                                   .latency_s = 0.0,
                                   .mtu_bytes = 1500,
                                   .header_bytes = 0}};
  const std::size_t kBytes = 150000;  // 100 packets
  const Transfer one[] = {{0, 0, 2, kBytes}};
  const Transfer two[] = {{0, 0, 2, kBytes}, {0, 1, 2, kBytes}};
  const std::size_t nodes[] = {0, 1, 3};
  const double t1 = sim.replay(std::span{one, 1}, nodes).total_seconds;
  const double t2 = sim.replay(std::span{two, 2}, nodes).total_seconds;
  EXPECT_GT(t2, 1.8 * t1);
  EXPECT_LT(t2, 2.2 * t1);
}

TEST(Simulator, DuplexLinkDoesNotContend) {
  // Opposite directions of the same link are independent (duplex).
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{.bandwidth_bps = 1e6,
                                   .latency_s = 0.0,
                                   .mtu_bytes = 1500,
                                   .header_bytes = 0}};
  const std::size_t kBytes = 150000;
  const Transfer both[] = {{0, 0, 1, kBytes}, {0, 1, 0, kBytes}};
  const std::size_t nodes[] = {0, 1};
  const double d = sim.replay(std::span{both, 2}, nodes).total_seconds;
  EXPECT_NEAR(d, 1.2, 1e-6);  // same as a single flow
}

TEST(Simulator, RoundsAreBarriers) {
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{.bandwidth_bps = 1e6,
                                   .latency_s = 0.01,
                                   .mtu_bytes = 1500,
                                   .header_bytes = 0}};
  // Two rounds of one packet each: durations add up.
  const Transfer seq[] = {{0, 0, 1, 100}, {1, 1, 0, 100}};
  const std::size_t nodes[] = {0, 1};
  const auto result = sim.replay(std::span{seq, 2}, nodes);
  ASSERT_EQ(result.round_seconds.size(), 2u);
  EXPECT_NEAR(result.total_seconds,
              result.round_seconds[0] + result.round_seconds[1], 1e-12);
  EXPECT_GT(result.round_seconds[0], 0.01);
  EXPECT_GT(result.round_seconds[1], 0.01);
}

TEST(Simulator, EmptyRoundsArePreserved) {
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{}};
  const Transfer sparse[] = {{0, 0, 1, 10}, {3, 1, 0, 10}};
  const std::size_t nodes[] = {0, 1};
  const auto result = sim.replay(std::span{sparse, 2}, nodes);
  EXPECT_EQ(result.round_seconds.size(), 4u);
  EXPECT_EQ(result.round_seconds[1], 0.0);
  EXPECT_EQ(result.round_seconds[2], 0.0);
}

TEST(Simulator, CoLocatedPartiesAreFree) {
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{}};
  const Transfer msg[] = {{0, 0, 1, 1000000}};
  const std::size_t nodes[] = {0, 0};  // both parties on node 0
  EXPECT_EQ(sim.replay(std::span{msg, 1}, nodes).total_seconds, 0.0);
}

TEST(Simulator, ZeroByteMessageIsOneHeaderOnlyPacket) {
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{.bandwidth_bps = 1e6,
                                   .latency_s = 0.05,
                                   .mtu_bytes = 1500,
                                   .header_bytes = 40}};
  // A zero-byte payload still occupies the wire: exactly one packet of just
  // the 40-byte header, plus one hop of latency.
  const Transfer msg[] = {{0, 0, 1, 0}};
  const std::size_t nodes[] = {0, 1};
  const auto result = sim.replay(std::span{msg, 1}, nodes);
  EXPECT_EQ(result.packets, 1u);
  EXPECT_NEAR(result.total_seconds, 0.05 + 40 * 8.0 / 1e6, 1e-12);
}

TEST(Simulator, SaturatedLinkDeliversInFifoOrder) {
  // Many same-round messages down one direction of one link: submission
  // order is delivery order (the event queue breaks time ties by sequence
  // number), and later messages absorb the backlog as queueing time.
  const Topology t{2, {Edge{0, 1}}};
  Simulator sim{t, SimulatorConfig{.bandwidth_bps = 1e6,
                                   .latency_s = 0.0,
                                   .mtu_bytes = 1500,
                                   .header_bytes = 0}};
  std::vector<Transfer> round;
  for (std::size_t i = 0; i < 8; ++i) round.push_back({0, 0, 1, 1500});
  const std::size_t nodes[] = {0, 1};
  const auto result = sim.replay_detailed(round, nodes);
  ASSERT_EQ(result.timings.size(), 8u);
  const double per_packet = 1500 * 8.0 / 1e6;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& f = result.timings[i];
    // i-th submitted message departs after i earlier packets.
    EXPECT_NEAR(f.deliver_s, static_cast<double>(i + 1) * per_packet, 1e-12);
    EXPECT_NEAR(f.queue_s, static_cast<double>(i) * per_packet, 1e-12);
    if (i > 0) {
      EXPECT_GT(f.deliver_s, result.timings[i - 1].deliver_s);
    }
  }
}

TEST(Simulator, TimingSegmentsAddUp) {
  // deliver - send == tx + prop + queue on a contended multi-hop path.
  const Topology line{3, {Edge{0, 1}, Edge{1, 2}}};
  Simulator sim{line, SimulatorConfig{.bandwidth_bps = 1e6,
                                      .latency_s = 0.01,
                                      .mtu_bytes = 1500,
                                      .header_bytes = 40}};
  const Transfer round[] = {{0, 0, 2, 4000}, {0, 1, 2, 4000}};
  const std::size_t nodes[] = {0, 1, 2};
  const auto result = sim.replay_detailed(round, nodes);
  for (const auto& f : result.timings) {
    EXPECT_GE(f.queue_s, 0.0);
    EXPECT_NEAR(f.deliver_s - f.send_s, f.tx_s + f.prop_s + f.queue_s, 1e-12);
  }
}

// ---- Router ----

TEST(Router, SendReceiveIsFifoPerLink) {
  TraceRecorder trace;
  Router router{3, trace};
  router.send(0, 1, std::vector<std::uint8_t>{1});
  router.send(0, 1, std::vector<std::uint8_t>{2});
  router.send(2, 1, std::vector<std::uint8_t>{3});
  EXPECT_EQ(router.pending(), 3u);
  EXPECT_EQ((*router.receive(0, 1))[0], 1);  // oldest first
  EXPECT_EQ((*router.receive(0, 1))[0], 2);
  EXPECT_EQ((*router.receive(2, 1))[0], 3);
  EXPECT_EQ(router.pending(), 0u);
  EXPECT_THROW((void)router.receive(0, 1), std::logic_error);
  // The report lists the flows in send order.
  router.next_round();
  const auto comm = comm_report(trace);
  ASSERT_EQ(comm.flows().size(), 3u);
  EXPECT_EQ(comm.flows()[0].src, 0u);
  EXPECT_EQ(comm.flows()[1].src, 0u);
  EXPECT_EQ(comm.flows()[2].src, 2u);
}

TEST(Router, SelfSendIsRejected) {
  // Distinct in-process parties on one host are modeled by mapping them to
  // the same *node* (see CoLocatedPartiesAreFree); a party messaging itself
  // is a protocol bug and is rejected at the accounting layer.
  TraceRecorder trace;
  Router router{2, trace};
  EXPECT_THROW(router.send(1, 1, std::vector<std::uint8_t>{1}),
               std::invalid_argument);
  EXPECT_THROW(router.transmit(0, 0, 16), std::invalid_argument);
}

TEST(Router, TransmitAccountsWithoutDelivery) {
  TraceRecorder trace;
  Router router{2, trace};
  router.transmit(0, 1, 128);
  EXPECT_EQ(router.pending(), 0u);  // nothing to receive...
  EXPECT_EQ(trace.total_bytes(), 128u);  // ...but the bytes are accounted
  EXPECT_EQ(comm_report(trace).total_bytes(), 128u);
  EXPECT_THROW((void)router.receive(0, 1), std::logic_error);
}

TEST(Router, ZeroByteSendRoundTripsAndCostsAPacket) {
  TraceRecorder trace;
  Router router{2, trace};
  router.send(0, 1, std::vector<std::uint8_t>{});
  router.next_round();
  EXPECT_TRUE(router.receive(0, 1)->empty());
  const auto comm = comm_report(trace);
  const auto& flows = comm.flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].bytes, 0u);
  // The stock config still charges one header-only packet.
  EXPECT_GT(flows[0].t.deliver_s, flows[0].t.send_s);
}

TEST(Router, ReportStampsFlowTimingInvariant) {
  TraceRecorder trace;
  Router router{3, trace};
  router.set_phase(runtime::Phase::kPhase1);
  router.send(0, 1, std::vector<std::uint8_t>(2000, 0xAB));
  router.send(2, 1, std::vector<std::uint8_t>(100, 0xCD));
  router.next_round();
  (void)router.receive(0, 1);
  (void)router.receive(2, 1);
  const auto comm = comm_report(trace);
  ASSERT_EQ(comm.rounds(), 1u);
  EXPECT_GT(comm.virtual_seconds(), 0.0);
  EXPECT_EQ(comm.phase_virtual_seconds(runtime::Phase::kPhase1),
            comm.virtual_seconds());
  for (const auto& f : comm.flows()) {
    EXPECT_EQ(f.phase, runtime::Phase::kPhase1);
    EXPECT_GE(f.t.queue_s, 0.0);
    EXPECT_NEAR(f.t.deliver_s - f.t.send_s,
                f.t.tx_s + f.t.prop_s + f.t.queue_s, 1e-12);
  }
}

TEST(Router, ReportChargesEachRoundToItsPhase) {
  // Rounds run back to back on one virtual clock; empty rounds count as
  // rounds but take no time.
  TraceRecorder trace;
  Router router{2, trace};
  router.set_phase(runtime::Phase::kPhase1);
  router.transmit(0, 1, 500);
  router.next_round();
  router.next_round();  // empty
  router.set_phase(runtime::Phase::kPhase2);
  router.transmit(1, 0, 3000);
  router.next_round();
  const auto comm = comm_report(trace);
  EXPECT_EQ(comm.rounds(), 3u);
  const double p1 = comm.phase_virtual_seconds(runtime::Phase::kPhase1);
  const double p2 = comm.phase_virtual_seconds(runtime::Phase::kPhase2);
  EXPECT_GT(p1, 0.0);
  EXPECT_GT(p2, p1);
  EXPECT_EQ(comm.virtual_seconds(), p1 + p2);
  ASSERT_EQ(comm.flows().size(), 2u);
  EXPECT_EQ(comm.flows()[1].phase, runtime::Phase::kPhase2);
  EXPECT_EQ(comm.flows()[1].t.send_s, p1);  // the second round starts late
}

// ---- TraceRecorder ----

TEST(TraceRecorder, RecordsAndAggregates) {
  TraceRecorder rec;
  rec.record(runtime::Phase::kPhase1, 0, 1, 100);
  rec.record(runtime::Phase::kPhase1, 1, 0, 50);
  rec.next_round();
  rec.record(runtime::Phase::kPhase2, 2, 1, 25, 0.5);
  EXPECT_EQ(rec.message_count(), 3u);
  EXPECT_EQ(rec.rounds(), 2u);
  EXPECT_EQ(rec.closed_rounds(), 1u);
  EXPECT_EQ(rec.total_bytes(), 175u);
  std::size_t sent_by_0 = 0;
  std::size_t received_by_1 = 0;
  for (const Transfer& t : rec.transfers()) {
    if (t.src == 0) sent_by_0 += t.bytes;
    if (t.dst == 1) received_by_1 += t.bytes;
  }
  EXPECT_EQ(sent_by_0, 100u);
  EXPECT_EQ(received_by_1, 125u);
  EXPECT_EQ(rec.transfers()[2].round, 1u);
  EXPECT_EQ(rec.transfers()[2].phase, runtime::Phase::kPhase2);
  EXPECT_EQ(rec.transfers()[2].delay_s, 0.5);
}

TEST(TraceRecorder, RejectsSelfMessages) {
  TraceRecorder rec;
  EXPECT_THROW(rec.record(runtime::Phase::kSetup, 1, 1, 10),
               std::invalid_argument);
}

TEST(PartyTimer, AccumulatesPerParty) {
  runtime::PartyTimer timer{3};
  timer.add(1, 0.5);
  timer.add(2, 0.25);
  timer.add(1, 0.5);
  timer.add(0, 9.0);  // initiator excluded from participant stats
  EXPECT_DOUBLE_EQ(timer.seconds(1), 1.0);
  EXPECT_DOUBLE_EQ(timer.max_participant_seconds(), 1.0);
  {
    auto scope = timer.time(2);
  }
  EXPECT_GE(timer.seconds(2), 0.25);
}

}  // namespace
}  // namespace ppgr::net

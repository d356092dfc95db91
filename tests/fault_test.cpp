// Fault-injection layer tests: the deterministic FaultPlan schedule, the
// plan-spec parser, the CRC32 frame codec, and the Router's channel-recovery
// semantics (retransmit/backoff, dedup, reorder healing, crash points,
// typed ChannelErrors) — plus the strict no-op guarantee when no plan is
// installed.
#include <gtest/gtest.h>

#include <cstring>

#include "net/channel.h"
#include "net/fault.h"
#include "net/simulator.h"
#include "runtime/comm.h"
#include "runtime/trace.h"

namespace ppgr::net {
namespace {

using runtime::Phase;

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> out;
  for (const int v : vals) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

// ---- Plan spec parser ----

TEST(FaultPlanSpec, ParsesFullSpec) {
  const FaultPlanConfig cfg = parse_fault_plan(
      "seed=9,drop=0.25,dup=0.5,reorder=0.1,corrupt=0.01,tamper=0.02,"
      "delay=0.3,delay_s=1.5,phase=2,retries=5,backoff=0.01,deadline=9.5,"
      "crash=3@1,crash=1@3");
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_DOUBLE_EQ(cfg.drop, 0.25);
  EXPECT_DOUBLE_EQ(cfg.duplicate, 0.5);
  EXPECT_DOUBLE_EQ(cfg.reorder, 0.1);
  EXPECT_DOUBLE_EQ(cfg.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(cfg.tamper, 0.02);
  EXPECT_DOUBLE_EQ(cfg.delay, 0.3);
  EXPECT_DOUBLE_EQ(cfg.delay_spike_s, 1.5);
  EXPECT_EQ(cfg.only_phase, 2);
  EXPECT_EQ(cfg.max_retries, 5u);
  EXPECT_DOUBLE_EQ(cfg.backoff_base_s, 0.01);
  EXPECT_DOUBLE_EQ(cfg.deadline_s, 9.5);
  ASSERT_EQ(cfg.crashes.size(), 2u);
  EXPECT_EQ(cfg.crashes[0].party, 3u);
  EXPECT_EQ(cfg.crashes[0].phase, Phase::kPhase1);
  EXPECT_EQ(cfg.crashes[1].party, 1u);
  EXPECT_EQ(cfg.crashes[1].phase, Phase::kPhase3);
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultPlanSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_fault_plan("bogus=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("drop=1.5"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("drop=-0.1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("drop"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("crash=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("crash=1@9"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("phase=7"), std::invalid_argument);
  EXPECT_THROW((void)parse_fault_plan("seed=abc"), std::invalid_argument);
}

TEST(FaultPlanSpec, DisabledWithoutAnyFault) {
  const FaultPlanConfig cfg = parse_fault_plan("seed=4,retries=7");
  EXPECT_FALSE(cfg.enabled());
}

// ---- Schedule determinism ----

TEST(FaultPlan, DecisionsArePureFunctionsOfCoordinates) {
  FaultPlanConfig cfg;
  cfg.seed = 42;
  cfg.drop = 0.3;
  cfg.duplicate = 0.2;
  cfg.corrupt = 0.1;
  cfg.delay = 0.25;
  const FaultPlan a{cfg};
  const FaultPlan b{cfg};

  // Same coordinates -> same decision, across instances and across query
  // order (b queried in reverse).
  struct Key {
    std::size_t round, src, dst, msg, attempt;
  };
  std::vector<Key> keys;
  for (std::size_t round = 0; round < 6; ++round)
    for (std::size_t src = 0; src < 3; ++src)
      for (std::size_t dst = 0; dst < 3; ++dst)
        for (std::size_t msg = 0; msg < 4; ++msg)
          keys.push_back(Key{round, src, dst, msg, msg % 2});
  std::vector<FaultDecision> da;
  for (const Key& k : keys)
    da.push_back(a.decide(Phase::kPhase1, k.round, k.src, k.dst, k.msg,
                          k.attempt));
  std::vector<FaultDecision> db(keys.size());
  for (std::size_t i = keys.size(); i-- > 0;)
    db[i] = b.decide(Phase::kPhase1, keys[i].round, keys[i].src, keys[i].dst,
                     keys[i].msg, keys[i].attempt);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(da[i].drop, db[i].drop);
    EXPECT_EQ(da[i].duplicate, db[i].duplicate);
    EXPECT_EQ(da[i].reorder, db[i].reorder);
    EXPECT_EQ(da[i].corrupt, db[i].corrupt);
    EXPECT_EQ(da[i].tamper, db[i].tamper);
    EXPECT_EQ(da[i].delay, db[i].delay);
    EXPECT_EQ(da[i].flip_bit, db[i].flip_bit);
    fired += (da[i].drop || da[i].duplicate || da[i].corrupt || da[i].delay)
                 ? 1
                 : 0;
  }
  EXPECT_GT(fired, 0u);             // the probabilities actually fire
  EXPECT_LT(fired, keys.size());    // ...but not everywhere
}

TEST(FaultPlan, SeedChangesTheSchedule) {
  FaultPlanConfig cfg;
  cfg.drop = 0.5;
  cfg.seed = 1;
  const FaultPlan a{cfg};
  cfg.seed = 2;
  const FaultPlan b{cfg};
  std::size_t diffs = 0;
  for (std::size_t msg = 0; msg < 64; ++msg)
    diffs += a.decide(Phase::kPhase1, 0, 0, 1, msg, 0).drop !=
                     b.decide(Phase::kPhase1, 0, 0, 1, msg, 0).drop
                 ? 1
                 : 0;
  EXPECT_GT(diffs, 0u);
}

TEST(FaultPlan, PhaseRestrictionGatesInjection) {
  FaultPlanConfig cfg;
  cfg.drop = 1.0;
  cfg.only_phase = 2;
  const FaultPlan plan{cfg};
  EXPECT_FALSE(plan.active_in(Phase::kPhase1));
  EXPECT_TRUE(plan.active_in(Phase::kPhase2));
  EXPECT_FALSE(plan.decide(Phase::kPhase1, 0, 0, 1, 0, 0).drop);
  EXPECT_TRUE(plan.decide(Phase::kPhase2, 0, 0, 1, 0, 0).drop);
}

TEST(FaultPlan, CrashPointsActivateByPhase) {
  FaultPlanConfig cfg;
  cfg.crashes.push_back(CrashPoint{2, Phase::kPhase1});
  cfg.crashes.push_back(CrashPoint{1, Phase::kPhase3});
  const FaultPlan plan{cfg};
  EXPECT_EQ(plan.crashes_at(Phase::kPhase1), std::vector<std::size_t>{2});
  EXPECT_TRUE(plan.crashes_at(Phase::kPhase2).empty());
  EXPECT_EQ(plan.crashes_at(Phase::kPhase3), std::vector<std::size_t>{1});
}

// ---- CRC32 + frame codec ----

TEST(Frame, Crc32KnownAnswer) {
  // The IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  std::vector<std::uint8_t> data(s, s + std::strlen(s));
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Frame, RoundTripsAndDetectsCorruption) {
  const auto payload = bytes_of({1, 2, 3, 4, 5});
  std::vector<std::uint8_t> framed = encode_frame(77, payload);
  ASSERT_EQ(framed.size(), kFrameHeaderBytes + payload.size());
  const Frame f = decode_frame(framed);
  EXPECT_EQ(f.seq, 77u);
  EXPECT_TRUE(f.crc_ok);
  EXPECT_EQ(f.payload, payload);

  // Any single payload bit flip is detected (crc_ok false, no exception).
  for (std::size_t bit = 0; bit < payload.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = framed;
    bad[kFrameHeaderBytes + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    const Frame g = decode_frame(bad);
    EXPECT_FALSE(g.crc_ok) << "bit " << bit;
  }
}

TEST(Frame, EveryTruncationPointIsATypedError) {
  const auto payload = bytes_of({9, 8, 7, 6, 5, 4, 3});
  const std::vector<std::uint8_t> framed = encode_frame(3, payload);
  for (std::size_t len = 0; len < framed.size(); ++len) {
    std::vector<std::uint8_t> cut(framed.begin(),
                                  framed.begin() + static_cast<long>(len));
    try {
      (void)decode_frame(cut);
      FAIL() << "truncation to " << len << " bytes not rejected";
    } catch (const ChannelError& e) {
      EXPECT_EQ(e.kind(), ChannelErrorKind::kBadFrame);
    }
  }
}

TEST(Frame, OverLongBufferIsATypedError) {
  std::vector<std::uint8_t> framed = encode_frame(0, bytes_of({1, 2}));
  framed.push_back(0xFF);  // trailing garbage disagrees with the length field
  try {
    (void)decode_frame(framed);
    FAIL() << "over-long frame not rejected";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kBadFrame);
  }
}

// ---- Router recovery semantics ----

FaultPlanConfig plan_base(std::uint64_t seed) {
  FaultPlanConfig cfg;
  cfg.seed = seed;
  return cfg;
}

TEST(RouterFaults, DisabledPlanIsAStrictNoOp) {
  FaultPlanConfig cfg = plan_base(5);  // nothing enabled
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  EXPECT_FALSE(router.fault_active());
  router.send(0, 1, bytes_of({1, 2, 3}));
  EXPECT_EQ(trace.total_bytes(), 3u);  // no 12-byte framing added
  EXPECT_EQ((*router.receive(0, 1)), bytes_of({1, 2, 3}));
}

TEST(RouterFaults, FramingIsTransparentWhenNothingFires) {
  FaultPlanConfig cfg = plan_base(5);
  cfg.drop = 1.0;
  cfg.only_phase = 2;  // plan enabled, but inert in phase 1
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  router.send(0, 1, bytes_of({1, 2, 3}));
  // Frames are on the wire (accounted)...
  EXPECT_EQ(trace.total_bytes(), 3u + kFrameHeaderBytes);
  // ...but the receiver sees the exact payload.
  EXPECT_EQ((*router.receive(0, 1)), bytes_of({1, 2, 3}));
  EXPECT_EQ(router.pending(), 0u);
}

TEST(RouterFaults, CertainDropExhaustsRetriesIntoTypedGiveUp) {
  FaultPlanConfig cfg = plan_base(7);
  cfg.drop = 1.0;
  cfg.max_retries = 2;
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  router.send(0, 1, bytes_of({42}));
  try {
    (void)router.receive(0, 1);
    FAIL() << "lost message not surfaced";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kGiveUp);
    EXPECT_EQ(e.src(), 0u);
    EXPECT_EQ(e.dst(), 1u);
  }
  const FaultReport report = router.fault_report();
  EXPECT_EQ(report.stats.injected[static_cast<std::size_t>(FaultKind::kDrop)],
            3u);  // initial attempt + 2 retries
  EXPECT_EQ(report.stats.retransmits, 2u);
  EXPECT_EQ(report.stats.giveups, 1u);
  EXPECT_EQ(report.stats.timeouts, 0u);
  // The next message on the link still has a coherent sequence slot.
  router.send(0, 1, bytes_of({43}));
  EXPECT_THROW((void)router.receive(0, 1), ChannelError);  // also dropped
}

TEST(RouterFaults, ExplicitDeadlineTurnsLossIntoTimeout) {
  FaultPlanConfig cfg = plan_base(7);
  cfg.drop = 1.0;
  cfg.max_retries = 10;
  cfg.backoff_base_s = 0.05;
  cfg.deadline_s = 0.11;  // one round trip (0.1s) + backoff exceeds this
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  router.send(0, 1, bytes_of({1}));
  try {
    (void)router.receive(0, 1);
    FAIL() << "lost message not surfaced";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kTimeout);
  }
  EXPECT_EQ(router.fault_report().stats.timeouts, 1u);
}

TEST(RouterFaults, ModerateLossHealsByRetransmission) {
  FaultPlanConfig cfg = plan_base(11);
  cfg.drop = 0.4;
  cfg.max_retries = 8;  // enough budget that no message is truly lost here
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  const std::size_t kMessages = 32;
  for (std::size_t i = 0; i < kMessages; ++i)
    router.send(0, 1, bytes_of({static_cast<int>(i)}));
  for (std::size_t i = 0; i < kMessages; ++i) {
    const auto payload = router.receive(0, 1);
    ASSERT_EQ(payload->size(), 1u);
    EXPECT_EQ((*payload)[0], static_cast<std::uint8_t>(i));  // FIFO preserved
  }
  EXPECT_EQ(router.pending(), 0u);
  const FaultReport report = router.fault_report();
  EXPECT_GT(report.stats.retransmits, 0u);
  EXPECT_EQ(report.stats.giveups, 0u);
}

TEST(RouterFaults, CorruptionIsDetectedAndRetransmitted) {
  FaultPlanConfig cfg = plan_base(13);
  cfg.corrupt = 0.4;
  cfg.max_retries = 8;
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  const std::size_t kMessages = 32;
  for (std::size_t i = 0; i < kMessages; ++i)
    router.send(0, 1, bytes_of({static_cast<int>(i), 0x5A}));
  for (std::size_t i = 0; i < kMessages; ++i) {
    const auto payload = router.receive(0, 1);
    EXPECT_EQ((*payload), bytes_of({static_cast<int>(i), 0x5A}))
        << "corruption leaked through at message " << i;
  }
  EXPECT_EQ(router.pending(), 0u);
  const FaultReport report = router.fault_report();
  EXPECT_GT(report.stats.crc_detected, 0u);
  EXPECT_GT(report.stats.retransmits, 0u);
}

TEST(RouterFaults, DuplicatesAreDroppedOnReceive) {
  FaultPlanConfig cfg = plan_base(17);
  cfg.duplicate = 1.0;
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  router.send(0, 1, bytes_of({8}));
  EXPECT_EQ(router.pending(), 2u);  // original + duplicate on the wire
  EXPECT_EQ((*router.receive(0, 1)), bytes_of({8}));
  EXPECT_EQ(router.pending(), 0u);  // dedup purged the copy
  EXPECT_EQ(router.fault_report().stats.duplicates_dropped, 1u);
}

TEST(RouterFaults, ReordersAreHealedBySequence) {
  FaultPlanConfig cfg = plan_base(19);
  cfg.reorder = 1.0;
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  router.send(0, 1, bytes_of({1}));
  router.send(0, 1, bytes_of({2}));  // swapped behind message #0 in the box
  EXPECT_EQ((*router.receive(0, 1)), bytes_of({1}));
  EXPECT_EQ((*router.receive(0, 1)), bytes_of({2}));
  EXPECT_EQ(router.pending(), 0u);
  EXPECT_EQ(router.fault_report().stats.reorders_healed, 1u);
}

TEST(RouterFaults, TamperPassesTheChannelUndetected) {
  FaultPlanConfig cfg = plan_base(23);
  cfg.tamper = 1.0;
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  const auto original = bytes_of({0x11, 0x22, 0x33, 0x44});
  router.send(0, 1, original);
  const auto payload = router.receive(0, 1);  // no ChannelError: CRC matches
  ASSERT_EQ(payload->size(), original.size());
  std::size_t flipped_bits = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    std::uint8_t diff = (*payload)[i] ^ original[i];
    while (diff != 0) {
      flipped_bits += diff & 1u;
      diff >>= 1;
    }
  }
  EXPECT_EQ(flipped_bits, 1u);  // exactly one adversarial bit flip
  EXPECT_EQ(router.fault_report().stats.crc_detected, 0u);
}

TEST(RouterFaults, CrashMutesSenderAndSurfacesAsPeerDead) {
  FaultPlanConfig cfg = plan_base(29);
  cfg.crashes.push_back(CrashPoint{1, Phase::kPhase2});
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{3, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  EXPECT_FALSE(router.party_dead(1));
  router.send(1, 0, bytes_of({1}));  // still alive in phase 1
  EXPECT_EQ((*router.receive(1, 0)), bytes_of({1}));

  router.set_phase(Phase::kPhase2);
  EXPECT_TRUE(router.party_dead(1));
  EXPECT_EQ(router.dead_parties(), std::vector<std::size_t>{1});
  // Its sends vanish...
  router.send(1, 0, bytes_of({2}));
  try {
    (void)router.receive(1, 0);
    FAIL() << "dead peer not surfaced";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kPeerDead);
  }
  // ...and sends TO it fail typed as well.
  router.send(0, 1, bytes_of({3}));
  try {
    (void)router.receive(0, 1);
    FAIL() << "send to dead peer not surfaced";
  } catch (const ChannelError& e) {
    EXPECT_EQ(e.kind(), ChannelErrorKind::kPeerDead);
  }
  EXPECT_EQ(
      router.fault_report().stats.injected[static_cast<std::size_t>(
          FaultKind::kCrash)],
      1u);
}

TEST(RouterFaults, DelaySpikeStretchesTheVirtualTimeline) {
  FaultPlanConfig cfg = plan_base(31);
  cfg.delay = 1.0;
  cfg.delay_spike_s = 2.5;
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  router.send(0, 1, bytes_of({1, 2, 3}));
  router.next_round();
  (void)router.receive(0, 1);
  ASSERT_EQ(trace.transfers().size(), 1u);
  EXPECT_EQ(trace.transfers()[0].delay_s, 2.5);
  const runtime::CommRegistry comm = comm_report(trace);
  ASSERT_EQ(comm.flows().size(), 1u);
  const runtime::FlowRecord f = comm.flows()[0];
  EXPECT_EQ(f.phase, Phase::kPhase1);
  EXPECT_GE(f.t.deliver_s - f.t.send_s, 2.5);
  EXPECT_GE(f.t.queue_s, 2.5);  // the spike counts as queueing
  EXPECT_NEAR(f.t.deliver_s - f.t.send_s, f.t.tx_s + f.t.prop_s + f.t.queue_s,
              1e-12);
  EXPECT_GE(comm.virtual_seconds(), 2.5);
  EXPECT_EQ(comm.phase_virtual_seconds(Phase::kPhase1),
            comm.virtual_seconds());
  EXPECT_EQ(router.fault_report()
                .stats.injected[static_cast<std::size_t>(FaultKind::kDelay)],
            1u);
}

TEST(RouterFaults, IdenticalPlansProduceIdenticalReports) {
  FaultPlanConfig cfg = plan_base(37);
  cfg.drop = 0.3;
  cfg.duplicate = 0.2;
  cfg.delay = 0.2;
  const FaultPlan plan_a{cfg};
  const FaultPlan plan_b{cfg};
  auto run = [](const FaultPlan& plan) {
    runtime::TraceRecorder trace;
    Router::Config rcfg;
    rcfg.faults = &plan;
    Router router{3, trace, rcfg};
    router.set_phase(Phase::kPhase1);
    for (std::size_t i = 0; i < 16; ++i) {
      router.send(0, 1, bytes_of({static_cast<int>(i)}));
      router.send(2, 1, bytes_of({static_cast<int>(i + 100)}));
    }
    for (std::size_t i = 0; i < 16; ++i) {
      try { (void)router.receive(0, 1); } catch (const ChannelError&) {}
      try { (void)router.receive(2, 1); } catch (const ChannelError&) {}
    }
    return router.fault_report().to_json();
  };
  EXPECT_EQ(run(plan_a), run(plan_b));
}

TEST(FaultReportJson, CarriesSchemaAndCounters) {
  FaultPlanConfig cfg = plan_base(41);
  cfg.drop = 1.0;
  cfg.max_retries = 1;
  const FaultPlan plan{cfg};
  runtime::TraceRecorder trace;
  Router::Config rcfg;
  rcfg.faults = &plan;
  Router router{2, trace, rcfg};
  router.set_phase(Phase::kPhase1);
  router.send(0, 1, bytes_of({1}));
  EXPECT_THROW((void)router.receive(0, 1), ChannelError);
  const std::string json = router.fault_report().to_json();
  EXPECT_NE(json.find("\"schema\": \"ppgr.fault.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"injected_drop\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"giveups\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
}

}  // namespace
}  // namespace ppgr::net

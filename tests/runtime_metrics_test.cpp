// Unit tests for the crypto-op metrics layer (runtime/metrics.h): counter
// and histogram correctness, the disabled-mode no-op contract of the
// thread-local sink funnel, and merge determinism when per-task buffers are
// filled concurrently under the thread pool. Also the export string builder
// (runtime/json.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/json.h"
#include "runtime/metrics.h"
#include "runtime/span.h"
#include "runtime/thread_pool.h"

namespace ppgr::runtime {
namespace {

TEST(OpTally, AccumulatesAndReportsEmpty) {
  OpTally a;
  EXPECT_TRUE(a.empty());
  a.v[static_cast<std::size_t>(CryptoOp::kGroupExp)] = 3;
  EXPECT_FALSE(a.empty());
  OpTally b;
  b.v[static_cast<std::size_t>(CryptoOp::kGroupExp)] = 4;
  b.v[static_cast<std::size_t>(CryptoOp::kGroupMul)] = 1;
  a += b;
  EXPECT_EQ(a[CryptoOp::kGroupExp], 7u);
  EXPECT_EQ(a[CryptoOp::kGroupMul], 1u);
}

TEST(LatencyHistogram, PowerOfTwoBinning) {
  LatencyHistogram h;
  h.add_seconds(1e-9);   // 1 ns -> bin 0
  h.add_seconds(3e-9);   // 3 ns -> bin 1 ([2, 4))
  h.add_seconds(5e-9);   // 5 ns -> bin 2 ([4, 8))
  h.add_seconds(0.0);    // sub-ns clamps into bin 0
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[1], 1u);
  EXPECT_EQ(h.bins()[2], 1u);
  EXPECT_NEAR(h.total_seconds(), 9e-9, 1e-15);
  EXPECT_EQ(LatencyHistogram::bin_floor_ns(10), 1024u);

  // Out-of-range samples clamp into the last bin instead of overflowing.
  LatencyHistogram big;
  big.add_seconds(1e6);  // ~11.5 days
  EXPECT_EQ(big.bins()[LatencyHistogram::kBins - 1], 1u);

  h.merge(big);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bins()[LatencyHistogram::kBins - 1], 1u);
}

TEST(MetricsBuffer, RoutesByContext) {
  MetricsBuffer buf;
  EXPECT_TRUE(buf.empty());
  // No context yet: counts land in the (setup, orchestrator) slot.
  buf.add(CryptoOp::kGroupMul);
  buf.set_context(Phase::kPhase2, 3);
  buf.add(CryptoOp::kGroupExp, 5);
  // Switching back to an existing context reuses its slot.
  buf.set_context(Phase::kSetup, kOrchestratorParty);
  buf.add(CryptoOp::kGroupMul);
  ASSERT_EQ(buf.slots().size(), 2u);
  EXPECT_EQ(buf.slots()[0].phase, Phase::kSetup);
  EXPECT_EQ(buf.slots()[0].party, kOrchestratorParty);
  EXPECT_EQ(buf.slots()[0].tally[CryptoOp::kGroupMul], 2u);
  EXPECT_EQ(buf.slots()[1].phase, Phase::kPhase2);
  EXPECT_EQ(buf.slots()[1].party, 3);
  EXPECT_EQ(buf.slots()[1].tally[CryptoOp::kGroupExp], 5u);
}

TEST(CountOp, NoSinkIsANoOp) {
  // The default state: no MetricsScope installed anywhere on this thread.
  ASSERT_EQ(current_metrics_sink(), nullptr);
  count_op(CryptoOp::kGroupExp);  // must not crash or allocate a sink
  EXPECT_EQ(current_metrics_sink(), nullptr);
  { const ScopedOpTimer t{CryptoOp::kElGamalEncrypt}; }
  EXPECT_EQ(current_metrics_sink(), nullptr);
}

TEST(MetricsScope, InstallsAndRestoresSink) {
  MetricsBuffer outer, inner;
  {
    const MetricsScope a{&outer, Phase::kPhase1, 1};
    EXPECT_EQ(current_metrics_sink(), &outer);
    count_op(CryptoOp::kGroupMul);
    {
      const MetricsScope b{&inner, Phase::kPhase2, 2};
      EXPECT_EQ(current_metrics_sink(), &inner);
      count_op(CryptoOp::kGroupMul);
      // A null buffer keeps the previous sink installed (no-op scope).
      const MetricsScope c{nullptr, Phase::kPhase3, 3};
      EXPECT_EQ(current_metrics_sink(), &inner);
    }
    EXPECT_EQ(current_metrics_sink(), &outer);
  }
  EXPECT_EQ(current_metrics_sink(), nullptr);
  EXPECT_EQ(outer.slots().size(), 1u);
  EXPECT_EQ(outer.slots()[0].tally[CryptoOp::kGroupMul], 1u);
  EXPECT_EQ(inner.slots()[0].tally[CryptoOp::kGroupMul], 1u);
}

TEST(ScopedOpTimer, CountsAndRecordsLatency) {
  MetricsBuffer buf;
  {
    const MetricsScope scope{&buf, Phase::kPhase2, 1};
    const ScopedOpTimer t{CryptoOp::kCompareCircuit};
  }
  EXPECT_EQ(buf.slots()[0].tally[CryptoOp::kCompareCircuit], 1u);
  const auto& h =
      buf.histograms()[static_cast<std::size_t>(CryptoOp::kCompareCircuit)];
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.total_seconds(), 0.0);
}

TEST(MetricsRegistry, AbsorbMergesByPhaseAndParty) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  MetricsBuffer a, b;
  a.set_context(Phase::kPhase2, 1);
  a.add(CryptoOp::kGroupExp, 10);
  b.set_context(Phase::kPhase2, 1);
  b.add(CryptoOp::kGroupExp, 5);
  b.set_context(Phase::kPhase3, 2);
  b.add(CryptoOp::kGroupMul, 7);
  reg.absorb(a);
  reg.absorb(b);
  EXPECT_TRUE(a.empty());  // absorb clears the buffer
  EXPECT_TRUE(b.empty());

  EXPECT_EQ(reg.total(CryptoOp::kGroupExp), 15u);
  EXPECT_EQ(reg.phase_totals(Phase::kPhase2)[CryptoOp::kGroupExp], 15u);
  EXPECT_EQ(reg.phase_totals(Phase::kPhase3)[CryptoOp::kGroupMul], 7u);
  const auto slots = reg.slots();
  ASSERT_EQ(slots.size(), 2u);  // merged, not appended
  EXPECT_EQ(slots[0].phase, Phase::kPhase2);
  EXPECT_EQ(slots[1].phase, Phase::kPhase3);

  reg.clear();
  EXPECT_TRUE(reg.empty());
}

TEST(MetricsRegistry, JsonModes) {
  MetricsRegistry reg;
  reg.add(Phase::kPhase2, 1, CryptoOp::kGroupExp, 3);
  MetricsBuffer buf;
  {
    const MetricsScope scope{&buf, Phase::kPhase2, 1};
    const ScopedOpTimer t{CryptoOp::kGroupExp};
  }
  reg.absorb(buf);

  const std::string det = reg.to_json(/*include_timing=*/false);
  EXPECT_NE(det.find("\"schema\": \"ppgr.metrics.v1\""), std::string::npos);
  EXPECT_NE(det.find("\"deterministic\": true"), std::string::npos);
  EXPECT_NE(det.find("\"group_exp\": 4"), std::string::npos);
  // Timing fields only appear in the nondeterministic mode.
  EXPECT_EQ(det.find("total_seconds"), std::string::npos);
  const std::string timed = reg.to_json(/*include_timing=*/true);
  EXPECT_NE(timed.find("\"deterministic\": false"), std::string::npos);
  EXPECT_NE(timed.find("total_seconds"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentPerTaskBuffersMergeDeterministically) {
  // The engine's pattern: one MetricsBuffer per task, tasks run on the
  // pool, buffers absorbed in task-index order after the barrier. The
  // deterministic JSON must be byte-identical for any thread count.
  constexpr std::size_t kTasks = 64;
  const auto run_at = [](std::size_t threads) {
    ThreadPool pool{threads};
    std::vector<MetricsBuffer> bufs(kTasks);
    pool.parallel_for(kTasks, [&](std::size_t i) {
      const MetricsScope scope{&bufs[i], Phase::kPhase2,
                               static_cast<std::int32_t>(i % 4)};
      for (std::size_t r = 0; r <= i; ++r) count_op(CryptoOp::kGroupMul);
      count_op(CryptoOp::kGroupExp, i);
    });
    MetricsRegistry reg;
    for (auto& buf : bufs) reg.absorb(buf);
    return reg.to_json(/*include_timing=*/false);
  };
  const std::string serial = run_at(1);
  EXPECT_EQ(serial, run_at(4));
  EXPECT_EQ(serial, run_at(0));  // hardware concurrency

  // And the totals are the closed-form sums, i.e. nothing was lost or
  // double-counted across threads.
  ThreadPool pool{4};
  std::vector<MetricsBuffer> bufs(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    const MetricsScope scope{&bufs[i], Phase::kPhase2, 0};
    for (std::size_t r = 0; r <= i; ++r) count_op(CryptoOp::kGroupMul);
  });
  MetricsRegistry reg;
  for (auto& buf : bufs) reg.absorb(buf);
  EXPECT_EQ(reg.total(CryptoOp::kGroupMul), kTasks * (kTasks + 1) / 2);
}

TEST(PhaseReport, ListsPhasesAndTotals) {
  MetricsRegistry reg;
  reg.add(Phase::kPhase2, 1, CryptoOp::kGroupExp, 42);
  const std::string report = phase_report(reg, nullptr);
  EXPECT_NE(report.find("phase2"), std::string::npos);
  EXPECT_NE(report.find("42"), std::string::npos);
  EXPECT_NE(report.find("total"), std::string::npos);
}

// A field longer than any fixed buffer comes back whole, behind what the
// string already held and with the rest of the format after it.
TEST(Json, AppendfNeverTruncates) {
  const std::string field(1000, 'x');
  std::string out = "head:";
  appendf(out, "[%s|%d]", field.c_str(), 42);
  EXPECT_EQ(out, "head:[" + field + "|42]");
  appendf(out, "%s", "");
  appendf(out, "%zu", std::size_t{7});
  EXPECT_EQ(out, "head:[" + field + "|42]7");
}

TEST(Json, EscapesStringsAndListsIndices) {
  std::string out;
  append_json_string(out, "a\"b\\c\n");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\u000a\"");
  out.clear();
  append_index_list(out, {});
  append_index_list(out, {3, 1, 2});
  EXPECT_EQ(out, "[][3, 1, 2]");
}

}  // namespace
}  // namespace ppgr::runtime

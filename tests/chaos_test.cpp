// Chaos soak: a seeded fault matrix (drop / duplicate / reorder / corrupt /
// tamper / delay / mixed, plus party-crash x phase) driven through BOTH
// frameworks (HE and SS), with and without degrade-on-dropout. The contract
// under test:
//
//   1. zero hangs, zero aborts, zero UB — every scenario ends in either a
//      completed run or a typed core::ProtocolFault;
//   2. when a run under an honest-fault plan (drop/corrupt/delay/crash — the
//      channel layer detects and heals or surfaces these) completes, the
//      ranking is CORRECT: survivors rank exactly as the fault-free
//      reference over the survivor subset, dropped parties rank 0;
//   3. the fault schedule is part of the deterministic contract: re-running
//      a scenario — including at a different parallelism — reproduces the
//      identical outcome, ranks, fault coordinates and fault report JSON.
//
// Tamper is the adversarial exception for (2): a tampered frame re-encodes
// with a valid CRC, so the channel cannot detect it. Those scenarios assert
// only (1) and (3); end-to-end detection of phase-2 tamper via the Schnorr
// proofs lives in security_test.cpp. See DESIGN.md "Failure model".
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/ss_framework.h"

namespace ppgr::core {
namespace {

using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;

constexpr std::size_t kParties = 5;
constexpr std::size_t kTopK = 2;
constexpr std::size_t kSsThreshold = 2;

ProblemSpec chaos_spec() {
  return ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
}

struct Inputs {
  AttrVec v0, w;
  std::vector<AttrVec> infos;
};

Inputs make_inputs(std::uint64_t seed) {
  const ProblemSpec spec = chaos_spec();
  ChaChaRng rng{seed};
  Inputs in;
  in.v0.resize(spec.m);
  in.w.resize(spec.m);
  for (auto& x : in.v0) x = rng.below_u64(std::uint64_t{1} << spec.d1);
  for (auto& x : in.w) x = rng.below_u64(std::uint64_t{1} << spec.d2);
  for (std::size_t j = 0; j < kParties; ++j) {
    AttrVec v(spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << spec.d1);
    in.infos.push_back(std::move(v));
  }
  return in;
}

// Everything a scenario can produce, flattened for bit-identity comparison.
struct Outcome {
  bool completed = false;
  std::vector<std::size_t> ranks;
  std::vector<std::size_t> active;
  std::vector<std::size_t> dropped;
  runtime::Phase fault_phase = runtime::Phase::kSetup;
  std::size_t fault_round = 0;
  std::size_t fault_party = kNoParty;
  std::string fault_what;
  std::string report_json;

  bool operator==(const Outcome&) const = default;
};

const group::Group& chaos_group() {
  static const auto g = make_group(GroupId::kDlTest256);
  return *g;
}

Outcome run_scenario(bool ss, const net::FaultPlanConfig& fpc, bool degrade,
                     std::uint64_t input_seed, std::size_t parallelism) {
  const Inputs in = make_inputs(input_seed);
  const net::FaultPlan plan{fpc};

  FrameworkConfig base;
  base.spec = chaos_spec();
  base.n = kParties;
  base.k = kTopK;
  base.group = &chaos_group();
  base.dot_field = &default_dot_field();
  base.parallelism = parallelism;
  base.fault_plan = &plan;
  base.degrade_on_dropout = degrade;

  ChaChaRng rng{input_seed ^ 0x9e3779b97f4a7c15ull};
  Outcome out;
  try {
    if (ss) {
      SsFrameworkConfig cfg;
      cfg.base = base;
      cfg.threshold = kSsThreshold;
      const SsFrameworkResult res =
          run_ss_framework(cfg, in.v0, in.w, in.infos, rng);
      out.completed = true;
      out.ranks = res.ranks;
      out.active = res.active_parties;
      out.dropped = res.dropped_parties;
      if (res.faults) out.report_json = res.faults->to_json();
    } else {
      const FrameworkResult res =
          run_framework(base, in.v0, in.w, in.infos, rng);
      out.completed = true;
      out.ranks = res.ranks;
      out.active = res.active_parties;
      out.dropped = res.dropped_parties;
      if (res.faults) out.report_json = res.faults->to_json();
    }
  } catch (const ProtocolFault& pf) {
    out.completed = false;
    out.fault_phase = pf.info().phase;
    out.fault_round = pf.info().round;
    out.fault_party = pf.info().party;
    out.fault_what = pf.what();
    out.report_json = pf.report().to_json();
  }
  // Any other exception type escapes and fails the test: the contract is
  // "completed or typed ProtocolFault", nothing else.
  return out;
}

bool gains_distinct(const Inputs& in, const std::vector<std::size_t>& ids) {
  std::vector<Int> gains;
  for (const std::size_t id : ids)
    gains.push_back(gain(chaos_spec(), in.v0, in.w, in.infos[id - 1]));
  std::sort(gains.begin(), gains.end());
  return std::adjacent_find(gains.begin(), gains.end()) == gains.end();
}

// Contract (2): a completed run ranks the survivor subset exactly as the
// fault-free reference over that subset; dropped parties rank 0.
void expect_correct_ranking(const Outcome& out, std::uint64_t input_seed,
                            const std::string& label) {
  ASSERT_TRUE(out.completed) << label;
  const Inputs in = make_inputs(input_seed);
  ASSERT_EQ(out.ranks.size(), kParties) << label;
  std::vector<std::size_t> active = out.active;
  if (active.empty())
    for (std::size_t j = 1; j <= kParties; ++j) active.push_back(j);
  for (const std::size_t id : out.dropped)
    EXPECT_EQ(out.ranks[id - 1], 0u) << label << " dropped party " << id;
  if (!gains_distinct(in, active)) return;  // ties: rank order unspecified
  std::vector<AttrVec> sub_infos;
  for (const std::size_t id : active) sub_infos.push_back(in.infos[id - 1]);
  const std::vector<std::size_t> ref =
      reference_ranks(chaos_spec(), in.v0, in.w, sub_infos);
  for (std::size_t i = 0; i < active.size(); ++i)
    EXPECT_EQ(out.ranks[active[i] - 1], ref[i])
        << label << " active party " << active[i];
}

struct KindConfig {
  const char* name;
  const char* spec;
  bool honest;  // channel-detectable: completion implies correctness
};

constexpr KindConfig kKinds[] = {
    {"drop", "drop=0.12", true},
    {"dup", "dup=0.35", true},
    {"reorder", "reorder=0.35", true},
    {"corrupt", "corrupt=0.12", true},
    {"tamper", "tamper=0.08", false},
    {"delay", "delay=0.3,delay_s=0.75", true},
    {"mix", "drop=0.05,dup=0.1,corrupt=0.05,delay=0.1", true},
};
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7};

TEST(Chaos, ProbabilisticFaultMatrixSoak) {
  std::size_t scenarios = 0, completed = 0, faulted = 0;
  for (const bool ss : {false, true}) {
    for (const KindConfig& kind : kKinds) {
      for (const std::uint64_t seed : kSeeds) {
        for (const bool degrade : {false, true}) {
          net::FaultPlanConfig fpc = net::parse_fault_plan(kind.spec);
          fpc.seed = seed;
          const std::uint64_t input_seed = 1000 + seed;
          const std::string label = std::string(ss ? "ss/" : "he/") +
                                    kind.name + "/seed=" +
                                    std::to_string(seed) +
                                    (degrade ? "/degrade" : "");
          SCOPED_TRACE(label);
          const Outcome out = run_scenario(ss, fpc, degrade, input_seed, 1);
          ++scenarios;
          if (out.completed) {
            ++completed;
            if (kind.honest) expect_correct_ranking(out, input_seed, label);
          } else {
            ++faulted;
            EXPECT_FALSE(out.fault_what.empty()) << label;
            EXPECT_NE(out.fault_phase, runtime::Phase::kSetup) << label;
            EXPECT_NE(out.report_json.find("ppgr.fault.v1"),
                      std::string::npos)
                << label;
          }
          // Contract (3): re-run at parallelism 2 — bit-identical outcome.
          if (seed <= 2) {
            const Outcome p2 = run_scenario(ss, fpc, degrade, input_seed, 2);
            EXPECT_EQ(out, p2) << label << " diverged at parallelism 2";
          }
        }
      }
    }
  }
  EXPECT_EQ(scenarios, 196u);
  // The matrix must genuinely exercise both sides of the contract.
  EXPECT_GT(completed, 0u);
  EXPECT_GT(faulted, 0u);
}

TEST(Chaos, CrashMatrixSoak) {
  std::size_t scenarios = 0, degraded_completions = 0;
  for (const bool ss : {false, true}) {
    for (const std::size_t party : {1u, 2u, 3u}) {
      for (const int phase : {1, 2, 3}) {
        for (const bool degrade : {false, true}) {
          net::FaultPlanConfig fpc;
          fpc.seed = 90 + party;
          fpc.crashes.push_back(net::CrashPoint{
              party, static_cast<runtime::Phase>(phase)});
          const std::uint64_t input_seed = 2000 + party * 10 + phase;
          const std::string label =
              std::string(ss ? "ss" : "he") + "/crash=" +
              std::to_string(party) + "@" + std::to_string(phase) +
              (degrade ? "/degrade" : "");
          SCOPED_TRACE(label);
          const Outcome out = run_scenario(ss, fpc, degrade, input_seed, 1);
          ++scenarios;
          if (out.completed) {
            expect_correct_ranking(out, input_seed, label);
            if (!out.dropped.empty()) {
              ++degraded_completions;
              EXPECT_TRUE(degrade) << label;
              EXPECT_EQ(out.dropped, std::vector<std::size_t>{party}) << label;
              EXPECT_EQ(out.active.size(), kParties - 1) << label;
            }
          } else {
            EXPECT_FALSE(out.fault_what.empty()) << label;
            EXPECT_NE(out.fault_what.find("phase"), std::string::npos)
                << label;
            EXPECT_NE(out.report_json.find("\"injected_crash\": 1"),
                      std::string::npos)
                << label;
          }
          // A phase-1 crash with degrade-on-dropout MUST NOT abort: the
          // survivors (4 >= 2t+1 for t=1) carry the session.
          if (phase == 1 && degrade) {
            EXPECT_TRUE(out.completed) << label << " failed to degrade";
          }
          // Phase >= 2 crashes are cryptographically committed: degrade
          // never masks them.
          if (phase >= 2) {
            EXPECT_FALSE(out.completed && !out.dropped.empty()) << label;
          }
          const Outcome p2 = run_scenario(ss, fpc, degrade, input_seed, 2);
          EXPECT_EQ(out, p2) << label << " diverged at parallelism 2";
        }
      }
    }
  }
  EXPECT_EQ(scenarios, 36u);
  EXPECT_GT(degraded_completions, 0u);
}

// Hardware-concurrency spot check: the full matrix above runs at
// parallelism 1 vs 2; here a slice re-runs at parallelism 0 (= hardware
// concurrency) to pin the "any thread count" half of the invariant.
TEST(Chaos, HardwareConcurrencySlice) {
  for (const bool ss : {false, true}) {
    for (const KindConfig& kind : {kKinds[0], kKinds[3], kKinds[6]}) {
      net::FaultPlanConfig fpc = net::parse_fault_plan(kind.spec);
      fpc.seed = 5;
      const std::uint64_t input_seed = 1005;
      const std::string label =
          std::string(ss ? "ss/" : "he/") + kind.name + "/hw";
      SCOPED_TRACE(label);
      const Outcome p1 = run_scenario(ss, fpc, true, input_seed, 1);
      const Outcome hw = run_scenario(ss, fpc, true, input_seed, 0);
      EXPECT_EQ(p1, hw) << label << " diverged at hardware concurrency";
    }
  }
}

// A fault plan with an empty schedule must leave results bit-identical to a
// run with no plan installed at all (modulo the report object existing):
// the fault layer is a strict no-op on the payload path.
TEST(Chaos, InertPlanMatchesNoPlan) {
  const Inputs in = make_inputs(42);
  FrameworkConfig cfg;
  cfg.spec = chaos_spec();
  cfg.n = kParties;
  cfg.k = kTopK;
  cfg.group = &chaos_group();
  cfg.dot_field = &default_dot_field();

  ChaChaRng r1{7}, r2{7};
  const FrameworkResult plain = run_framework(cfg, in.v0, in.w, in.infos, r1);

  net::FaultPlanConfig fpc;
  fpc.seed = 3;
  fpc.max_retries = 9;  // recovery knobs alone don't enable injection
  const net::FaultPlan plan{fpc};
  ASSERT_FALSE(plan.enabled());
  FrameworkConfig cfg2 = cfg;
  cfg2.fault_plan = &plan;
  const FrameworkResult gated = run_framework(cfg2, in.v0, in.w, in.infos, r2);

  EXPECT_EQ(plain.ranks, gated.ranks);
  EXPECT_EQ(plain.submitted_ids, gated.submitted_ids);
  EXPECT_EQ(plain.betas, gated.betas);
  EXPECT_EQ(plain.trace.total_bytes(), gated.trace.total_bytes());
  // A report object exists (a plan pointer was installed) but records
  // nothing: no frames, no injections, no recoveries.
  ASSERT_TRUE(gated.faults.has_value());
  EXPECT_EQ(gated.faults->stats.injected_total(), 0u);
  EXPECT_EQ(gated.faults->stats.retransmits, 0u);
}

}  // namespace
}  // namespace ppgr::core

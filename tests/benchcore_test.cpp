// Tests for the benchmark cost model: the mock group's consistency, the
// closed-form op model, the phase-1 helper, the β-rank rule and the message
// schedule against metered protocol runs on every group family, calibration
// sanity and model scaling laws.
#include <gtest/gtest.h>

#include "benchcore/model.h"
#include "group/mock_group.h"

namespace ppgr::benchcore {
namespace {

using group::GroupId;
using group::MockGroup;
using mpz::ChaChaRng;
using mpz::Nat;

TEST(MockGroup, IsAConsistentGroup) {
  const MockGroup g{"mock"};
  ChaChaRng rng{500};
  const auto x = g.random_nonzero_scalar(rng);
  const auto y = g.random_nonzero_scalar(rng);
  // Homomorphism and inverse laws (the properties the protocol relies on).
  const auto gx = g.exp_g(x), gy = g.exp_g(y);
  EXPECT_TRUE(g.eq(g.mul(gx, gy), g.exp_g(Nat::add(x, y) % g.order())));
  EXPECT_TRUE(g.is_identity(g.mul(gx, g.inv(gx))));
  EXPECT_TRUE(g.eq(g.exp(gx, y), g.exp_g(Nat::mul(x, y) % g.order())));
  // Declared order is a multiple of every element's order.
  EXPECT_TRUE(g.is_identity(g.exp(gx, g.order())));
}

TEST(MockGroup, ElGamalAndProofsWorkOverIt) {
  // The counted framework run exercises ElGamal + Schnorr over the mock
  // group; both must be *correct* there (only security is absent).
  const MockGroup g{"mock"};
  ChaChaRng rng{501};
  const auto kp = crypto::keygen(g, rng);
  const auto ct = crypto::encrypt_exp(g, kp.y, Nat{}, rng);
  EXPECT_TRUE(crypto::decrypts_to_zero(g, kp.x, ct));
  const auto nz = crypto::encrypt_exp(g, kp.y, Nat{3}, rng);
  EXPECT_FALSE(crypto::decrypts_to_zero(g, kp.x, nz));
  const auto proof = crypto::schnorr_prove(g, kp.x, 4, rng);
  EXPECT_TRUE(
      crypto::schnorr_verify(g, kp.y, crypto::schnorr_proof(g, proof)));
}

TEST(Model, ExecutedOpsMatchMeteredRunsOnEveryGroup) {
  // model_he_ops (a) is the closed form of what the metrics layer measures:
  // per phase, every audited counter — on the Schnorr, EC and mock families
  // alike. Its inputs come from phase 1 alone:
  // phase1_betas must reproduce the run's β on the same stream layout, and
  // the β-rank rule its ranks and submitted set.
  const core::ProblemSpec spec{.m = 2, .t = 1, .d1 = 2, .d2 = 1, .h = 2};
  const auto dl = group::make_group(GroupId::kDlTest256);
  const auto ec = group::make_group(GroupId::kEcP192);
  const MockGroup mock{"mock"};
  const std::vector<const group::Group*> groups{dl.get(), ec.get(), &mock};
  for (const group::Group* g : groups) {
    for (const std::size_t n : {2u, 3u, 5u, 8u}) {
      core::FrameworkConfig cfg;
      cfg.spec = spec;
      cfg.n = n;
      cfg.k = 2;
      cfg.group = g;
      cfg.dot_field = &core::default_dot_field();
      cfg.metrics = true;
      const Instance inst = random_instance(spec, n, 40 + n);
      ChaChaRng rng{41 + n};
      ChaChaRng phase1_rng{41 + n};
      const auto result =
          core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);
      const auto betas =
          core::phase1_betas(cfg, inst.v0, inst.w, inst.infos, phase1_rng);
      EXPECT_EQ(betas, result.betas) << g->name() << " n=" << n;
      const auto ranks = beta_ranks(betas);
      EXPECT_EQ(ranks, result.ranks) << g->name() << " n=" << n;
      EXPECT_EQ(top_k_ids(ranks, cfg.k), result.submitted_ids)
          << g->name() << " n=" << n;
      const HeOpModel model = model_he_ops(spec, n, beta_popcounts(betas));
      for (std::size_t p = 0; p < runtime::kPhaseCount; ++p) {
        const auto phase = static_cast<runtime::Phase>(p);
        const runtime::OpTally measured = result.metrics->phase_totals(phase);
        for (std::size_t i = 0; i < runtime::kOpCount; ++i) {
          const auto op = static_cast<runtime::CryptoOp>(i);
          if (!audited_op(op)) continue;
          EXPECT_EQ(measured[op], model.phase_ops[p][op])
              << g->name() << " n=" << n << " "
              << runtime::phase_name(phase) << " " << runtime::op_name(op);
        }
      }
    }
  }
}

TEST(Model, ScheduleEqualsTheRecordedTrace) {
  // model_he_schedule is every message of a run in the Router's order, and
  // its round count the Router's closed rounds (the empty joint-key round
  // included).
  const core::ProblemSpec spec{.m = 2, .t = 1, .d1 = 2, .d2 = 1, .h = 2};
  for (const GroupId id : {GroupId::kDlTest256, GroupId::kEcP192}) {
    const auto g = group::make_group(id);
    for (const std::size_t n : {2u, 3u, 5u}) {
      core::FrameworkConfig cfg;
      cfg.spec = spec;
      cfg.n = n;
      cfg.k = 2;
      cfg.group = g.get();
      cfg.dot_field = &core::default_dot_field();
      cfg.metrics = true;
      const Instance inst = random_instance(spec, n, 60 + n);
      ChaChaRng rng{61 + n};
      const auto result =
          core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);
      const HeSchedule s = model_he_schedule(
          spec, n, *g, *cfg.dot_field, cfg.dot_s, result.submitted_ids);
      const auto& trace = result.trace.transfers();
      ASSERT_EQ(s.transfers.size(), trace.size()) << g->name() << " n=" << n;
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const runtime::Transfer& want = s.transfers[i];
        EXPECT_EQ(want.round, trace[i].round) << g->name() << " " << i;
        EXPECT_EQ(want.src, trace[i].src) << g->name() << " " << i;
        EXPECT_EQ(want.dst, trace[i].dst) << g->name() << " " << i;
        EXPECT_EQ(want.bytes, trace[i].bytes) << g->name() << " " << i;
      }
      EXPECT_EQ(s.rounds, result.comm->rounds()) << g->name() << " n=" << n;
      EXPECT_EQ(s.rounds, n + 8);
      EXPECT_EQ(s.message_rounds(), result.trace.rounds());
    }
  }
}

TEST(Model, NaiveProfileReproducesTheFigureCounts) {
  // model_he_ops (b) is what the figure benches price. These totals were
  // measured by counting every group call of a full protocol run with the
  // naive evaluation over the same instances (deserializations since every
  // receiver decodes its own copy of each β broadcast: + n(n-2)·l·2); the
  // closed form must reproduce them exactly.
  const core::ProblemSpec spec{.m = 3, .t = 1, .d1 = 5, .d2 = 4, .h = 5};
  struct Pin {
    std::size_t n;
    std::uint64_t seed;
    OpCounts totals;
  };
  const Pin pins[] = {
      {3, 99, {.muls = 1617, .exps = 1614, .gexps = 540, .invs = 432,
               .serializations = 1110, .deserializations = 1260}},
      {5, 1, {.muls = 6401, .exps = 8316, .gexps = 1726, .invs = 2400,
              .serializations = 5626, .deserializations = 6376}},
      {10, 1, {.muls = 39328, .exps = 69558, .gexps = 7178, .invs = 21600,
               .serializations = 47156, .deserializations = 51156}},
      {5, 2, {.muls = 6241, .exps = 8156, .gexps = 1566, .invs = 2400,
              .serializations = 5626, .deserializations = 6376}},
      {10, 2, {.muls = 38896, .exps = 69126, .gexps = 6746, .invs = 21600,
               .serializations = 47156, .deserializations = 51156}},
  };
  const auto g = group::make_group(GroupId::kDlTest256);
  for (const Pin& pin : pins) {
    const HeCounts counts = count_he_framework(spec, pin.n, 1, *g, pin.seed);
    EXPECT_EQ(counts.totals, pin.totals)
        << "n=" << pin.n << " seed=" << pin.seed;
    EXPECT_EQ(counts.per_participant.exps, pin.totals.exps / pin.n);
  }
}

TEST(Model, CalibrationProducesPositiveCosts) {
  const auto g = group::make_group(GroupId::kEcP192);
  ChaChaRng rng{502};
  const GroupCosts costs = calibrate_group(*g, rng);
  EXPECT_GT(costs.mul_s, 0.0);
  EXPECT_GT(costs.exp_s, costs.mul_s);  // an exp is many muls
  EXPECT_GT(costs.inv_s, 0.0);
  EXPECT_GT(costs.serialize_s, 0.0);
}

TEST(Model, SsCalibrationProducesPositiveCosts) {
  const mpz::FpCtx& f = core::ss_field_for_beta_bits(20);
  ChaChaRng rng{503};
  const SsCosts costs = calibrate_ss(f, 5, 2, rng);
  EXPECT_GT(costs.mult_party_s, 0.0);
  EXPECT_GT(costs.open_party_s, 0.0);
  EXPECT_GT(costs.deal_party_s, 0.0);
  EXPECT_GT(costs.sqrt_s, 0.0);
}

TEST(Model, PricingIsLinearInCounts) {
  GroupCosts costs{.mul_s = 1e-6, .exp_s = 1e-3, .inv_s = 1e-3,
                   .serialize_s = 1e-7};
  OpCounts counts;
  counts.muls = 1000;
  counts.exps = 10;
  const double t1 = price_group_ops(counts, costs);
  counts.muls *= 2;
  counts.exps *= 2;
  EXPECT_DOUBLE_EQ(price_group_ops(counts, costs), 2 * t1);
  EXPECT_NEAR(t1, 1000 * 1e-6 + 10 * 1e-3, 1e-12);
}

TEST(Model, HeCountsScaleQuadraticallyInN) {
  // Sec. VI-B: per-participant exponentiations are O(l n^2)/n... the total
  // protocol is O(l n^3) exps across parties, i.e. per participant O(l n^2).
  const core::ProblemSpec spec{.m = 3, .t = 1, .d1 = 5, .d2 = 4, .h = 5};
  const auto g = group::make_group(GroupId::kDlTest256);
  const auto c5 = count_he_framework(spec, 5, 1, *g, 1);
  const auto c10 = count_he_framework(spec, 10, 1, *g, 1);
  const double ratio = static_cast<double>(c10.per_participant.exps) /
                       static_cast<double>(c5.per_participant.exps);
  EXPECT_GT(ratio, 3.0);  // ~4x for doubled n
  EXPECT_LT(ratio, 5.0);
}

TEST(Model, TraceRoundsLinearInN) {
  const core::ProblemSpec spec{.m = 3, .t = 1, .d1 = 5, .d2 = 4, .h = 5};
  const auto g = group::make_group(GroupId::kDlTest256);
  const auto c5 = count_he_framework(spec, 5, 1, *g, 2);
  const auto c10 = count_he_framework(spec, 10, 1, *g, 2);
  // rounds = n + constant.
  EXPECT_EQ(c10.schedule.message_rounds() - c5.schedule.message_rounds(), 5u);
}

TEST(Model, PaperDefaultSpecMatchesSecVII) {
  const auto spec = paper_default_spec();
  EXPECT_EQ(spec.m, 10u);
  EXPECT_EQ(spec.d1, 15u);
  EXPECT_EQ(spec.h, 15u);
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace ppgr::benchcore

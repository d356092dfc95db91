// End-to-end tests of the privacy preserving group ranking framework and the
// SS baseline: rank correctness against the plain reference, the comparison
// circuit, the shuffle chain, trace accounting and submission verification.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/framework.h"
#include "core/ss_framework.h"

namespace ppgr::core {
namespace {

using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;

ProblemSpec tiny_spec() {
  return ProblemSpec{.m = 4, .t = 2, .d1 = 6, .d2 = 4, .h = 5};
}

FrameworkConfig make_config(const group::Group& g, std::size_t n,
                            std::size_t k) {
  FrameworkConfig cfg;
  cfg.spec = tiny_spec();
  cfg.n = n;
  cfg.k = k;
  cfg.group = &g;
  cfg.dot_field = &default_dot_field();
  cfg.dot_s = 4;
  return cfg;
}

// Step 6 for one party: E(β) bit by bit, LSB first.
std::vector<Ciphertext> encrypt_bits(const Participant& p, std::size_t l,
                                     mpz::Rng& rng) {
  std::vector<Ciphertext> bits;
  for (std::size_t b = 0; b < l; ++b)
    bits.push_back(p.encrypt_beta_bit(b, rng));
  return bits;
}

AttrVec random_attrs(const ProblemSpec& s, mpz::Rng& rng, std::size_t bits) {
  AttrVec v(s.m);
  for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << bits);
  return v;
}

class FrameworkOverGroups : public ::testing::TestWithParam<GroupId> {};

TEST_P(FrameworkOverGroups, EndToEndRanksMatchReference) {
  const auto g = make_group(GetParam());
  ChaChaRng rng{110};
  const std::size_t n = 5;
  const FrameworkConfig cfg = make_config(*g, n, 2);
  for (int iter = 0; iter < 3; ++iter) {
    const AttrVec v0 = random_attrs(cfg.spec, rng, cfg.spec.d1);
    const AttrVec w = random_attrs(cfg.spec, rng, cfg.spec.d2);
    std::vector<AttrVec> infos;
    for (std::size_t j = 0; j < n; ++j)
      infos.push_back(random_attrs(cfg.spec, rng, cfg.spec.d1));

    const auto result = run_framework(cfg, v0, w, infos, rng);
    const auto expect = reference_ranks(cfg.spec, v0, w, infos);
    // With random d1-bit attributes, distinct gains are overwhelmingly
    // likely; when they are distinct, ranks must match the reference.
    std::vector<Int> gains;
    for (const auto& v : infos) gains.push_back(gain(cfg.spec, v0, w, v));
    std::sort(gains.begin(), gains.end());
    const bool distinct =
        std::adjacent_find(gains.begin(), gains.end()) == gains.end();
    if (distinct) {
      EXPECT_EQ(result.ranks, expect) << "iter " << iter;
    }
    // Submitted = exactly those with rank <= k.
    for (std::size_t j = 0; j < n; ++j) {
      const bool submitted =
          std::find(result.submitted_ids.begin(), result.submitted_ids.end(),
                    j + 1) != result.submitted_ids.end();
      EXPECT_EQ(submitted, result.ranks[j] <= cfg.k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Groups, FrameworkOverGroups,
                         ::testing::Values(GroupId::kDlTest256,
                                           GroupId::kEcP192),
                         [](const auto& info) {
                           std::string n = group::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

TEST(Framework, TwoParticipantsMinimum) {
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{111};
  const FrameworkConfig cfg = make_config(*g, 2, 1);
  const AttrVec v0{0, 0, 0, 0}, w{1, 1, 1, 1};
  // Participant 2 clearly wins (greater-than attributes higher, equal-to
  // attributes exactly on target).
  const std::vector<AttrVec> infos{{5, 5, 1, 1}, {0, 0, 30, 30}};
  const auto result = run_framework(cfg, v0, w, infos, rng);
  EXPECT_EQ(result.ranks, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(result.submitted_ids, (std::vector<std::size_t>{2}));
}

TEST(Framework, PhaseOneBetaMatchesAlgebra) {
  // The protocol's β must equal the directly computed ρ·p + ρ_j in masked
  // order; we can't see ρ from outside, but order must match and β must be
  // l bits.
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{112};
  const FrameworkConfig cfg = make_config(*g, 3, 1);
  Initiator initiator{cfg, {1, 2, 3, 4}, {2, 2, 2, 2}, rng};
  std::vector<Participant> parts;
  const std::vector<AttrVec> infos{{1, 2, 10, 10}, {1, 2, 3, 3}, {9, 9, 0, 0}};
  for (std::size_t j = 1; j <= 3; ++j)
    parts.emplace_back(cfg, j, infos[j - 1]);
  std::vector<Nat> betas;
  for (std::size_t j = 0; j < 3; ++j) {
    const auto& q = parts[j].gain_query(rng);
    parts[j].receive_gain_answer(initiator.answer_gain_query(j + 1, q));
    betas.push_back(parts[j].beta());
    EXPECT_LE(betas.back().bit_length(), cfg.spec.beta_bits());
  }
  // Gains: p0 > p1 > p2 by construction; masked order must agree.
  const auto gains = std::vector<Int>{
      partial_gain(cfg.spec, {1, 2, 3, 4}, {2, 2, 2, 2}, infos[0]),
      partial_gain(cfg.spec, {1, 2, 3, 4}, {2, 2, 2, 2}, infos[1]),
      partial_gain(cfg.spec, {1, 2, 3, 4}, {2, 2, 2, 2}, infos[2])};
  ASSERT_GT(gains[0], gains[1]);
  ASSERT_GT(gains[1], gains[2]);
  EXPECT_GT(betas[0], betas[1]);
  EXPECT_GT(betas[1], betas[2]);
}

TEST(Framework, ComparisonCircuitTruthTable) {
  // Directly exercise compare_against: exactly one zero iff peer > own.
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{113};
  FrameworkConfig cfg = make_config(*g, 2, 1);
  Initiator initiator{cfg, {0, 0, 0, 0}, {1, 1, 1, 1}, rng};

  auto run_phase1 = [&](const AttrVec& a, const AttrVec& b) {
    std::vector<Participant> parts;
    parts.emplace_back(cfg, 1, a);
    parts.emplace_back(cfg, 2, b);
    Initiator init{cfg, {0, 0, 0, 0}, {1, 1, 1, 1}, rng};
    for (std::size_t j = 0; j < 2; ++j) {
      const auto& q = parts[j].gain_query(rng);
      parts[j].receive_gain_answer(init.answer_gain_query(j + 1, q));
    }
    return parts;
  };

  // b's greater-than attributes dominate -> beta_b > beta_a.
  auto parts = run_phase1({0, 0, 1, 1}, {0, 0, 50, 50});
  auto& pa = parts[0];
  auto& pb = parts[1];
  const auto key_a = crypto::keygen(*g, rng);
  // Single-party "joint" key so the test can decrypt: give both parties the
  // same key pair.
  pa.set_joint_key(key_a.y);
  pb.set_joint_key(key_a.y);

  const std::size_t l = cfg.spec.beta_bits();
  const auto bits_b = encrypt_bits(pb, l, rng);
  const auto tau_ab = pa.compare_against(bits_b, rng);  // a vs larger b
  std::size_t zeros = 0;
  for (const auto& ct : tau_ab)
    zeros += crypto::decrypts_to_zero(*g, key_a.x, ct) ? 1 : 0;
  EXPECT_EQ(zeros, 1u) << "exactly one zero when peer is larger";

  const auto bits_a = encrypt_bits(pa, l, rng);
  const auto tau_ba = pb.compare_against(bits_a, rng);  // b vs smaller a
  zeros = 0;
  for (const auto& ct : tau_ba)
    zeros += crypto::decrypts_to_zero(*g, key_a.x, ct) ? 1 : 0;
  EXPECT_EQ(zeros, 0u) << "no zero when peer is smaller";

  // Self-comparison (equal β): no zero either.
  const auto tau_aa = pa.compare_against(bits_a, rng);
  zeros = 0;
  for (const auto& ct : tau_aa)
    zeros += crypto::decrypts_to_zero(*g, key_a.x, ct) ? 1 : 0;
  EXPECT_EQ(zeros, 0u) << "equal values produce no zero";
}

TEST(Framework, TraceShape) {
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{114};
  const std::size_t n = 4;
  const FrameworkConfig cfg = make_config(*g, n, 1);
  const AttrVec v0{0, 0, 0, 0}, w{1, 1, 1, 1};
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < n; ++j)
    infos.push_back(random_attrs(cfg.spec, rng, cfg.spec.d1));
  const auto result = run_framework(cfg, v0, w, infos, rng);

  // O(n) rounds: phase1 (2) + keys/zkp (2) + enc broadcast (1) + sets to P1
  // (1) + chain (n-1) + return (1) + submissions (1), plus slack.
  EXPECT_LE(result.trace.rounds(), n + 10);
  EXPECT_GE(result.trace.rounds(), n);
  // The chain dominates: each forward message carries n*(n-1)*l ciphertexts.
  const std::size_t l = cfg.spec.beta_bits();
  const std::size_t chain_msg = n * (n - 1) * l * crypto::ciphertext_bytes(*g);
  std::size_t max_msg = 0;
  for (const auto& t : result.trace.transfers())
    max_msg = std::max(max_msg, t.bytes);
  EXPECT_EQ(max_msg, chain_msg);
  // Every party computed something.
  for (std::size_t p = 0; p <= n; ++p)
    EXPECT_GT(result.compute_seconds[p], 0.0) << "party " << p;
}

TEST(Framework, ValidationErrors) {
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{115};
  FrameworkConfig cfg = make_config(*g, 1, 1);  // n too small
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = make_config(*g, 3, 4);  // k > n
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = make_config(*g, 3, 1);
  cfg.group = nullptr;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = make_config(*g, 3, 1);
  const AttrVec v0{0, 0, 0, 0}, w{1, 1, 1, 1};
  EXPECT_THROW((void)run_framework(cfg, v0, w, {}, rng),
               std::invalid_argument);
}

TEST(Framework, SubmissionOverClaimDetected) {
  const auto g = make_group(GroupId::kDlTest256);
  ChaChaRng rng{116};
  const FrameworkConfig cfg = make_config(*g, 2, 2);
  Initiator init{cfg, {0, 0, 0, 0}, {1, 1, 1, 1}, rng};
  // Participant 2's vector has clearly higher gain, but participant 1
  // over-claims rank 1.
  init.receive_submission({.participant = 1, .claimed_rank = 1,
                           .info = {0, 0, 1, 1}});
  init.receive_submission({.participant = 2, .claimed_rank = 2,
                           .info = {0, 0, 40, 40}});
  const auto bad = init.inconsistent_submissions();
  // Both are flagged (their relative order is impossible), which pinpoints
  // the conflict for the initiator to resolve out of band.
  EXPECT_EQ(bad.size(), 2u);
  EXPECT_THROW(init.receive_submission({.participant = 3, .claimed_rank = 1,
                                        .info = {1, 2, 3}}),
               std::invalid_argument);
}

// ---- SS baseline ----

TEST(SsFramework, EndToEndMatchesReference) {
  ChaChaRng rng{117};
  const std::size_t n = 5;
  SsFrameworkConfig cfg;
  cfg.base = make_config(*make_group(GroupId::kDlTest256), n, 2);
  cfg.threshold = 2;
  const AttrVec v0{1, 1, 0, 0}, w{3, 3, 3, 3};
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < n; ++j)
    infos.push_back(random_attrs(cfg.base.spec, rng, cfg.base.spec.d1));
  const auto result = run_ss_framework(cfg, v0, w, infos, rng);
  std::vector<Int> gains;
  for (const auto& v : infos) gains.push_back(gain(cfg.base.spec, v0, w, v));
  auto sorted_gains = gains;
  std::sort(sorted_gains.begin(), sorted_gains.end());
  if (std::adjacent_find(sorted_gains.begin(), sorted_gains.end()) ==
      sorted_gains.end()) {
    EXPECT_EQ(result.ranks, reference_ranks(cfg.base.spec, v0, w, infos));
  }
  EXPECT_GT(result.sort_costs.mults, 0u);
  EXPECT_GT(result.parallel_rounds, 0u);
  EXPECT_GT(result.trace.total_bytes(), 0u);
  // The SS framework uses many more rounds than the HE framework's O(n).
  EXPECT_GT(result.parallel_rounds, n);
}

TEST(SsFramework, CountOnlyMode) {
  ChaChaRng rng{118};
  SsFrameworkConfig cfg;
  cfg.base = make_config(*make_group(GroupId::kDlTest256), 9, 2);
  cfg.threshold = 4;
  cfg.mode = sss::MpcEngine::Mode::kCountOnly;
  const AttrVec v0{0, 0, 0, 0}, w{1, 1, 1, 1};
  std::vector<AttrVec> infos(9, AttrVec{1, 2, 3, 4});
  const auto result = run_ss_framework(cfg, v0, w, infos, rng);
  EXPECT_TRUE(result.ranks.empty());
  EXPECT_GT(result.sort_costs.mults, 0u);
  EXPECT_EQ(result.comparators,
            sss::comparator_count(sss::batcher_network(9)));
}

TEST(SsFramework, FieldSizingPerBetaBits) {
  const auto& f1 = ss_field_for_beta_bits(40);
  EXPECT_GE(f1.bits(), 42u);
  // Cached: same object back.
  EXPECT_EQ(&f1, &ss_field_for_beta_bits(40));
}

}  // namespace
}  // namespace ppgr::core

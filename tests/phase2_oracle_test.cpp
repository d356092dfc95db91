// Differential oracle for phase 2's one evaluation path.
//
// Participant::compare_against and ::shuffle_hop compute the comparison
// circuit and the chain hop through dual_exp fusions and inversions. The
// oracle below is the same algebra written the naive way — plain ct_scale /
// ct_add_plain / ct_add / rerandomize per bit, partial_decrypt +
// exp_randomize per hop ciphertext — which is how the paper states it and
// how its Sec. VI-B cost analysis counts it. Both run on the same streams
// over every group family, at the extreme β patterns
// (0, all ones) and a random one, and must agree:
//
//  - τ sets and hop outputs are eq-identical element by element and
//    serialize to identical bytes (EC points may differ in their Jacobian
//    representative, never in value);
//  - both consume the same randomness in the same order;
//  - metered, the oracle performs exactly model_he_ops' naive profile and
//    the participant exactly its executed profile, per circuit and per hop
//    ciphertext.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "benchcore/model.h"
#include "crypto/codec.h"
#include "group/accel_group.h"
#include "group/metered_group.h"
#include "group/mock_group.h"

namespace ppgr::core {
namespace {

using benchcore::OpProfile;
using crypto::ct_add;
using crypto::ct_add_plain;
using crypto::ct_scale;
using crypto::rerandomize;
using group::GroupId;
using mpz::ChaChaRng;
using runtime::CryptoOp;

// ---- the oracle: the naive evaluation ----

std::vector<Ciphertext> oracle_compare(const Group& g, const Nat& beta,
                                       std::size_t l, const Elem& joint_key,
                                       const std::vector<Ciphertext>& peer_bits,
                                       Rng& rng) {
  const Nat& q = g.order();

  // γ_b = own_b XOR peer_b, homomorphically (own bit is plaintext):
  //   own_b = 0:  γ = peer_b            -> copy
  //   own_b = 1:  γ = 1 - peer_b        -> E(peer)^(q-1) ∘ g^1
  std::vector<Ciphertext> gamma;
  gamma.reserve(l);
  for (std::size_t b = 0; b < l; ++b) {
    if (!beta.bit(b)) {
      gamma.push_back(peer_bits[b]);
    } else {
      gamma.push_back(ct_add_plain(
          g, ct_scale(g, peer_bits[b], Nat::sub(q, Nat{1})), Nat{1}));
    }
  }

  // Suffix sums S_b = Σ_{v>b} γ_v, accumulated from the MSB down. The
  // trivial ciphertext (1, 1) is a valid encryption of zero.
  const Ciphertext zero_ct{.c = g.identity(), .cp = g.identity()};
  std::vector<Ciphertext> tau(l);
  Ciphertext suffix = zero_ct;
  for (std::size_t b = l; b-- > 0;) {
    // ω_b = (l-b)·(1 - γ_b) + S_b  (paper's (l-t+1) with t = b+1);
    // zero iff b is the most significant differing bit.
    const Nat coeff{static_cast<mpz::Limb>(l - b)};
    Ciphertext omega = ct_scale(g, gamma[b], Nat::sub(q, coeff % q));
    omega = ct_add_plain(g, omega, coeff);
    omega = ct_add(g, omega, suffix);
    // τ_b = ω_b + own_b: zero iff peer's bit is 1 at the first difference,
    // i.e. iff peer's β is larger.
    tau[b] = beta.bit(b) ? ct_add_plain(g, omega, Nat{1}) : omega;
    tau[b] = rerandomize(g, joint_key, tau[b], rng);
    suffix = ct_add(g, suffix, gamma[b]);
  }
  return tau;
}

void oracle_hop(const Group& g, const Nat& x, CipherSet& set, Rng& rng) {
  for (Ciphertext& ct : set) {
    ct = crypto::partial_decrypt(g, x, ct);
    ct = crypto::exp_randomize(g, ct, g.random_nonzero_scalar(rng));
  }
  // Fisher–Yates with the party's private randomness.
  for (std::size_t i = set.size(); i-- > 1;)
    std::swap(set[i], set[rng.below_u64(i + 1)]);
}

// ---- harness ----

// Runs `fn` with a metrics sink installed and returns the group-op slots it
// counted (the accel_* diagnostics and step timers are not part of the
// model's profiles).
template <typename Fn>
runtime::OpTally group_ops_of(Fn&& fn) {
  runtime::MetricsBuffer buf;
  {
    const runtime::MetricsScope scope{&buf, runtime::Phase::kPhase2, 1};
    fn();
  }
  runtime::MetricsRegistry reg;
  reg.absorb(buf);
  const runtime::OpTally all = reg.totals();
  runtime::OpTally out;
  // The group layer: the CryptoOp slots up to group_deserialize.
  for (std::size_t i = 0;
       i <= static_cast<std::size_t>(CryptoOp::kGroupDeserialize); ++i)
    out.v[i] = all.v[i];
  return out;
}

std::vector<std::uint8_t> wire(const Group& g,
                               const std::vector<Ciphertext>& cts) {
  runtime::Writer w;
  crypto::write_ciphertext_seq(w, g, cts);
  return std::move(w).take();
}

void expect_same(const Group& g, const std::vector<Ciphertext>& got,
                 const std::vector<Ciphertext>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(g.eq(got[i].c, want[i].c)) << what << " c[" << i << "]";
    EXPECT_TRUE(g.eq(got[i].cp, want[i].cp)) << what << " cp[" << i << "]";
  }
  EXPECT_EQ(wire(g, got), wire(g, want)) << what;
}

// P_id after phase 1 with masked gain exactly `beta`: the participant
// vector ends in a constant 1, so answering with the initiator vector
// (0, ..., 0, β - 2^(l-1)) makes the dot product the signed form of β.
Participant with_beta(const FrameworkConfig& cfg, std::size_t id,
                      const Nat& beta, Rng& rng) {
  Participant p{cfg, id, AttrVec(cfg.spec.m, 0)};
  const auto& query = p.gain_query(rng);
  const FpCtx& f = *cfg.dot_field;
  std::vector<Nat> v(cfg.spec.m + cfg.spec.t + 1, f.zero());
  v.back() = f.sub(f.to(beta), f.to(Nat::pow2(cfg.spec.beta_bits() - 1)));
  p.receive_gain_answer(dotprod::dot_product_alice(f, query, v));
  EXPECT_EQ(p.beta(), beta);
  return p;
}

struct Family {
  const char* name;
  GroupId id;
  bool mock;
};
void PrintTo(const Family& f, std::ostream* os) { *os << f.name; }

class Phase2Oracle : public ::testing::TestWithParam<Family> {};

TEST_P(Phase2Oracle, FusedPathMatchesTheNaiveEvaluation) {
  const group::MockGroup mock{"mock"};
  const std::unique_ptr<Group> real =
      GetParam().mock ? nullptr : group::make_group(GetParam().id);
  const Group& g = real != nullptr ? *real : static_cast<const Group&>(mock);
  // The participant computes through run_framework's decorator stack; the
  // oracle through a bare metered group.
  group::AcceleratedGroup accel{g};
  const group::MeteredGroup metered{accel};
  const group::MeteredGroup oracle_g{g};

  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 2, .t = 1, .d1 = 3, .d2 = 2, .h = 3};
  cfg.n = 2;
  cfg.k = 1;
  cfg.group = &metered;
  cfg.dot_field = &default_dot_field();
  const std::size_t l = cfg.spec.beta_bits();

  ChaChaRng rng{2024};
  Participant peer = with_beta(cfg, 2, rng.bits(l), rng);
  ChaChaRng key_rng{7};
  const crypto::KeyPair own_key = crypto::keygen(g, key_rng);
  ChaChaRng peer_key_rng{8};
  const std::vector<Elem> shares{own_key.y, peer.public_key(peer_key_rng)};
  const Elem joint = crypto::joint_public_key(g, shares);
  accel.set_base_table(std::make_shared<const group::FixedBaseTable>(
      g, joint, g.order().bit_length()));
  peer.set_joint_key(joint);
  std::vector<Ciphertext> peer_bits;
  for (std::size_t b = 0; b < l; ++b)
    peer_bits.push_back(peer.encrypt_beta_bit(b, rng));

  const Nat all_ones = Nat::sub(Nat::pow2(l), Nat{1});
  for (const Nat& beta : {Nat{}, all_ones, rng.bits(l)}) {
    Participant own = with_beta(cfg, 1, beta, rng);
    ChaChaRng own_key_rng{7};  // the stream own_key was drawn from
    ASSERT_TRUE(g.eq(own.public_key(own_key_rng), own_key.y));
    own.set_joint_key(joint);
    const std::size_t pop = benchcore::beta_popcounts({beta}).front();
    SCOPED_TRACE(testing::Message() << g.name() << " pop=" << pop);

    ChaChaRng r1{31}, r2{31};
    std::vector<Ciphertext> tau, tau_oracle;
    const runtime::OpTally fused_ops =
        group_ops_of([&] { tau = own.compare_against(peer_bits, r1); });
    const runtime::OpTally naive_ops = group_ops_of([&] {
      tau_oracle = oracle_compare(oracle_g, beta, l, joint, peer_bits, r2);
    });
    expect_same(g, tau, tau_oracle, "compare_against");
    EXPECT_EQ(r1.below_u64(1u << 30), r2.below_u64(1u << 30))
        << "circuit randomness diverged";
    EXPECT_EQ(fused_ops.v,
              benchcore::compare_circuit_ops(l, pop, OpProfile::kExecuted).v);
    EXPECT_EQ(naive_ops.v,
              benchcore::compare_circuit_ops(l, pop, OpProfile::kNaive).v);

    CipherSet hop = tau;
    CipherSet hop_oracle = tau;
    ChaChaRng h1{53}, h2{53};
    const runtime::OpTally fused_hop =
        group_ops_of([&] { own.shuffle_hop(hop, h1); });
    const runtime::OpTally naive_hop = group_ops_of(
        [&] { oracle_hop(oracle_g, own_key.x, hop_oracle, h2); });
    expect_same(g, hop, hop_oracle, "shuffle_hop");
    EXPECT_EQ(h1.below_u64(1u << 30), h2.below_u64(1u << 30))
        << "hop randomness diverged";
    const runtime::OpTally per_ct_fused =
        benchcore::hop_ciphertext_ops(OpProfile::kExecuted);
    const runtime::OpTally per_ct_naive =
        benchcore::hop_ciphertext_ops(OpProfile::kNaive);
    for (std::size_t i = 0; i < runtime::kOpCount; ++i) {
      EXPECT_EQ(fused_hop.v[i], per_ct_fused.v[i] * hop.size())
          << runtime::op_name(static_cast<CryptoOp>(i));
      EXPECT_EQ(naive_hop.v[i], per_ct_naive.v[i] * hop.size())
          << runtime::op_name(static_cast<CryptoOp>(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Groups, Phase2Oracle,
    ::testing::Values(Family{"dl_test_256", GroupId::kDlTest256, false},
                      Family{"ecc_p192", GroupId::kEcP192, false},
                      Family{"mock", GroupId::kDlTest256, true}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace ppgr::core

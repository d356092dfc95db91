// Micro-benchmarks (google-benchmark): the primitive costs that feed the
// figure models — group multiplication/exponentiation for every group the
// paper evaluates, bignum kernels, ElGamal operations and the SS engine's
// GRR multiplication and comparison. These are the measured quantities behind
// benchcore::calibrate_*.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/framework.h"
#include "core/ss_framework.h"
#include "crypto/codec.h"
#include "crypto/elgamal.h"
#include "dotprod/dot_product.h"
#include "group/ec_group.h"
#include "group/group.h"
#include "group/schnorr_group.h"
#include "mpz/ifma_lanes.h"
#include "mpz/modarith.h"
#include "mpz/mont.h"
#include "mpz/prime.h"
#include "sss/mpc_engine.h"

namespace {

using namespace ppgr;

const group::Group& group_for(int id) {
  static const auto groups = [] {
    std::vector<std::unique_ptr<group::Group>> gs;
    gs.push_back(group::make_group(group::GroupId::kDl1024));
    gs.push_back(group::make_group(group::GroupId::kDl2048));
    gs.push_back(group::make_group(group::GroupId::kDl3072));
    gs.push_back(group::make_group(group::GroupId::kEcP192));
    gs.push_back(group::make_group(group::GroupId::kEcP224));
    gs.push_back(group::make_group(group::GroupId::kEcP256));
    gs.push_back(group::make_group(group::GroupId::kDlTest256));  // he-n16's
    return gs;
  }();
  return *groups[static_cast<std::size_t>(id)];
}

void BM_GroupMul(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{1};
  group::Elem a = g.exp_g(g.random_nonzero_scalar(rng));
  const group::Elem b = g.exp_g(g.random_nonzero_scalar(rng));
  for (auto _ : state) {
    a = g.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupMul)->DenseRange(0, 5);

void BM_GroupExp(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{2};
  const group::Elem a = g.exp_g(g.random_nonzero_scalar(rng));
  const mpz::Nat s = g.random_nonzero_scalar(rng);
  for (auto _ : state) {
    auto r = g.exp(a, s);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupExp)->DenseRange(0, 5);

// The shuffle hop's fused shape x^ex · y^ey on full-width scalars: one
// Group::dual_exp call (one shared run of squarings or doublings).
void BM_GroupDualExp(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{13};
  const group::Elem x = g.exp_g(g.random_nonzero_scalar(rng));
  const group::Elem y = g.exp_g(g.random_nonzero_scalar(rng));
  const mpz::Nat ex = g.random_nonzero_scalar(rng);
  const mpz::Nat ey = g.random_nonzero_scalar(rng);
  for (auto _ : state) {
    auto r = g.dual_exp(x, ex, y, ey);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupDualExp)->DenseRange(0, 5);

void BM_ElGamalEncryptExp(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{3};
  const group::FixedBaseTable y{g, crypto::keygen(g, rng).y};
  for (auto _ : state) {
    auto ct = crypto::encrypt_exp(g, y, mpz::Nat{1}, rng);
    benchmark::DoNotOptimize(ct);
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_ElGamalEncryptExp)->DenseRange(0, 5);

// The comparison circuit of he-n16's spec: l = 35 bits.
core::ProblemSpec circuit_spec() {
  return core::ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};
}

// Ladders per step of a group's batch forms: 8 where the group runs lanes
// (EcGroup on an IFMA CPU, SchnorrGroup's 4-limb moduli there), else 1.
double batch_lanes(const group::Group& g) {
  if (const auto* ec = dynamic_cast<const group::EcGroup*>(&g))
    return static_cast<double>(ec->batch_lanes());
  if (const auto* dl = dynamic_cast<const group::SchnorrGroup*>(&g))
    return static_cast<double>(mpz::MontCtx{dl->modulus()}.batch_lanes());
  return 1.0;
}

// The share of a batch benchmark's elements that the group's lanes set (the
// rest ran on the scalar path), from its lane_elements() diagnostic.
template <class Body>
double lane_share(const group::Group& g, std::size_t elements,
                  const Body& body) {
  const std::size_t before = g.lane_elements();
  body();
  return static_cast<double>(g.lane_elements() - before) /
         static_cast<double>(elements);
}

// y^r through a key's comb table, one exp_fixed per scalar
// (BM_FixedBaseExp) and as one exp_fixed_many of the second argument's
// scalars (BM_FixedBaseExpMany; 35 is one circuit's l); items/s counts
// scalars, so 1/items_per_second is one comb's cost on either path.
void BM_FixedBaseExp(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{20};
  const group::FixedBaseTable y{g, crypto::keygen(g, rng).y};
  const mpz::Nat r = g.random_nonzero_scalar(rng);
  for (auto _ : state) {
    auto e = g.exp_fixed(y, r);
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(g.name());
}
BENCHMARK(BM_FixedBaseExp)->Arg(5)->Arg(6);

void BM_FixedBaseExpMany(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{21};
  const group::FixedBaseTable y{g, crypto::keygen(g, rng).y};
  const auto l = static_cast<std::size_t>(state.range(1));
  std::vector<mpz::Nat> r;
  for (std::size_t i = 0; i < l; ++i) r.push_back(g.random_nonzero_scalar(rng));
  std::vector<group::Elem> out(l);
  for (auto _ : state) {
    g.exp_fixed_many(y, r, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * l));
  state.counters["lanes"] = batch_lanes(g);
  state.counters["lane_share"] =
      lane_share(g, l, [&] { g.exp_fixed_many(y, r, out); });
  state.SetLabel(g.name());
}
// The lane batch sizes of both families, on P-256 (5) and dl-test-256 (6):
// the smallest padded batch (2), the largest (7), one batch (8), one pair
// (16), a circuit's l (35: two pairs and a padded batch of 3), a hop's last
// chunk at n = 4 (59: three pairs and a pair padded from 11) and a full hop
// chunk (64).
void lane_batch_sizes(benchmark::internal::Benchmark* b) {
  for (const int group : {5, 6})
    for (const int n : {2, 7, 8, 16, 35, 59, 64}) b->Args({group, n});
}

BENCHMARK(BM_FixedBaseExpMany)->Apply(lane_batch_sizes);

// One Participant::compare_against at l = 35 against a peer's encrypted
// bits (inversion, the ω ladders, the re-randomizations); one iteration is
// one circuit.
void BM_CompareCircuit(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  core::FrameworkConfig cfg;
  cfg.spec = circuit_spec();
  cfg.n = 2;
  cfg.k = 1;
  cfg.group = &g;
  cfg.dot_field = &core::default_dot_field();
  const std::size_t l = cfg.spec.beta_bits();
  mpz::ChaChaRng rng{22};
  // A participant after phase 1 with masked gain β: its vector ends in a
  // constant 1, so answering with (0, ..., 0, β - 2^(l-1)) makes the dot
  // product the signed form of β.
  const auto with_beta = [&](std::size_t id, const mpz::Nat& beta) {
    core::Participant p{cfg, id, core::AttrVec(cfg.spec.m, 0)};
    const auto& query = p.gain_query(rng);
    const mpz::FpCtx& f = *cfg.dot_field;
    std::vector<mpz::Nat> v(cfg.spec.m + cfg.spec.t + 1, f.zero());
    v.back() = f.sub(f.to(beta), f.to(mpz::Nat::pow2(l - 1)));
    p.receive_gain_answer(dotprod::dot_product_alice(f, query, v));
    return p;
  };
  core::Participant own = with_beta(1, rng.bits(l));
  core::Participant peer = with_beta(2, rng.bits(l));
  const std::vector<group::Elem> shares{own.public_key(rng),
                                        peer.public_key(rng)};
  const auto joint = std::make_shared<const group::FixedBaseTable>(
      g, crypto::joint_public_key(g, shares));
  own.set_joint_key(joint);
  peer.set_joint_key(joint);
  const auto peer_bits = peer.encrypt_beta(std::vector<mpz::Rng*>(l, &rng));
  for (auto _ : state) {
    auto tau = own.compare_against(peer_bits, rng);
    benchmark::DoNotOptimize(tau.data());
  }
  state.counters["lanes"] = batch_lanes(g);
  state.SetLabel(g.name());
}
BENCHMARK(BM_CompareCircuit)->Arg(5)->Arg(6);

// One shuffle-hop chunk as the hop's ladder tasks run it: 64 decoded
// ciphertexts, a fresh r and e = q - x*r mod q per ciphertext (a Montgomery
// product mod q with x·R), then dual_exp_many (c^r * cp^e) and exp_many
// (cp^r). Items/s counts ciphertexts, so 1/items_per_second is one hop
// ciphertext's cost; BM_HopScalars and BM_HopCodec price the work around
// the ladders.
using core::kHopChunk;

// kHopChunk ciphertexts as a hop receives them: decoded, so every residue
// is a canonical one (and every EC point has Z = 1).
std::vector<crypto::Ciphertext> hop_chunk(const group::Group& g,
                                          const crypto::KeyPair& kp,
                                          mpz::Rng& rng) {
  const group::FixedBaseTable y{g, kp.y};
  std::vector<crypto::Ciphertext> cts;
  for (std::size_t i = 0; i < kHopChunk; ++i) {
    const auto ct = crypto::encrypt_exp(g, y, mpz::Nat{i % 2}, rng);
    cts.push_back({.c = g.deserialize(g.serialize(ct.c)),
                   .cp = g.deserialize(g.serialize(ct.cp))});
  }
  return cts;
}

void BM_ShuffleHopChunk(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{4};
  const auto kp = crypto::keygen(g, rng);
  std::vector<group::Elem> c, cp;
  for (const auto& ct : hop_chunk(g, kp, rng)) {
    c.push_back(ct.c);
    cp.push_back(ct.cp);
  }
  const mpz::Nat& q = g.order();
  const mpz::MontCtx zq{q};
  const mpz::Nat x_mont = zq.to_mont(kp.x);
  std::vector<mpz::Nat> r(kHopChunk), e(kHopChunk);
  std::vector<group::Elem> c_out(kHopChunk), cp_out(kHopChunk);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kHopChunk; ++i) {
      r[i] = g.random_nonzero_scalar(rng);
      e[i] = mpz::Nat::sub(q, zq.mul(x_mont, r[i]));
    }
    g.dual_exp_many(c, r, cp, e, c_out);
    g.exp_many(cp, r, cp_out);
    benchmark::DoNotOptimize(c_out.data());
    benchmark::DoNotOptimize(cp_out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kHopChunk));
  state.counters["lanes"] = batch_lanes(g);
  state.SetLabel(g.name());
}
BENCHMARK(BM_ShuffleHopChunk)->DenseRange(0, 6);

// The hop's scalars per ciphertext: the r draw from a ChaCha stream, then
// e = q - x·r mod q as a Montgomery product with x·R mod q.
void BM_HopScalars(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{16};
  const auto kp = crypto::keygen(g, rng);
  const mpz::Nat& q = g.order();
  const mpz::MontCtx zq{q};
  const mpz::Nat x_mont = zq.to_mont(kp.x);
  for (auto _ : state) {
    const mpz::Nat r = g.random_nonzero_scalar(rng);
    auto e = mpz::Nat::sub(q, zq.mul(x_mont, r));
    benchmark::DoNotOptimize(e);
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_HopScalars)->Arg(0)->Arg(5)->Arg(6);

// One hop set's codec per ciphertext: kHopChunk ciphertexts encoded into
// their slice of a payload (one Group::serialize_into) and decoded back
// from it (one Group::deserialize_into), as the hop's transport tasks do.
void BM_HopCodec(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{17};
  const auto cts = hop_chunk(g, crypto::keygen(g, rng), rng);
  const std::size_t slice = cts.size() * crypto::ciphertext_wire_bytes(g);
  std::vector<std::uint8_t> payload(2 * slice);
  const std::span<std::uint8_t> mine = std::span{payload}.subspan(slice, slice);
  std::vector<crypto::Ciphertext> back(cts.size());
  for (auto _ : state) {
    crypto::write_ciphertext_seq(mine, g, cts);
    runtime::Reader r{mine};
    crypto::read_ciphertext_seq(r, g, back);
    benchmark::DoNotOptimize(back.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * cts.size()));
  state.SetLabel(g.name());
}
BENCHMARK(BM_HopCodec)->Arg(0)->Arg(5)->Arg(6);

// The batch forms alone over the second argument's elements (64: one hop
// chunk) of full-width scalars, items/s per element: read against
// BM_GroupExp / BM_GroupDualExp.
void BM_GroupExpMany(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{14};
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<group::Elem> xs, out(n);
  std::vector<mpz::Nat> es;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(g.exp_g(g.random_nonzero_scalar(rng)));
    es.push_back(g.random_nonzero_scalar(rng));
  }
  for (auto _ : state) {
    g.exp_many(xs, es, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.counters["lanes"] = batch_lanes(g);
  state.counters["lane_share"] =
      lane_share(g, n, [&] { g.exp_many(xs, es, out); });
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupExpMany)
    ->Args({3, 64})
    ->Args({4, 64})
    ->Apply(lane_batch_sizes);

void BM_GroupDualExpMany(benchmark::State& state) {
  const auto& g = group_for(static_cast<int>(state.range(0)));
  mpz::ChaChaRng rng{15};
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<group::Elem> xs, ys, out(n);
  std::vector<mpz::Nat> exs, eys;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(g.exp_g(g.random_nonzero_scalar(rng)));
    ys.push_back(g.exp_g(g.random_nonzero_scalar(rng)));
    exs.push_back(g.random_nonzero_scalar(rng));
    eys.push_back(g.random_nonzero_scalar(rng));
  }
  for (auto _ : state) {
    g.dual_exp_many(xs, exs, ys, eys, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
  state.counters["lanes"] = batch_lanes(g);
  state.counters["lane_share"] =
      lane_share(g, n, [&] { g.dual_exp_many(xs, exs, ys, eys, out); });
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupDualExpMany)
    ->Args({3, 64})
    ->Args({4, 64})
    ->Apply(lane_batch_sizes);

void BM_MontMul(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{5};
  const mpz::Nat m = mpz::random_prime(bits, rng);
  const mpz::MontCtx ctx{m};
  mpz::Nat a = ctx.to_mont(rng.below(m));
  const mpz::Nat b = ctx.to_mont(rng.below(m));
  for (auto _ : state) {
    a = ctx.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
// 37 and 127 bits run the fixed 1- and 2-limb kernels, 256 the 4-limb one,
// the rest the runtime-width one.
BENCHMARK(BM_MontMul)
    ->Arg(37)
    ->Arg(127)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(3072);

// The ladder layer between BM_MontMul and BM_GroupExp: MontCtx::exp and
// dual_exp on full-width exponents, with no Elem boxing or group dispatch.
void BM_MontExp(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{6};
  const mpz::Nat m = mpz::random_prime(bits, rng);
  const mpz::MontCtx ctx{m};
  const mpz::Nat x = ctx.to_mont(rng.below(m));
  const mpz::Nat e = rng.bits(bits);
  for (auto _ : state) {
    auto r = ctx.exp(x, e);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MontExp)->Arg(256)->Arg(1024);

void BM_MontDualExp(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{7};
  const mpz::Nat m = mpz::random_prime(bits, rng);
  const mpz::MontCtx ctx{m};
  const mpz::Nat x = ctx.to_mont(rng.below(m));
  const mpz::Nat y = ctx.to_mont(rng.below(m));
  const mpz::Nat ex = rng.bits(bits);
  const mpz::Nat ey = rng.bits(bits);
  for (auto _ : state) {
    auto r = ctx.dual_exp(x, ex, y, ey);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MontDualExp)->Arg(256)->Arg(1024);

// The batch ladders over one he-n16 shuffle-hop set (525 ciphertexts),
// items/s counting elements: on an AVX-512 IFMA host the 4-limb moduli run
// 8 ladders per vector, elsewhere this is BM_MontExp / BM_MontDualExp in a
// loop.
constexpr std::size_t kBatch = 525;

void BM_MontExpMany(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{6};
  const mpz::Nat m = mpz::random_prime(bits, rng);
  const mpz::MontCtx ctx{m};
  std::vector<mpz::Nat> xs, es, out(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    xs.push_back(ctx.to_mont(rng.below(m)));
    es.push_back(rng.bits(bits));
  }
  for (auto _ : state) {
    ctx.exp_many(xs, es, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
  state.counters["lanes"] = static_cast<double>(ctx.batch_lanes());
}
BENCHMARK(BM_MontExpMany)->Arg(256);

void BM_MontDualExpMany(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{7};
  const mpz::Nat m = mpz::random_prime(bits, rng);
  const mpz::MontCtx ctx{m};
  std::vector<mpz::Nat> xs, ys, exs, eys, out(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    xs.push_back(ctx.to_mont(rng.below(m)));
    ys.push_back(ctx.to_mont(rng.below(m)));
    exs.push_back(rng.bits(bits));
    eys.push_back(rng.bits(bits));
  }
  for (auto _ : state) {
    ctx.dual_exp_many(xs, exs, ys, eys, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
  state.counters["lanes"] = static_cast<double>(ctx.batch_lanes());
}
BENCHMARK(BM_MontDualExpMany)->Arg(256);

// The kernel layer under BM_MontExpMany: one 8-lane product on the
// dl-test-256 modulus, amm8(x, x, x) (arg 0 = 0) or asq8(x) (arg 0 = 1),
// run as 1 or 2 independent chains (arg 1) of kLaneSteps dependent
// products. per_product is one 8-lane product's wall time: on one chain
// each product waits on the previous one's vpmadd52 latency, on two the
// chains' products overlap, which is what the batch ladders' two batches
// per call buy.
#if defined(__x86_64__)
#pragma GCC diagnostic push
// GCC 12 flags the deliberate self-initialization in _mm512_undefined_epi32,
// which the shift intrinsics use (GCC bug 105593).
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

constexpr std::size_t kLaneSteps = 256;

template <bool kSquare, std::size_t kChains>
PPGR_IFMA void lane_chains(const mpz::LaneConsts& c,
                           mpz::lanes::LaneTable* state) {
  using namespace mpz::lanes;
  const Lane5 m = broadcast(c.m);
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(c.k0));
  Lane5 x[kChains];
  for (std::size_t ch = 0; ch < kChains; ++ch) x[ch] = load5(state[ch]);
  for (std::size_t s = 0; s < kLaneSteps; ++s)
    for (std::size_t ch = 0; ch < kChains; ++ch) {
      if constexpr (kSquare) asq8(x[ch], x[ch], m, k0);
      else amm8(x[ch], x[ch], x[ch], m, k0);
    }
  for (std::size_t ch = 0; ch < kChains; ++ch) store5(state[ch], x[ch]);
}

void BM_LaneProduct(benchmark::State& state) {
  if (!mpz::lanes::cpu_has_avx512ifma()) {
    state.SkipWithError("CPU lacks AVX-512 IFMA");
    return;
  }
  const bool square = state.range(0) != 0;
  const std::size_t chains = static_cast<std::size_t>(state.range(1));
  const auto& g = dynamic_cast<const group::SchnorrGroup&>(group_for(6));
  const mpz::MontCtx ctx{g.modulus()};
  const mpz::LaneConsts c =
      mpz::lanes::lane_consts(g.modulus(), ctx.one_mont(), 4);
  // Distinct residues below m in every lane of every chain.
  mpz::ChaChaRng rng{18};
  alignas(64) mpz::lanes::LaneTable x[2];
  for (auto& t : x)
    for (std::size_t l = 0; l < mpz::lanes::kLanes; ++l) {
      const auto v = mpz::lanes::to_radix52(rng.below(g.modulus()));
      for (std::size_t j = 0; j < mpz::lanes::kLimbs52; ++j) t[j][l] = v[j];
    }
  const auto run = square ? (chains == 1 ? lane_chains<true, 1>
                                         : lane_chains<true, 2>)
                          : (chains == 1 ? lane_chains<false, 1>
                                         : lane_chains<false, 2>);
  for (auto _ : state) {
    run(c, x);
    benchmark::DoNotOptimize(x);
    benchmark::ClobberMemory();
  }
  state.counters["per_product"] = benchmark::Counter(
      static_cast<double>(kLaneSteps * chains),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(std::string(square ? "asq8" : "amm8") + " x" +
                 std::to_string(chains));
}
BENCHMARK(BM_LaneProduct)->ArgsProduct({{0, 1}, {1, 2}});
#pragma GCC diagnostic pop
#endif  // __x86_64__

// The binary kernel under the group layer: invmod is SchnorrGroup::inv's.
// Inputs cycle through 64 random residues so the variable-time loop is
// timed on a spread of inputs, not one.
std::vector<mpz::Nat> residues(const mpz::Nat& m, mpz::ChaChaRng& rng) {
  std::vector<mpz::Nat> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(rng.nonzero_below(m));
  return xs;
}

void BM_InvMod(benchmark::State& state) {
  mpz::ChaChaRng rng{9};
  const mpz::Nat p =
      mpz::random_prime(static_cast<std::size_t>(state.range(0)), rng);
  const auto xs = residues(p, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = mpz::invmod(xs[i++ % xs.size()], p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_InvMod)->Arg(256)->Arg(1024);

// The Schnorr groups at 256 (dl-test-256) and 1024 bits (dl-1024).
const group::Group& schnorr_for(std::int64_t bits) {
  static const auto g256 = group::make_group(group::GroupId::kDlTest256);
  static const auto g1024 = group::make_group(group::GroupId::kDl1024);
  return bits == 256 ? *g256 : *g1024;
}

void BM_GroupDeserialize(benchmark::State& state) {
  const auto& g = schnorr_for(state.range(0));
  mpz::ChaChaRng rng{10};
  std::vector<std::vector<std::uint8_t>> wire;
  for (int i = 0; i < 64; ++i)
    wire.push_back(g.serialize(g.exp_g(g.random_nonzero_scalar(rng))));
  std::size_t i = 0;
  for (auto _ : state) {
    auto e = g.deserialize(wire[i++ % wire.size()]);
    benchmark::DoNotOptimize(e);
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupDeserialize)->Arg(256)->Arg(1024);

void BM_GroupInv(benchmark::State& state) {
  const auto& g = schnorr_for(state.range(0));
  mpz::ChaChaRng rng{11};
  std::vector<group::Elem> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(g.exp_g(g.random_nonzero_scalar(rng)));
  std::size_t i = 0;
  for (auto _ : state) {
    auto e = g.inv(xs[i++ % xs.size()]);
    benchmark::DoNotOptimize(e);
  }
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupInv)->Arg(256)->Arg(1024);

// One compare circuit's inversions: 2l = 70 elements in one inv_many
// (Montgomery's trick, one invmod per batch). Items/s is per element, so it
// reads directly against BM_GroupInv.
void BM_GroupInvMany(benchmark::State& state) {
  constexpr std::size_t kCircuit = 70;
  const auto& g = schnorr_for(state.range(0));
  mpz::ChaChaRng rng{12};
  std::vector<group::Elem> xs, out(kCircuit);
  for (std::size_t i = 0; i < kCircuit; ++i)
    xs.push_back(g.exp_g(g.random_nonzero_scalar(rng)));
  for (auto _ : state) {
    g.inv_many(xs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kCircuit));
  state.SetLabel(g.name());
}
BENCHMARK(BM_GroupInvMany)->Arg(256)->Arg(1024);

void BM_NatMul(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{6};
  const mpz::Nat a = rng.bits(bits), b = rng.bits(bits);
  for (auto _ : state) {
    auto r = mpz::Nat::mul(a, b);
    benchmark::DoNotOptimize(r);
  }
}
// The shipped q widths: the shuffle hop forms one x·r mod q per ciphertext.
BENCHMARK(BM_NatMul)->Arg(1024)->Arg(2048)->Arg(3072);

// The SS framework's layers on its own field (35-bit betas, a 37-bit prime
// on the 1-limb kernel): BM_MontMul/37 is the product, BM_FpSqrt/37 the
// square root each random bit opens, BM_MpcMul one GRR multiplication
// (every party's product, reshare and recombination) and BM_MpcLessThan one
// Nishide-Ohta comparison, the unit the sort repeats.
void BM_FpSqrt(benchmark::State& state) {
  const mpz::FpCtx& field = core::ss_field_for_beta_bits(35);
  mpz::ChaChaRng rng{13};
  std::vector<mpz::Nat> squares;
  for (int i = 0; i < 64; ++i) squares.push_back(field.sqr(field.random(rng)));
  std::size_t i = 0;
  for (auto _ : state) {
    auto r = field.sqrt(squares[i++ % squares.size()]);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FpSqrt)->Arg(37);

void BM_MpcMul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{7};
  const mpz::FpCtx& field = core::ss_field_for_beta_bits(35);
  sss::MpcEngine engine{field, n, (n - 1) / 2, rng};
  const auto a = engine.input(field.to(mpz::Nat{123}));
  const auto b = engine.input(field.to(mpz::Nat{456}));
  for (auto _ : state) {
    auto r = engine.mul(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("all-party cost; divide by n for per-party");
}
BENCHMARK(BM_MpcMul)->Arg(5)->Arg(7)->Arg(25)->Arg(45)->Arg(70);

void BM_MpcLessThan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  mpz::ChaChaRng rng{8};
  const mpz::FpCtx& field = core::ss_field_for_beta_bits(35);
  sss::MpcEngine engine{field, n, (n - 1) / 2, rng};
  const auto a = engine.input(field.to(mpz::Nat{123456789}));
  const auto b = engine.input(field.to(mpz::Nat{987654321}));
  for (auto _ : state) {
    auto r = engine.less_than(a, b);
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel("all-party cost; divide by n for per-party");
}
BENCHMARK(BM_MpcLessThan)->Arg(7);

}  // namespace

BENCHMARK_MAIN();

#include "benchcore/model.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <initializer_list>
#include <map>
#include <stdexcept>

#include "core/codec.h"
#include "crypto/codec.h"
#include "dotprod/dot_product.h"
#include "group/mock_group.h"

namespace ppgr::benchcore {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ProblemSpec paper_default_spec() {
  return ProblemSpec{.m = 10, .t = 5, .d1 = 15, .d2 = 15, .h = 15};
}

Instance random_instance(const ProblemSpec& spec, std::size_t n,
                         std::uint64_t seed) {
  mpz::ChaChaRng rng{seed};
  auto attrs = [&](std::size_t bits) {
    AttrVec v(spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << bits);
    return v;
  };
  Instance inst;
  inst.v0 = attrs(spec.d1);
  inst.w = attrs(spec.d2);
  inst.infos.reserve(n);
  for (std::size_t j = 0; j < n; ++j) inst.infos.push_back(attrs(spec.d1));
  return inst;
}

namespace {

using runtime::CryptoOp;
using runtime::OpTally;

OpTally tally(std::initializer_list<std::pair<CryptoOp, std::uint64_t>> ops,
              std::uint64_t times = 1) {
  OpTally t;
  for (const auto& [op, k] : ops)
    t.v[static_cast<std::size_t>(op)] += k * times;
  return t;
}

OpTally scaled(const OpTally& t, std::uint64_t k) {
  OpTally out;
  for (std::size_t i = 0; i < runtime::kOpCount; ++i) out.v[i] = t.v[i] * k;
  return out;
}

// The priced fields of a tally, each divided by `parties`.
OpCounts priced(const OpTally& t, std::uint64_t parties) {
  const auto c = [&](CryptoOp op) { return t[op] / parties; };
  return OpCounts{c(CryptoOp::kGroupMul),       c(CryptoOp::kGroupExp),
                  c(CryptoOp::kGroupExpG),      c(CryptoOp::kGroupInv),
                  c(CryptoOp::kGroupSerialize), c(CryptoOp::kGroupDeserialize)};
}

}  // namespace

bool audited_op(CryptoOp op) {
  return op != CryptoOp::kAccelFixedBaseExp &&
         op != CryptoOp::kAccelBatchInverse;
}

OpTally phase1_ops(std::size_t n) {
  return tally({{CryptoOp::kDotprodQuery, 1},
                {CryptoOp::kDotprodAnswer, 1},
                {CryptoOp::kDotprodFinish, 1}},
               n);
}

OpTally compare_circuit_ops(std::size_t l, std::size_t pop,
                            OpProfile profile) {
  // Naive: ct_scale (2 exps) per own set bit and per ω; ct_add_plain (exp_g
  // + mul) per own set bit, per ω and per τ of a set bit; ct_add (2 muls)
  // per ω and per suffix step; the re-randomization's y^r, g^r and 2 muls.
  if (profile == OpProfile::kNaive)
    return tally({{CryptoOp::kGroupExp, 3 * l + 2 * pop},
                  {CryptoOp::kGroupExpG, 2 * l + 2 * pop},
                  {CryptoOp::kGroupMul, 7 * l + 2 * pop}});
  // Executed: γ of a set bit is two inversions, g^1 and a mul; ω is two
  // inversions, the fused inv(γ.c)^coeff · g^coeff, inv(γ.cp)^coeff and two
  // muls; τ of a set bit adds g^1 and a mul; then the same
  // re-randomization and suffix step.
  return tally({{CryptoOp::kGroupInv, 2 * l + 2 * pop},
                {CryptoOp::kGroupDualExp, l},
                {CryptoOp::kGroupExp, 2 * l},
                {CryptoOp::kGroupExpG, l + 2 * pop},
                {CryptoOp::kGroupMul, 6 * l + 2 * pop}});
}

OpTally hop_ciphertext_ops(OpProfile profile) {
  // Naive: partial_decrypt's cp^x and c / cp^x, exp_randomize's c1^r, cp^r.
  // Executed: c^r · cp^(q - x·r) fused, then cp^r.
  if (profile == OpProfile::kNaive)
    return tally({{CryptoOp::kGroupExp, 3},
                  {CryptoOp::kGroupInv, 1},
                  {CryptoOp::kGroupMul, 1}});
  return tally({{CryptoOp::kGroupDualExp, 1}, {CryptoOp::kGroupExp, 1}});
}

HeOpModel model_he_ops(const ProblemSpec& spec, std::size_t n,
                       const std::vector<std::size_t>& popcounts) {
  if (popcounts.size() != n)
    throw std::invalid_argument("model_he_ops: need one popcount per party");
  const std::uint64_t l = spec.beta_bits();
  const std::uint64_t pairs = n * (n - 1);
  const std::uint64_t bits = n * l;           // β bits of all parties
  const std::uint64_t set_cts = (n - 1) * l;  // one party's comparison set
  // Set wire images, 2 elements per ciphertext: n-1 sets to P1, the whole
  // n-set vector forwarded n-1 times along the chain, and n-1 sets returned
  // by Pn — each serialized once and decoded once. Each party serializes
  // its β bits once for all peers, and every peer decodes its own copy.
  const std::uint64_t set_elems = 2 * (n + 2) * (n - 1) * set_cts;
  const std::uint64_t beta_out = 2 * bits;
  const std::uint64_t beta_in = 2 * (n - 1) * bits;
  const auto phases = [&](OpProfile profile) {
    std::array<OpTally, runtime::kPhaseCount> ph{};
    OpTally& p2 = ph[static_cast<std::size_t>(runtime::Phase::kPhase2)];
    // Step 5: key share and proof commitment (exp_g and a serialization
    // each per party); every verifier decodes each peer's share and
    // commitment and checks g^z = h · y^Σc; the joint key multiplies the n
    // shares. Step 6: per β bit encrypt_exp's g^m, y^r, g^r and mul.
    p2 += tally({{CryptoOp::kGroupExpG, 2 * n + pairs + 2 * bits},
                 {CryptoOp::kGroupExp, pairs + bits},
                 {CryptoOp::kGroupMul, pairs + n + bits},
                 {CryptoOp::kGroupSerialize, 2 * n + beta_out + set_elems},
                 {CryptoOp::kGroupDeserialize,
                  2 * pairs + beta_in + set_elems}});
    // Step 7: n-1 circuits per evaluator; step 8: each of the n hops
    // re-randomizes the n-1 foreign sets.
    for (std::size_t j = 0; j < n; ++j)
      p2 += scaled(compare_circuit_ops(l, popcounts[j], profile), n - 1);
    p2 += scaled(hop_ciphertext_ops(profile), n * (n - 1) * set_cts);
    // Step 9: every party decrypts its returned set — cp^x, c / cp^x.
    ph[static_cast<std::size_t>(runtime::Phase::kPhase3)] =
        tally({{CryptoOp::kGroupExp, 1},
               {CryptoOp::kGroupInv, 1},
               {CryptoOp::kGroupMul, 1}},
              n * set_cts);
    return ph;
  };

  HeOpModel model;
  model.phase_ops = phases(OpProfile::kExecuted);
  for (const OpTally& t : phases(OpProfile::kNaive)) model.naive += t;
  // The protocol steps around the group calls: the dot products; one proof
  // per party, checked by each peer; the β bit encryptions; n-1 circuits per
  // evaluator, each re-randomizing its l outputs; one hop per party over
  // each foreign set; and the decryption of every returned ciphertext.
  model.phase_ops[static_cast<std::size_t>(runtime::Phase::kPhase1)] =
      phase1_ops(n);
  model.phase_ops[static_cast<std::size_t>(runtime::Phase::kPhase2)] +=
      tally({{CryptoOp::kSchnorrProve, n},
             {CryptoOp::kSchnorrVerify, pairs},
             {CryptoOp::kElGamalEncrypt, bits},
             {CryptoOp::kCompareCircuit, pairs},
             {CryptoOp::kElGamalRerandomize, pairs * l},
             {CryptoOp::kShuffleHop, pairs}});
  model.phase_ops[static_cast<std::size_t>(runtime::Phase::kPhase3)] +=
      tally({{CryptoOp::kElGamalDecrypt, n * set_cts}});
  return model;
}

std::vector<std::size_t> beta_popcounts(const std::vector<mpz::Nat>& betas) {
  std::vector<std::size_t> pops;
  pops.reserve(betas.size());
  for (const mpz::Nat& beta : betas) {
    std::size_t pop = 0;
    for (std::size_t b = 0; b < beta.bit_length(); ++b) pop += beta.bit(b);
    pops.push_back(pop);
  }
  return pops;
}

std::vector<std::size_t> beta_ranks(const std::vector<mpz::Nat>& betas) {
  std::vector<std::size_t> ranks;
  ranks.reserve(betas.size());
  for (const mpz::Nat& own : betas)
    ranks.push_back(1 + static_cast<std::size_t>(std::count_if(
                            betas.begin(), betas.end(),
                            [&](const mpz::Nat& b) { return b > own; })));
  return ranks;
}

std::vector<std::size_t> top_k_ids(const std::vector<std::size_t>& ranks,
                                   std::size_t k) {
  std::vector<std::size_t> ids;
  for (std::size_t j = 0; j < ranks.size(); ++j)
    if (ranks[j] <= k) ids.push_back(j + 1);
  return ids;
}

std::size_t HeSchedule::message_rounds() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < transfers.size(); ++i)
    if (i == 0 || transfers[i].round != transfers[i - 1].round) ++count;
  return count;
}

HeSchedule model_he_schedule(const ProblemSpec& spec, std::size_t n,
                             const group::Group& g, const mpz::FpCtx& dot_field,
                             std::size_t dot_s,
                             const std::vector<std::size_t>& submitted_ids) {
  using runtime::Phase;
  HeSchedule s;
  Phase phase = Phase::kPhase1;
  const auto send = [&](std::size_t src, std::size_t dst, std::size_t bytes) {
    s.transfers.push_back(
        runtime::Transfer{s.rounds, src, dst, bytes, phase});
  };
  // Every participant's broadcast in id order: party a runs to its round
  // barrier before a+1 takes over.
  const auto broadcast = [&](std::size_t bytes) {
    for (std::size_t a = 1; a <= n; ++a)
      for (std::size_t b = 1; b <= n; ++b)
        if (a != b) send(a, b, bytes);
    ++s.rounds;
  };

  // Phase 1: each participant's disguised query (a d-vector blown up to an
  // s x d matrix plus two masking d-vectors) to the initiator, then one
  // (a, h) pair back. Dimensions follow Participant::gain_query.
  const std::size_t d = spec.m + spec.t + 1;
  const std::size_t sd = std::max(dot_s, dotprod::recommended_s(d));
  for (std::size_t j = 1; j <= n; ++j)
    send(j, 0, dotprod::bob_message_bytes(dot_field, sd, d));
  ++s.rounds;
  for (std::size_t j = 1; j <= n; ++j)
    send(0, j, dotprod::alice_message_bytes(dot_field));
  ++s.rounds;

  // Phase 2: the key share (one element), the proof message (commitment,
  // challenge sum, response) and, after the joint-key round, the bitwise-β
  // broadcast (l ciphertexts). Then each party's flattened (n-1)·l
  // comparison set goes to P1 (P1's own set stays put), the whole n-set
  // vector walks the decrypt-shuffle chain P1 -> ... -> Pn, and Pn returns
  // each set to its owner.
  phase = Phase::kPhase2;
  const std::size_t eb = crypto::elem_wire_bytes(g);
  const std::size_t cb = crypto::ciphertext_wire_bytes(g);
  const std::size_t l = spec.beta_bits();
  broadcast(eb);
  broadcast(eb + 2 * crypto::scalar_wire_bytes(g));
  ++s.rounds;
  broadcast(l * cb);
  const std::size_t set_b = (n - 1) * l * cb;
  for (std::size_t j = 2; j <= n; ++j) send(j, 1, set_b);
  ++s.rounds;
  for (std::size_t hop = 1; hop < n; ++hop) {
    send(hop, hop + 1, n * set_b);
    ++s.rounds;
  }
  for (std::size_t owner = 1; owner < n; ++owner) send(n, owner, set_b);
  ++s.rounds;

  // Phase 3: one fixed-width submission per top-k party, an empty message
  // from every other participant.
  phase = Phase::kPhase3;
  const std::size_t sub_b = core::submission_wire_bytes(spec);
  for (std::size_t j = 1; j <= n; ++j)
    send(j, 0,
         std::count(submitted_ids.begin(), submitted_ids.end(), j) ? sub_b : 0);
  ++s.rounds;
  return s;
}

HeCounts count_he_framework(const ProblemSpec& spec, std::size_t n,
                            std::size_t k, const group::Group& g,
                            std::uint64_t seed) {
  core::FrameworkConfig cfg;
  cfg.spec = spec;
  cfg.n = n;
  cfg.k = k;
  cfg.group = &g;
  cfg.dot_field = &core::default_dot_field();
  const Instance inst = random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 1};
  const double t0 = now_s();
  const std::vector<mpz::Nat> betas =
      core::phase1_betas(cfg, inst.v0, inst.w, inst.infos, rng);

  HeCounts counts;
  counts.phase1_seconds = (now_s() - t0) / static_cast<double>(n);
  // The initiator performs no group operations, so the totals are all
  // participant work; the per-participant share is totals / n (integer
  // division — comparison-circuit cost varies slightly with each party's
  // own β bit pattern, so the division is a mean, not exact per party).
  const OpTally naive =
      model_he_ops(spec, n, beta_popcounts(betas)).naive;
  counts.totals = priced(naive, 1);
  counts.per_participant = priced(naive, n);
  counts.schedule = model_he_schedule(spec, n, g, *cfg.dot_field, cfg.dot_s,
                                      top_k_ids(beta_ranks(betas), k));
  return counts;
}

HePoint price_he_counts(const HeCounts& counts, const std::string& name,
                        const GroupCosts& real_costs) {
  HePoint point;
  point.framework = name;
  point.per_participant = counts.per_participant;
  point.participant_seconds =
      price_group_ops(counts.per_participant, real_costs);
  point.phase1_seconds = counts.phase1_seconds;
  point.rounds = counts.schedule.message_rounds();
  return point;
}

std::vector<runtime::CommLink> model_he_comm(
    const ProblemSpec& spec, std::size_t n, const group::Group& g,
    const mpz::FpCtx& dot_field, std::size_t dot_s,
    const std::vector<std::size_t>& submitted_ids) {
  const HeSchedule s =
      model_he_schedule(spec, n, g, dot_field, dot_s, submitted_ids);
  // Aggregation keyed exactly like CommRegistry::links() sorts.
  std::map<std::tuple<runtime::Phase, std::size_t, std::size_t>,
           std::pair<std::uint64_t, std::uint64_t>>
      acc;
  for (const runtime::Transfer& t : s.transfers) {
    auto& slot = acc[{t.phase, t.src, t.dst}];
    slot.first += 1;
    slot.second += t.bytes;
  }
  std::vector<runtime::CommLink> links;
  links.reserve(acc.size());
  for (const auto& [key, v] : acc) {
    links.push_back(runtime::CommLink{.phase = std::get<0>(key),
                                      .src = std::get<1>(key),
                                      .dst = std::get<2>(key),
                                      .messages = v.first,
                                      .bytes = v.second,
                                      .tx_s = 0.0});
  }
  return links;
}

SsPoint price_ss_framework(const ProblemSpec& spec, std::size_t n,
                           std::size_t k, std::uint64_t seed) {
  const std::size_t l = spec.beta_bits();
  const mpz::FpCtx& field = core::ss_field_for_beta_bits(l);
  const std::size_t t = (n - 1) / 2;  // max tolerable colluders, n >= 2t+1

  // Counted run.
  core::SsFrameworkConfig cfg;
  cfg.base.spec = spec;
  cfg.base.n = n;
  cfg.base.k = k;
  // The SS framework needs no DDH group, but FrameworkConfig validation
  // does; use a mock.
  static const group::MockGroup dummy{"ss-dummy"};
  cfg.base.group = &dummy;
  cfg.base.dot_field = &core::default_dot_field();
  cfg.threshold = std::max<std::size_t>(1, t);
  cfg.mode = sss::MpcEngine::Mode::kCountOnly;

  const Instance inst = random_instance(spec, n, seed);
  mpz::ChaChaRng rng{seed + 2};
  auto result = core::run_ss_framework(cfg, inst.v0, inst.w, inst.infos, rng);

  // Calibrate the substrate at this exact (n, t, field).
  mpz::ChaChaRng crng{seed + 3};
  const SsCosts costs = calibrate_ss(field, n, cfg.threshold, crng);

  SsPoint point;
  point.totals = result.sort_costs;
  point.parallel_rounds = result.parallel_rounds;
  point.participant_seconds = price_ss_ops(result.sort_costs, costs, n);
  const double t1 = now_s();
  (void)core::phase1_betas(cfg.base, inst.v0, inst.w, inst.infos, rng);
  point.phase1_seconds = (now_s() - t1) / static_cast<double>(n);
  point.trace = std::move(result.trace);
  return point;
}

TablePrinter::TablePrinter(std::vector<std::string> headers) {
  widths_.reserve(headers.size());
  std::string line;
  for (const auto& head : headers) {
    widths_.push_back(std::max<std::size_t>(head.size() + 2, 14));
    line += head;
    line.append(widths_.back() - head.size(), ' ');
  }
  std::cout << line << "\n" << std::string(line.size(), '-') << "\n";
}

void TablePrinter::row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    line += cells[i];
    const std::size_t width = i < widths_.size() ? widths_[i] : 14;
    if (cells[i].size() < width) line.append(width - cells[i].size(), ' ');
  }
  std::cout << line << "\n";
}

std::string TablePrinter::fmt_seconds(double s) {
  char buf[32];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", s);
  }
  return buf;
}

std::string TablePrinter::fmt_count(std::uint64_t c) {
  char buf[32];
  if (c >= 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(c) / 1e6);
  } else if (c >= 10'000) {
    std::snprintf(buf, sizeof(buf), "%.1fk", static_cast<double>(c) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(c));
  }
  return buf;
}

}  // namespace ppgr::benchcore

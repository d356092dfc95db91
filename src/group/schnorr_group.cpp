#include "group/schnorr_group.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "mpz/ifma_lanes.h"
#include "mpz/modarith.h"

namespace ppgr::group {
namespace {

using mpz::Limb;

// a + b == m, for residues a, b < m, on the limbs (no allocation).
bool sums_to(const Nat& a, const Nat& b, const Nat& m) {
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < m.limb_count(); ++i) {
    const unsigned __int128 s =
        static_cast<unsigned __int128>(a.limb(i)) + b.limb(i) + carry;
    if (static_cast<mpz::Limb>(s) != m.limb(i)) return false;
    carry = s >> 64;
  }
  return carry == 0;
}

// v > b, for v on k limbs and b below 2^(64k).
bool greater(const Limb* v, const Nat& b, std::size_t k) {
  for (std::size_t i = k; i-- > 0;)
    if (v[i] != b.limb(i)) return v[i] > b.limb(i);
  return false;
}

// v = m - v on k limbs, for v <= m.
void sub_from(Limb* v, const Limb* m, std::size_t k) {
  unsigned __int128 borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const unsigned __int128 d =
        static_cast<unsigned __int128>(m[i]) - v[i] - borrow;
    v[i] = static_cast<Limb>(d);
    borrow = (d >> 64) & 1;
  }
}

// The residues of `xs`, for MontCtx's batch ladders.
std::vector<Nat> residues(std::span<const Elem> xs) {
  std::vector<Nat> out;
  out.reserve(xs.size());
  for (const Elem& x : xs) out.push_back(x.a);
  return out;
}

}  // namespace

SchnorrGroup::SchnorrGroup(std::string name, Nat safe_prime)
    : name_(std::move(name)), mont_(std::move(safe_prime)) {
  const Nat& p = mont_.modulus();
  if (p < Nat{7}) throw std::invalid_argument("SchnorrGroup: p too small");
  // -1 must be a non-residue, so that each class {x, -x} holds exactly one
  // quadratic residue (true of every safe prime p = 2q+1 with q odd).
  if ((p.limb(0) & 3u) != 3u)
    throw std::invalid_argument("SchnorrGroup: p is not 3 mod 4");
  q_ = Nat::sub(p, Nat{1}).shr(1);
  gen_ = mont_.to_mont(Nat{4});
  neg_one_ = Nat::sub(p, mont_.one_mont());
}

Elem SchnorrGroup::generator() const { return Elem{.a = gen_}; }

const FixedBaseTable& SchnorrGroup::gen_table() const {
  std::call_once(gen_table_once_, [&] {
    gen_table_ = std::make_unique<FixedBaseTable>(*this, generator());
  });
  return *gen_table_;
}

Elem SchnorrGroup::exp_g(const Nat& scalar) const {
  return comb(gen_table(), scalar);
}

void SchnorrGroup::exp_g_many(std::span<const Nat> scalars,
                              std::span<Elem> out) const {
  exp_fixed_many(gen_table(), scalars, out);
}

Elem SchnorrGroup::comb(const FixedBaseTable& table, const Nat& scalar) const {
  if (!table.fits(scalar)) return exp(table.base(), scalar);
  const std::size_t k = mont_.limbs();
  const Limb* entries = table.packed().data();
  Limb acc[mpz::MontCtx::kCiosMaxLimbs];
  mont_.one_mont().to_limbs(acc, k);
  for (std::size_t w = 0; w < table.windows_of(scalar); ++w)
    if (const unsigned d = table.digit(scalar, w); d != 0)
      mont_.mul_limbs(acc, acc,
                      entries + ((w << table.window_bits()) + d) * k);
  return Elem{.a = Nat::from_limbs({acc, k})};
}

void SchnorrGroup::exp_fixed_many(const FixedBaseTable& table,
                                  std::span<const Nat> scalars,
                                  std::span<Elem> out) const {
  if (scalars.size() != out.size())
    throw std::invalid_argument(
        "SchnorrGroup::exp_fixed_many: span sizes differ");
  if (table.packed().size() != table.entries() * mont_.limbs())
    throw std::invalid_argument(
        "SchnorrGroup::exp_fixed_many: table not packed by this group");
  const auto scalar = [&](std::size_t j) { out[j] = comb(table, scalars[j]); };
  if (mont_.batch_lanes() == 8) {
    count_lanes(mpz::lanes::split_lanes(
        out.size(),
        [&]<std::size_t>(std::size_t i, std::size_t count) {
          std::array<Nat, 2 * mpz::lanes::kLanes> r;
          if (!mont_.comb_lanes(table.packed(), table.window_bits(),
                                scalars.subspan(i, count),
                                std::span(r).first(count)))
            return false;
          for (std::size_t j = 0; j < count; ++j)
            out[i + j] = Elem{.a = std::move(r[j])};
          return true;
        },
        scalar));
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i) scalar(i);
}

std::vector<Limb> SchnorrGroup::pack_table(
    std::span<const Elem> entries) const {
  const std::size_t k = mont_.limbs();
  std::vector<Limb> out(entries.size() * k);
  for (std::size_t i = 0; i < entries.size(); ++i)
    entries[i].a.to_limbs(&out[k * i], k);
  return out;
}

Elem SchnorrGroup::identity() const { return Elem{.a = mont_.one_mont()}; }

Elem SchnorrGroup::mul(const Elem& x, const Elem& y) const {
  return Elem{.a = mont_.mul(x.a, y.a)};
}

Elem SchnorrGroup::exp(const Elem& base, const Nat& scalar) const {
  return Elem{.a = mont_.exp(base.a, scalar)};
}

Elem SchnorrGroup::dual_exp(const Elem& x, const Nat& ex, const Elem& y,
                            const Nat& ey) const {
  return Elem{.a = mont_.dual_exp(x.a, ex, y.a, ey)};
}

// The batch forms run MontCtx's batch ladders in place over copies of the
// residues (MontCtx allows out[i] to be its own base).
void SchnorrGroup::exp_many(std::span<const Elem> bases,
                            std::span<const Nat> scalars,
                            std::span<Elem> out) const {
  if (bases.size() != out.size())
    throw std::invalid_argument("SchnorrGroup::exp_many: span sizes differ");
  std::vector<Nat> r = residues(bases);
  count_lanes(mont_.exp_many(r, scalars, r));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = Elem{.a = std::move(r[i])};
}

void SchnorrGroup::dual_exp_many(std::span<const Elem> xs,
                                 std::span<const Nat> exs,
                                 std::span<const Elem> ys,
                                 std::span<const Nat> eys,
                                 std::span<Elem> out) const {
  if (xs.size() != out.size() || ys.size() != out.size())
    throw std::invalid_argument(
        "SchnorrGroup::dual_exp_many: span sizes differ");
  std::vector<Nat> r = residues(xs);
  count_lanes(mont_.dual_exp_many(r, exs, residues(ys), eys, r));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = Elem{.a = std::move(r[i])};
}

Elem SchnorrGroup::inv(const Elem& x) const {
  // Binary field inverse (mpz::invmod): far cheaper than the x^(q-1)
  // exponentiation (a full-width ladder), and the inverse is unique in
  // Z_p*, so the result is bit-identical. Inverting the Montgomery form xR
  // directly would yield x^{-1}R^{-1}; convert out and back in instead.
  const auto s = mpz::invmod(mont_.from_mont(x.a), mont_.modulus());
  if (!s.has_value())  // impossible for subgroup elements (p prime, x != 0)
    throw std::domain_error("SchnorrGroup::inv: element not invertible");
  return Elem{.a = mont_.to_mont(*s)};
}

// Montgomery's trick on the raw residues: one invmod for the whole batch.
void SchnorrGroup::inv_many(std::span<const Elem> xs,
                            std::span<Elem> out) const {
  if (xs.size() != out.size())
    throw std::invalid_argument("SchnorrGroup::inv_many: span sizes differ");
  std::vector<Nat> r(out.size());
  mont_.inv_many(residues(xs), r);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = Elem{.a = std::move(r[i])};
}

// The Montgomery form of -x is p - xR, so the classes of x and y are equal
// iff xR == yR or xR + yR == p.
bool SchnorrGroup::eq(const Elem& x, const Elem& y) const {
  return x.a == y.a || sums_to(x.a, y.a, mont_.modulus());
}

bool SchnorrGroup::is_identity(const Elem& x) const {
  return x.a == mont_.one_mont() || x.a == neg_one_;
}

std::size_t SchnorrGroup::element_bytes() const {
  return (mont_.modulus().bit_length() + 7) / 8;
}

std::vector<std::uint8_t> SchnorrGroup::serialize(const Elem& x) const {
  std::vector<std::uint8_t> out(element_bytes());
  const Elem* const one[] = {&x};
  serialize_into(one, out);
  return out;
}

void SchnorrGroup::serialize_into(std::span<const Elem* const> xs,
                                  std::span<std::uint8_t> out) const {
  const std::size_t eb = element_bytes(), k = mont_.limbs();
  if (out.size() != xs.size() * eb)
    throw std::invalid_argument("SchnorrGroup::serialize_into: output size");
  const Limb* p = mont_.modulus().limbs().data();
  Limb v[mpz::MontCtx::kCiosMaxLimbs];
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i]->a.to_limbs(v, k);
    mont_.from_mont_limbs(v, v);
    // The canonical representative |x| = min(v, p - v).
    if (greater(v, q_, k)) sub_from(v, p, k);
    mpz::limbs_to_be(out.subspan(i * eb, eb), v);
  }
}

Elem SchnorrGroup::deserialize(std::span<const std::uint8_t> bytes) const {
  if (bytes.size() != element_bytes())
    throw std::invalid_argument("SchnorrGroup::deserialize: bad length");
  Elem x;
  Elem* const one[] = {&x};
  deserialize_into(bytes, one);
  return x;
}

void SchnorrGroup::deserialize_into(std::span<const std::uint8_t> bytes,
                                    std::span<Elem* const> out) const {
  const std::size_t eb = element_bytes(), k = mont_.limbs();
  if (bytes.size() != out.size() * eb)
    throw std::invalid_argument("SchnorrGroup::deserialize_into: input size");
  Limb v[mpz::MontCtx::kCiosMaxLimbs];
  for (std::size_t i = 0; i < out.size(); ++i) {
    mpz::limbs_from_be(v, k, bytes.subspan(i * eb, eb));
    // Every z in [1, q] is the canonical representative of exactly one
    // class, so this range check is the whole membership test.
    if (std::all_of(v, v + k, [](Limb l) { return l == 0; }) ||
        greater(v, q_, k))
      throw std::invalid_argument("SchnorrGroup::deserialize: out of range");
    mont_.to_mont_limbs(v, v);
    *out[i] = Elem{.a = Nat::from_limbs({v, k})};
  }
}

}  // namespace ppgr::group

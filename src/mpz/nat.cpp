#include "mpz/nat.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstring>
#include <stdexcept>

namespace ppgr::mpz {

namespace {

using U128 = unsigned __int128;

constexpr std::size_t kLimbBits = 64;

// a*b -> (hi, lo)
inline void mul64(Limb a, Limb b, Limb& hi, Limb& lo) {
  const U128 p = static_cast<U128>(a) * b;
  hi = static_cast<Limb>(p >> 64);
  lo = static_cast<Limb>(p);
}

}  // namespace

Nat::Nat(Limb v) {
  if (v != 0) limbs_.push_back(v);
}

void Nat::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

Nat Nat::from_limbs(std::span<const Limb> limbs) {
  Nat n;
  n.limbs_.assign(limbs.begin(), limbs.end());
  n.normalize();
  return n;
}

Nat Nat::pow2(std::size_t k) {
  Nat n;
  n.limbs_.assign(k / kLimbBits + 1, 0);
  n.limbs_.back() = Limb{1} << (k % kLimbBits);
  return n;
}

std::size_t Nat::bit_length() const {
  if (limbs_.empty()) return 0;
  return limbs_.size() * kLimbBits -
         static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool Nat::bit(std::size_t i) const {
  const std::size_t li = i / kLimbBits;
  if (li >= limbs_.size()) return false;
  return (limbs_[li] >> (i % kLimbBits)) & 1u;
}

void Nat::set_bit(std::size_t i, bool v) {
  const std::size_t li = i / kLimbBits;
  if (li >= limbs_.size()) {
    if (!v) return;
    limbs_.resize(li + 1, 0);
  }
  const Limb mask = Limb{1} << (i % kLimbBits);
  if (v) {
    limbs_[li] |= mask;
  } else {
    limbs_[li] &= ~mask;
    normalize();
  }
}

int Nat::cmp(const Nat& a, const Nat& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

Nat Nat::add(const Nat& a, const Nat& b) {
  const Nat& lo = a.limbs_.size() <= b.limbs_.size() ? a : b;
  const Nat& hi = a.limbs_.size() <= b.limbs_.size() ? b : a;
  Nat out;
  out.limbs_.resize(hi.limbs_.size() + 1, 0);
  Limb carry = 0;
  std::size_t i = 0;
  for (; i < lo.limbs_.size(); ++i) {
    const U128 s = static_cast<U128>(hi.limbs_[i]) + lo.limbs_[i] + carry;
    out.limbs_[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
  for (; i < hi.limbs_.size(); ++i) {
    const U128 s = static_cast<U128>(hi.limbs_[i]) + carry;
    out.limbs_[i] = static_cast<Limb>(s);
    carry = static_cast<Limb>(s >> 64);
  }
  out.limbs_[i] = carry;
  out.normalize();
  return out;
}

Nat Nat::sub(const Nat& a, const Nat& b) {
  if (cmp(a, b) < 0) throw std::domain_error("Nat::sub: underflow (a < b)");
  Nat out;
  out.limbs_.resize(a.limbs_.size(), 0);
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const Limb bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const Limb ai = a.limbs_[i];
    const Limb d = ai - bi - borrow;
    // Borrow occurred iff we wrapped: bi + borrow > ai.
    borrow = (borrow != 0) ? (ai <= bi ? 1 : 0) : (ai < bi ? 1 : 0);
    out.limbs_[i] = d;
  }
  out.normalize();
  return out;
}

Nat Nat::mul(const Nat& a, const Nat& b) {
  if (a.is_zero() || b.is_zero()) return Nat{};
  Nat out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    Limb carry = 0;
    const Limb ai = a.limbs_[i];
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const U128 t = static_cast<U128>(ai) * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    out.limbs_[i + b.limbs_.size()] = carry;
  }
  out.normalize();
  return out;
}

Nat Nat::shl(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    if (bits == 0) return *this;
    return Nat{};
  }
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  Nat out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
  }
  out.normalize();
  return out;
}

Nat Nat::shr(std::size_t bits) const {
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= limbs_.size()) return Nat{};
  const std::size_t bit_shift = bits % kLimbBits;
  Nat out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift == 0 ? limbs_[i + limb_shift]
                                   : (limbs_[i + limb_shift] >> bit_shift);
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
  }
  out.normalize();
  return out;
}

Nat::DivRem Nat::divrem(const Nat& a, const Nat& b) {
  if (b.is_zero()) throw std::domain_error("Nat::divrem: division by zero");
  if (cmp(a, b) < 0) return {Nat{}, a};
  if (b.limbs_.size() == 1) {
    // Single-limb fast path.
    const Limb d = b.limbs_[0];
    Nat q;
    q.limbs_.assign(a.limbs_.size(), 0);
    U128 rem = 0;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      const U128 cur = (rem << 64) | a.limbs_[i];
      q.limbs_[i] = static_cast<Limb>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return {std::move(q), Nat{static_cast<Limb>(rem)}};
  }

  // Knuth TAOCP vol. 2, Algorithm D.
  const std::size_t n = b.limbs_.size();
  const std::size_t m = a.limbs_.size() - n;
  const unsigned shift =
      static_cast<unsigned>(std::countl_zero(b.limbs_.back()));
  // Normalized copies; un gets an extra high limb.
  std::vector<Limb> vn(n), un(a.limbs_.size() + 1, 0);
  for (std::size_t i = n; i-- > 0;) {
    vn[i] = (b.limbs_[i] << shift);
    if (shift != 0 && i > 0) vn[i] |= b.limbs_[i - 1] >> (64 - shift);
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    un[i] = (a.limbs_[i] << shift);
    if (shift != 0 && i > 0) un[i] |= a.limbs_[i - 1] >> (64 - shift);
  }
  if (shift != 0) un[a.limbs_.size()] = a.limbs_.back() >> (64 - shift);

  Nat q;
  q.limbs_.assign(m + 1, 0);
  for (std::size_t j = m + 1; j-- > 0;) {
    const U128 num = (static_cast<U128>(un[j + n]) << 64) | un[j + n - 1];
    U128 qhat = num / vn[n - 1];
    U128 rhat = num % vn[n - 1];
    while (qhat >= (U128{1} << 64) ||
           qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= (U128{1} << 64)) break;
    }
    // Multiply-subtract: un[j..j+n] -= qhat * vn.
    Limb borrow = 0, carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Limb phi, plo;
      mul64(static_cast<Limb>(qhat), vn[i], phi, plo);
      const U128 pl = static_cast<U128>(plo) + carry;
      plo = static_cast<Limb>(pl);
      phi += static_cast<Limb>(pl >> 64);
      const Limb u = un[i + j];
      const Limb d = u - plo - borrow;
      borrow = (borrow != 0) ? (u <= plo ? 1 : 0) : (u < plo ? 1 : 0);
      un[i + j] = d;
      carry = phi;
    }
    const Limb utop = un[j + n];
    const Limb dtop = utop - carry - borrow;
    const bool neg =
        (borrow != 0) ? (utop <= carry) : (utop < carry);
    un[j + n] = dtop;

    if (neg) {
      // Add back one multiple of vn (happens with prob ~2/2^64).
      --qhat;
      Limb c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const U128 s = static_cast<U128>(un[i + j]) + vn[i] + c2;
        un[i + j] = static_cast<Limb>(s);
        c2 = static_cast<Limb>(s >> 64);
      }
      un[j + n] += c2;
    }
    q.limbs_[j] = static_cast<Limb>(qhat);
  }
  q.normalize();

  Nat r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  r.normalize();
  return {std::move(q), r.shr(shift)};
}

Nat Nat::from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.empty()) throw std::invalid_argument("Nat::from_hex: empty string");
  Nat out;
  for (const char c : hex) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else if (c == '_' || c == ' ') continue;  // allow visual grouping
    else throw std::invalid_argument("Nat::from_hex: bad digit");
    out = out.shl(4);
    if (d != 0) out = add(out, Nat{static_cast<Limb>(d)});
  }
  return out;
}

Nat Nat::from_dec(std::string_view dec) {
  if (dec.empty()) throw std::invalid_argument("Nat::from_dec: empty string");
  Nat out;
  const Nat ten{10};
  for (const char c : dec) {
    if (c < '0' || c > '9') throw std::invalid_argument("Nat::from_dec: bad digit");
    out = add(mul(out, ten), Nat{static_cast<Limb>(c - '0')});
  }
  return out;
}

Nat Nat::from_bytes_be(std::span<const std::uint8_t> bytes) {
  Nat out;
  out.limbs_.resize((bytes.size() + 7) / 8);
  limbs_from_be(out.limbs_.data(), out.limbs_.size(), bytes);
  out.normalize();
  return out;
}

namespace {

// Eight big-endian bytes as a limb, and back.
Limb load_be64(const std::uint8_t* p) {
  Limb v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::little)
    v = __builtin_bswap64(v);
  return v;
}

void store_be64(std::uint8_t* p, Limb v) {
  if constexpr (std::endian::native == std::endian::little)
    v = __builtin_bswap64(v);
  std::memcpy(p, &v, 8);
}

}  // namespace

void limbs_from_be(Limb* out, std::size_t k,
                   std::span<const std::uint8_t> be) {
  std::size_t n = be.size(), i = 0;
  for (; n >= 8; n -= 8) out[i++] = load_be64(be.data() + n - 8);
  if (n > 0) {
    Limb v = 0;
    for (std::size_t j = 0; j < n; ++j) v = (v << 8) | be[j];
    out[i++] = v;
  }
  std::fill(out + i, out + k, Limb{0});
}

void limbs_to_be(std::span<std::uint8_t> be, const Limb* limbs) {
  std::size_t n = be.size(), i = 0;
  for (; n >= 8; n -= 8) store_be64(be.data() + n - 8, limbs[i++]);
  if (n > 0) {
    Limb v = limbs[i];
    for (std::size_t j = n; j-- > 0; v >>= 8)
      be[j] = static_cast<std::uint8_t>(v);
  }
}

std::string Nat::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(limbs_.size() * 16);
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      s.push_back(kDigits[(limbs_[i] >> (nib * 4)) & 0xF]);
    }
  }
  const std::size_t first = s.find_first_not_of('0');
  return s.substr(first);
}

std::string Nat::to_dec() const {
  if (is_zero()) return "0";
  std::string s;
  Nat cur = *this;
  // Peel 19 decimal digits at a time (largest power of 10 in a limb).
  const Nat chunk{10'000'000'000'000'000'000ULL};
  while (!cur.is_zero()) {
    auto [q, r] = divrem(cur, chunk);
    Limb v = r.to_limb();
    const bool last = q.is_zero();
    for (int i = 0; i < 19 && (!last || v != 0 || i == 0); ++i) {
      s.push_back(static_cast<char>('0' + v % 10));
      v /= 10;
    }
    cur = std::move(q);
  }
  std::reverse(s.begin(), s.end());
  return s;
}

std::vector<std::uint8_t> Nat::to_bytes_be(std::size_t width) const {
  const std::size_t need = (bit_length() + 7) / 8;
  if (width == 0) width = need;
  if (need > width) throw std::length_error("Nat::to_bytes_be: value too wide");
  std::vector<std::uint8_t> out(width, 0);
  limbs_to_be(std::span{out}.subspan(width - need), limbs_.data());
  return out;
}

}  // namespace ppgr::mpz

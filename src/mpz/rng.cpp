#include "mpz/rng.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace ppgr::mpz {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

void chacha20_block(const std::array<std::uint32_t, 16>& in,
                    std::array<std::uint8_t, 64>& out) {
  std::array<std::uint32_t, 16> x = in;
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += in[i];
  std::memcpy(out.data(), x.data(), 64);
}

}  // namespace

ChaChaRng::ChaChaRng(std::uint64_t seed) {
  std::array<std::uint8_t, 32> key{};
  std::memcpy(key.data(), &seed, sizeof(seed));
  *this = ChaChaRng(key);
}

ChaChaRng::ChaChaRng(const std::array<std::uint8_t, 32>& key)
    : ChaChaRng(key, 0) {}

ChaChaRng::ChaChaRng(const std::array<std::uint8_t, 32>& key,
                     std::uint64_t stream) {
  static constexpr std::array<std::uint32_t, 4> kSigma = {
      0x61707865u, 0x3320646eu, 0x79622d32u, 0x6b206574u};
  for (int i = 0; i < 4; ++i) state_[i] = kSigma[static_cast<std::size_t>(i)];
  std::memcpy(&state_[4], key.data(), 32);
  state_[12] = 0;  // block counter
  state_[13] = 0;
  state_[14] = static_cast<std::uint32_t>(stream);  // nonce = stream id
  state_[15] = static_cast<std::uint32_t>(stream >> 32);
}

ChaChaRng ChaChaRng::from_os() {
  std::array<std::uint8_t, 32> key{};
  std::ifstream urandom("/dev/urandom", std::ios::binary);
  if (!urandom ||
      !urandom.read(reinterpret_cast<char*>(key.data()),
                    static_cast<std::streamsize>(key.size()))) {
    throw std::runtime_error("ChaChaRng::from_os: cannot read /dev/urandom");
  }
  return ChaChaRng(key);
}

void ChaChaRng::refill() {
  chacha20_block(state_, buf_);
  if (++state_[12] == 0) ++state_[13];  // 128-bit counter, never wraps
  pos_ = 0;
}

void ChaChaRng::fill(std::span<std::uint8_t> out) {
  std::size_t done = 0;
  while (done < out.size()) {
    if (pos_ == 64) refill();
    const std::size_t take = std::min<std::size_t>(64 - pos_, out.size() - done);
    std::memcpy(out.data() + done, buf_.data() + pos_, take);
    pos_ += take;
    done += take;
  }
}

StreamFamily::StreamFamily(Rng& parent) { parent.fill(key_); }

std::uint64_t Rng::next_u64() {
  std::array<std::uint8_t, 8> b{};
  fill(b);
  std::uint64_t v;
  std::memcpy(&v, b.data(), 8);
  return v;
}

std::uint64_t Rng::below_u64(std::uint64_t bound) {
  if (bound == 0) throw std::domain_error("Rng::below_u64: zero bound");
  // Rejection sampling on the top region to remove modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

Nat Rng::bits(std::size_t nbits) {
  if (nbits == 0) return Nat{};
  // Draws up to 4096 bits (every field, scalar and modulus of the library)
  // fill a stack buffer; only wider ones allocate.
  std::array<std::uint8_t, 512> stack{};
  std::vector<std::uint8_t> heap;
  std::span<std::uint8_t> buf{stack.data(), (nbits + 7) / 8};
  if (buf.size() > stack.size()) {
    heap.resize(buf.size());
    buf = heap;
  }
  fill(buf);
  // Mask off excess top bits.
  const std::size_t excess = buf.size() * 8 - nbits;
  buf[0] &= static_cast<std::uint8_t>(0xFFu >> excess);
  return Nat::from_bytes_be(buf);
}

Nat Rng::below(const Nat& bound) {
  if (bound.is_zero()) throw std::domain_error("Rng::below: zero bound");
  // Bounds up to 4 limbs (every group order and field but dl-1024 and up)
  // draw into a stack buffer.
  std::array<Limb, 4> stack{};
  std::vector<Limb> heap;
  std::span<Limb> out{stack.data(), bound.limb_count()};
  if (out.size() > stack.size()) {
    heap.resize(out.size());
    out = heap;
  }
  below_limbs(bound.limbs(), out);
  return Nat::from_limbs(out);
}

void Rng::below_limbs(std::span<const Limb> bound, std::span<Limb> out) {
  if (bound.empty() || bound.back() == 0)
    throw std::domain_error("Rng::below_limbs: bound not normalized nonzero");
  if (out.size() != bound.size())
    throw std::invalid_argument("Rng::below_limbs: width mismatch");
  const std::size_t nbits =
      64 * bound.size() -
      static_cast<std::size_t>(std::countl_zero(bound.back()));
  std::array<std::uint8_t, 32> stack{};
  std::vector<std::uint8_t> heap;
  std::span<std::uint8_t> buf{stack.data(), (nbits + 7) / 8};
  if (buf.size() > stack.size()) {
    heap.resize(buf.size());
    buf = heap;
  }
  const auto top = static_cast<std::uint8_t>(0xFFu >> (buf.size() * 8 - nbits));
  for (;;) {
    fill(buf);
    buf[0] &= top;
    limbs_from_be(out.data(), out.size(), buf);
    // out < bound, compared from the top limb down.
    for (std::size_t i = out.size(); i-- > 0;) {
      if (out[i] != bound[i]) {
        if (out[i] < bound[i]) return;
        break;
      }
    }
  }
}

Nat Rng::nonzero_below(const Nat& bound) {
  for (;;) {
    Nat candidate = below(bound);
    if (!candidate.is_zero()) return candidate;
  }
}

}  // namespace ppgr::mpz

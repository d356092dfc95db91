#include "crypto/codec.h"

#include <algorithm>

namespace ppgr::crypto {

void write_elem(Writer& w, const Group& g, const Elem& e) {
  w.raw(g.serialize(e));
}

Elem read_elem(Reader& r, const Group& g) {
  return g.deserialize(r.raw(g.element_bytes()));
}

void write_scalar(Writer& w, const Group& g, const mpz::Nat& s) {
  w.raw(s.to_bytes_be(scalar_wire_bytes(g)));
}

mpz::Nat read_scalar(Reader& r, const Group& g) {
  const mpz::Nat s = mpz::Nat::from_bytes_be(r.raw(scalar_wire_bytes(g)));
  if (s >= g.order())
    throw runtime::WireError("scalar out of range");
  return s;
}

void write_ciphertext_seq(std::span<std::uint8_t> out, const Group& g,
                          std::span<const Ciphertext> cts) {
  // One batch for the whole set: identical bytes and the same logical
  // serialization count, but elliptic-curve groups normalize all 2·|cts|
  // points to affine with a single batched field inversion.
  std::vector<const group::Elem*> elems;
  elems.reserve(2 * cts.size());
  for (const auto& ct : cts) {
    elems.push_back(&ct.c);
    elems.push_back(&ct.cp);
  }
  g.serialize_into(elems, out);
}

void read_ciphertext_seq(Reader& r, const Group& g, std::span<Ciphertext> out) {
  // A count the input cannot hold fails before anything decodes.
  if (out.size() > r.remaining() / ciphertext_wire_bytes(g) + 1)
    throw runtime::WireError("ciphertext_seq: count exceeds input");
  const std::size_t eb = g.element_bytes();
  // The whole elements the input holds, at most 2·|out|, decode as one
  // batch; a truncated one after them fails as reading it alone does.
  const std::size_t whole = std::min(2 * out.size(), r.remaining() / eb);
  std::vector<group::Elem*> elems(whole);
  for (std::size_t i = 0; i < whole; ++i)
    elems[i] = i % 2 == 0 ? &out[i / 2].c : &out[i / 2].cp;
  g.deserialize_into(r.raw(whole * eb), elems);
  if (whole < 2 * out.size()) (void)r.raw(eb);
}

void write_schnorr_proof(Writer& w, const Group& g, const SchnorrProof& p) {
  write_elem(w, g, p.commitment);
  write_scalar(w, g, p.challenge_sum);
  write_scalar(w, g, p.response);
}

SchnorrProof read_schnorr_proof(Reader& r, const Group& g) {
  SchnorrProof p;
  p.commitment = read_elem(r, g);
  p.challenge_sum = read_scalar(r, g);
  p.response = read_scalar(r, g);
  return p;
}

std::size_t elem_wire_bytes(const Group& g) { return g.element_bytes(); }

std::size_t ciphertext_wire_bytes(const Group& g) {
  return 2 * g.element_bytes();
}

std::size_t scalar_wire_bytes(const Group& g) {
  return (g.order().bit_length() + 7) / 8;
}

}  // namespace ppgr::crypto

#include "core/codec.h"

namespace ppgr::core {

namespace {
std::size_t field_bytes(const FpCtx& f) { return (f.bits() + 7) / 8; }
}  // namespace

void write_field_elem(Writer& w, const FpCtx& f, const Nat& elem) {
  w.raw(f.from(elem).to_bytes_be(field_bytes(f)));
}

Nat read_field_elem(Reader& r, const FpCtx& f) {
  const Nat v = Nat::from_bytes_be(r.raw(field_bytes(f)));
  if (v >= f.p()) throw runtime::WireError("field element out of range");
  return f.to(v);
}

void write_bob_round1(Writer& w, const FpCtx& f, const dotprod::BobRound1& m) {
  w.varint(m.qx.size());
  w.varint(m.qx.empty() ? 0 : m.qx[0].size());
  for (const auto& row : m.qx)
    for (const auto& x : row) write_field_elem(w, f, x);
  for (const auto& x : m.cprime) write_field_elem(w, f, x);
  for (const auto& x : m.gvec) write_field_elem(w, f, x);
}

dotprod::BobRound1 read_bob_round1(Reader& r, const FpCtx& f) {
  const std::uint64_t s = r.varint();
  const std::uint64_t d = r.varint();
  const std::size_t fe = field_bytes(f);
  // s + 2 rows of d elements must fit in the input. The dimensions are
  // untrusted, so they are bounded by division (d first, then s), never by
  // a product that could wrap; the bound on s alone keeps s + 2 from wrapping.
  const std::size_t rem = r.remaining();
  const bool fits = d != 0 && d <= rem / fe && s <= rem / (d * fe) &&
                    s + 2 <= rem / (d * fe);
  if (s == 0 || !fits)
    throw runtime::WireError("bob_round1: bad dimensions");
  dotprod::BobRound1 m;
  m.qx.assign(s, dotprod::FVec(d));
  for (auto& row : m.qx)
    for (auto& x : row) x = read_field_elem(r, f);
  m.cprime.resize(d);
  for (auto& x : m.cprime) x = read_field_elem(r, f);
  m.gvec.resize(d);
  for (auto& x : m.gvec) x = read_field_elem(r, f);
  return m;
}

void write_alice_round2(Writer& w, const FpCtx& f,
                        const dotprod::AliceRound2& m) {
  write_field_elem(w, f, m.a);
  write_field_elem(w, f, m.h);
}

dotprod::AliceRound2 read_alice_round2(Reader& r, const FpCtx& f) {
  dotprod::AliceRound2 m;
  m.a = read_field_elem(r, f);
  m.h = read_field_elem(r, f);
  return m;
}

namespace {
std::size_t attr_bytes(const ProblemSpec& spec) { return (spec.d1 + 7) / 8; }
}  // namespace

void write_submission(Writer& w, const ProblemSpec& spec,
                      const Initiator::Submission& s) {
  // Validate up front: the fixed-width encoding would silently truncate an
  // out-of-range attribute.
  spec.check_attributes(s.info);
  w.u32(static_cast<std::uint32_t>(s.participant));
  w.u32(static_cast<std::uint32_t>(s.claimed_rank));
  const std::size_t ab = attr_bytes(spec);
  for (const auto v : s.info) {
    std::uint8_t be[8];
    for (std::size_t i = 0; i < ab; ++i)
      be[i] = static_cast<std::uint8_t>(v >> (8 * (ab - 1 - i)));
    w.raw(std::span{be, ab});
  }
}

Initiator::Submission read_submission(Reader& r, const ProblemSpec& spec) {
  Initiator::Submission s;
  s.participant = r.u32();
  s.claimed_rank = r.u32();
  const std::size_t ab = attr_bytes(spec);
  s.info.reserve(spec.m);
  for (std::size_t i = 0; i < spec.m; ++i) {
    const auto be = r.raw(ab);
    std::uint64_t v = 0;
    for (const auto byte : be) v = (v << 8) | byte;
    s.info.push_back(v);
  }
  spec.check_attributes(s.info);  // enforces the d1 bound
  return s;
}

std::size_t submission_wire_bytes(const ProblemSpec& spec) {
  return spec.m * attr_bytes(spec) + 8;
}

}  // namespace ppgr::core

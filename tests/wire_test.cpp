// Tests for the wire format and the protocol message codecs: round trips,
// canonical-encoding enforcement, truncation/garbage rejection, and
// agreement between codec sizes and the trace byte-accounting formulas.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <typeinfo>

#include "core/codec.h"
#include "crypto/codec.h"
#include "group/schnorr_group.h"
#include "net/fault.h"
#include "runtime/wire.h"

namespace ppgr {
namespace {

using mpz::ChaChaRng;
using mpz::Nat;
using runtime::Reader;
using runtime::WireError;
using runtime::Writer;

TEST(Wire, PrimitiveRoundTrips) {
  Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.varint(0);
  w.varint(127);
  w.varint(128);
  w.varint(UINT64_MAX);
  const std::vector<std::uint8_t> blob{1, 2, 3};
  w.raw(blob);

  Reader r{w.data()};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.varint(), 127u);
  EXPECT_EQ(r.varint(), 128u);
  EXPECT_EQ(r.varint(), UINT64_MAX);
  const auto back = r.raw(blob.size());
  EXPECT_EQ(std::vector<std::uint8_t>(back.begin(), back.end()), blob);
  EXPECT_NO_THROW(r.finish());
}

TEST(Wire, VarintBoundaries) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
        std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
        std::uint64_t{1} << 35, UINT64_MAX}) {
    Writer w;
    w.varint(v);
    Reader r{w.data()};
    EXPECT_EQ(r.varint(), v);
    r.finish();
  }
}

TEST(Wire, RejectsTruncation) {
  Writer w;
  w.u64(42);
  const auto data = w.data();
  Reader r{std::span{data.data(), 4}};
  EXPECT_THROW((void)r.u64(), WireError);
}

TEST(Wire, RejectsNonCanonicalVarint) {
  // 0x80 0x00 encodes 0 with a redundant continuation byte.
  const std::uint8_t bad[] = {0x80, 0x00};
  Reader r{bad};
  EXPECT_THROW((void)r.varint(), WireError);
}

TEST(Wire, RejectsOverlongVarint) {
  std::vector<std::uint8_t> bad(10, 0xFF);  // never terminates within 64 bits
  Reader r{bad};
  EXPECT_THROW((void)r.varint(), WireError);
}

TEST(Wire, RejectsTrailingBytes) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r{w.data()};
  (void)r.u8();
  EXPECT_THROW(r.finish(), WireError);
}

// ---- crypto codecs ----

// The fixed-count encoding of `cts`, as its own buffer.
std::vector<std::uint8_t> seq_bytes(const group::Group& g,
                                    std::span<const crypto::Ciphertext> cts) {
  std::vector<std::uint8_t> out(cts.size() * crypto::ciphertext_wire_bytes(g));
  crypto::write_ciphertext_seq(out, g, cts);
  return out;
}

// The next `count` ciphertexts of r.
std::vector<crypto::Ciphertext> read_seq(Reader& r, const group::Group& g,
                                         std::size_t count) {
  std::vector<crypto::Ciphertext> out(count);
  crypto::read_ciphertext_seq(r, g, out);
  return out;
}

class CryptoCodec : public ::testing::TestWithParam<group::GroupId> {};

TEST_P(CryptoCodec, ElemAndCiphertextRoundTrip) {
  const auto g = group::make_group(GetParam());
  ChaChaRng rng{120};
  const auto kp = crypto::keygen(*g, rng);
  const auto ct =
      crypto::encrypt_exp(*g, group::FixedBaseTable{*g, kp.y}, Nat{5}, rng);

  Writer w;
  crypto::write_elem(w, *g, kp.y);
  w.raw(seq_bytes(*g, {&ct, 1}));
  EXPECT_EQ(w.size(), crypto::elem_wire_bytes(*g) +
                          crypto::ciphertext_wire_bytes(*g));

  Reader r{w.data()};
  EXPECT_TRUE(g->eq(crypto::read_elem(r, *g), kp.y));
  const auto ct2 = read_seq(r, *g, 1).at(0);
  EXPECT_TRUE(g->eq(ct2.c, ct.c));
  EXPECT_TRUE(g->eq(ct2.cp, ct.cp));
  r.finish();
}

TEST_P(CryptoCodec, CiphertextSeqRejectsCountBeyondInput) {
  // A count the input cannot hold is rejected before anything decodes.
  const auto g = group::make_group(GetParam());
  Writer w;
  w.raw(std::vector<std::uint8_t>(16, 0));
  Reader r{w.data()};
  std::vector<crypto::Ciphertext> out(3);
  EXPECT_THROW(crypto::read_ciphertext_seq(r, *g, out), WireError);
  EXPECT_EQ(r.remaining(), 16u);
}

TEST_P(CryptoCodec, ProofMessageRoundTripAndValidation) {
  const auto g = group::make_group(GetParam());
  ChaChaRng rng{122};
  const auto kp = crypto::keygen(*g, rng);
  const auto proof =
      crypto::schnorr_proof(*g, crypto::schnorr_prove(*g, kp.x, 3, rng));

  Writer w;
  crypto::write_schnorr_proof(w, *g, proof);
  EXPECT_EQ(w.size(),
            crypto::elem_wire_bytes(*g) + 2 * crypto::scalar_wire_bytes(*g));
  Reader r{w.data()};
  const auto back = crypto::read_schnorr_proof(r, *g);
  r.finish();
  EXPECT_TRUE(crypto::schnorr_verify(*g, kp.y, back));

  // Short payload.
  const std::vector<std::uint8_t> bytes{w.data().begin(), w.data().end()};
  Reader rs{std::span{bytes}.first(bytes.size() - 1)};
  EXPECT_THROW((void)crypto::read_schnorr_proof(rs, *g), WireError);

  // Σc >= q and z >= q are each rejected (scalars write as fixed-width
  // big-endian, so the order itself encodes).
  for (const int field : {0, 1}) {
    crypto::SchnorrProof bad = proof;
    (field == 0 ? bad.challenge_sum : bad.response) = g->order();
    Writer wb;
    crypto::write_schnorr_proof(wb, *g, bad);
    Reader rb{wb.data()};
    EXPECT_THROW((void)crypto::read_schnorr_proof(rb, *g), WireError)
        << (field == 0 ? "challenge sum" : "response");
  }
}

TEST_P(CryptoCodec, CorruptedElementRejected) {
  // A flipped element encoding must never decode silently to the sender's
  // element. In the DL group every value in [1, q] is the canonical
  // encoding of some element, so a flip that stays in range decodes to a
  // different element and one that leaves it is rejected; on the curve,
  // flips produce off-curve points, which are rejected.
  const auto g = group::make_group(GetParam());
  ChaChaRng rng{123};
  const auto kp = crypto::keygen(*g, rng);
  Writer w;
  crypto::write_elem(w, *g, kp.y);
  auto data = w.take();
  if (const auto* sg = dynamic_cast<const group::SchnorrGroup*>(g.get())) {
    ASSERT_EQ(data.size(), g->element_bytes());
    bool rejected_any = false;
    bool decoded_any = false;
    for (std::size_t i = 0; i < data.size(); ++i)
      for (const std::uint8_t mask : {0x01, 0x5A, 0x80}) {
        auto corrupt = data;
        corrupt[i] ^= mask;
        const Nat z = Nat::from_bytes_be(corrupt);
        Reader r{corrupt};
        if (z.is_zero() || z > sg->order()) {
          EXPECT_THROW((void)crypto::read_elem(r, *g), std::invalid_argument)
              << "byte " << i << " mask " << int{mask};
          rejected_any = true;
        } else {
          EXPECT_FALSE(g->eq(crypto::read_elem(r, *g), kp.y))
              << "byte " << i << " mask " << int{mask};
          decoded_any = true;
        }
      }
    EXPECT_TRUE(rejected_any);
    EXPECT_TRUE(decoded_any);
    return;
  }
  bool rejected_any = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto corrupt = data;
    corrupt[corrupt.size() - 1 - static_cast<std::size_t>(attempt)] ^= 0x5A;
    Reader r{corrupt};
    try {
      (void)crypto::read_elem(r, *g);
    } catch (const std::invalid_argument&) {
      rejected_any = true;
    }
  }
  EXPECT_TRUE(rejected_any);
}

INSTANTIATE_TEST_SUITE_P(Groups, CryptoCodec,
                         ::testing::Values(group::GroupId::kDlTest256,
                                           group::GroupId::kEcP192),
                         [](const auto& info) {
                           std::string n = group::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// ---- core codecs ----

TEST(CoreCodec, DotProductMessagesRoundTrip) {
  const auto& f = core::default_dot_field();
  ChaChaRng rng{124};
  dotprod::FVec wvec(6);
  for (auto& x : wvec) x = f.random(rng);
  const dotprod::DotProductBob bob{f, wvec, 4, rng};

  Writer w;
  core::write_bob_round1(w, f, bob.round1());
  // Codec size must match the trace accounting formula exactly (the comm
  // layer asserts measured == modeled bytes).
  EXPECT_EQ(w.size(), dotprod::bob_message_bytes(f, 4, 6));

  Reader r{w.data()};
  const auto m = core::read_bob_round1(r, f);
  r.finish();
  EXPECT_EQ(m.qx, bob.round1().qx);
  EXPECT_EQ(m.cprime, bob.round1().cprime);
  EXPECT_EQ(m.gvec, bob.round1().gvec);

  dotprod::FVec v(6);
  for (auto& x : v) x = f.random(rng);
  const auto reply = dotprod::dot_product_alice(f, m, v);
  Writer w2;
  core::write_alice_round2(w2, f, reply);
  EXPECT_EQ(w2.size(), dotprod::alice_message_bytes(f));
  Reader r2{w2.data()};
  const auto reply2 = core::read_alice_round2(r2, f);
  EXPECT_EQ(reply2.a, reply.a);
  EXPECT_EQ(reply2.h, reply.h);
}

TEST(CoreCodec, BobRound1DimensionsCannotWrap) {
  // (s + 2)·d·fe = 2^62 · 4 · 32 = 2^69 wraps to 0 in 64 bits: the check
  // must reject these dimensions before sizing anything by them.
  const auto& f = core::default_dot_field();
  ASSERT_EQ((f.bits() + 7) / 8, 32u);
  Writer w;
  w.varint((std::uint64_t{1} << 62) - 2);
  w.varint(4);
  w.raw(std::vector<std::uint8_t>(64, 0));
  Reader r{w.data()};
  EXPECT_THROW((void)core::read_bob_round1(r, f), WireError);
}

TEST(CoreCodec, FieldElementRangeValidated) {
  const auto& f = core::default_dot_field();
  Writer w;
  w.raw(f.p().to_bytes_be((f.bits() + 7) / 8));  // == p, out of range
  Reader r{w.data()};
  EXPECT_THROW((void)core::read_field_elem(r, f), WireError);
}

TEST(CoreCodec, SubmissionRoundTripAndValidation) {
  const core::ProblemSpec spec{.m = 3, .t = 1, .d1 = 8, .d2 = 4, .h = 6};
  const core::Initiator::Submission s{.participant = 4, .claimed_rank = 2,
                                      .info = {10, 20, 30}};
  Writer w;
  core::write_submission(w, spec, s);
  // Fixed-width framing: the encoded size is the analytic accounting.
  EXPECT_EQ(w.size(), core::submission_wire_bytes(spec));
  Reader r{w.data()};
  const auto s2 = core::read_submission(r, spec);
  r.finish();
  EXPECT_EQ(s2.participant, 4u);
  EXPECT_EQ(s2.claimed_rank, 2u);
  EXPECT_EQ(s2.info, s.info);

  // Wrong dimension rejected (payload too short for a 4-attribute spec).
  const core::ProblemSpec other{.m = 4, .t = 1, .d1 = 8, .d2 = 4, .h = 6};
  Reader r2{w.data()};
  EXPECT_THROW((void)core::read_submission(r2, other), WireError);

  // Attribute exceeding d1 rejected at write time — the fixed-width
  // encoding would otherwise truncate it silently.
  core::Initiator::Submission wide = s;
  wide.info[0] = 300;  // > 2^8
  Writer w3;
  EXPECT_THROW(core::write_submission(w3, spec, wide), std::invalid_argument);

  // And at read time: bytes valid for a wide spec decode to an attribute
  // out of range for a narrower one.
  const core::ProblemSpec narrow{.m = 3, .t = 1, .d1 = 4, .d2 = 4, .h = 6};
  Writer w4;
  core::write_submission(w4, spec, core::Initiator::Submission{
                                       .participant = 4,
                                       .claimed_rank = 2,
                                       .info = {200, 20, 30}});
  Reader r4{w4.data()};
  EXPECT_THROW((void)core::read_submission(r4, narrow), std::invalid_argument);
}

// ---- boundary-value round trips ----
// The metered channels assert measured == modeled bytes, so the codecs must
// hold their fixed widths (and stay lossless) at the representational
// extremes, not just for typical values.

TEST(CodecBoundary, BetaWraparoundFieldElems) {
  // Phase 1 converts the dot-product result to an l-bit unsigned β via the
  // field's centered representation; exercise the codec at the 2^(l-1)
  // sign-wraparound values and their negated (near-p) representatives.
  const auto& f = core::default_dot_field();
  const std::size_t l = 12;
  // Signed β range is [-2^(l-1), 2^(l-1)); the centered field representative
  // of a negative β is p - |β|, so the negative half lives next to the
  // field's own upper boundary.
  std::vector<Nat> reps;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << (l - 1)) - 1}) {
    reps.push_back(Nat{static_cast<mpz::Limb>(v)});  // β = v
    if (v != 0)
      reps.push_back(Nat::sub(f.p(), Nat{static_cast<mpz::Limb>(v)}));  // -v
  }
  reps.push_back(Nat::sub(
      f.p(), Nat{static_cast<mpz::Limb>(std::uint64_t{1} << (l - 1))}));
  for (const auto& rep : reps) {
    const Nat x = f.to(rep);
    Writer w;
    core::write_field_elem(w, f, x);
    EXPECT_EQ(w.size(), (f.bits() + 7) / 8);
    Reader r{w.data()};
    const Nat back = core::read_field_elem(r, f);
    r.finish();
    EXPECT_EQ(f.from(back), rep);
    // The decoded element yields the same l-bit β.
    EXPECT_EQ(core::signed_to_unsigned(f.from_centered(back), l),
              core::signed_to_unsigned(f.from_centered(x), l));
  }
}

class CodecBoundaryGroup : public ::testing::TestWithParam<group::GroupId> {};

TEST_P(CodecBoundaryGroup, IdentityElementRoundTrip) {
  // The comparison circuit builds trivial encryptions of zero from the
  // identity; both backends must round-trip it at the fixed element width.
  const auto g = group::make_group(GetParam());
  Writer w;
  crypto::write_elem(w, *g, g->identity());
  EXPECT_EQ(w.size(), crypto::elem_wire_bytes(*g));
  Reader r{w.data()};
  EXPECT_TRUE(g->eq(crypto::read_elem(r, *g), g->identity()));
  r.finish();

  const crypto::Ciphertext zero_ct{.c = g->identity(), .cp = g->identity()};
  Writer w2;
  w2.raw(seq_bytes(*g, {&zero_ct, 1}));
  EXPECT_EQ(w2.size(), crypto::ciphertext_wire_bytes(*g));
  Reader r2{w2.data()};
  const auto back = read_seq(r2, *g, 1).at(0);
  r2.finish();
  EXPECT_TRUE(g->eq(back.c, zero_ct.c));
  EXPECT_TRUE(g->eq(back.cp, zero_ct.cp));
}

TEST_P(CodecBoundaryGroup, ScalarBoundaries) {
  const auto g = group::make_group(GetParam());
  const std::size_t sb = crypto::scalar_wire_bytes(*g);
  for (const Nat& s : {Nat{}, Nat{1}, Nat::sub(g->order(), Nat{1})}) {
    Writer w;
    crypto::write_scalar(w, *g, s);
    EXPECT_EQ(w.size(), sb);
    Reader r{w.data()};
    EXPECT_EQ(crypto::read_scalar(r, *g), s);
    r.finish();
  }
  // The order itself is out of range.
  Writer w;
  crypto::write_scalar(w, *g, g->order());
  Reader r{w.data()};
  EXPECT_THROW((void)crypto::read_scalar(r, *g), WireError);
}

TEST_P(CodecBoundaryGroup, CiphertextSeqFixedWidth) {
  // The unprefixed sequence framing carries the bulk phase-2 traffic; its
  // size must be exactly count * ciphertext_wire_bytes and a short buffer
  // must be rejected, not mis-framed.
  const auto g = group::make_group(GetParam());
  ChaChaRng rng{321};
  const group::FixedBaseTable key{*g, crypto::keygen(*g, rng).y};
  std::vector<crypto::Ciphertext> cts;
  for (int i = 0; i < 4; ++i)
    cts.push_back(
        crypto::encrypt_exp(*g, key, Nat{static_cast<mpz::Limb>(i)}, rng));
  Writer w;
  w.raw(seq_bytes(*g, cts));
  EXPECT_EQ(w.size(), cts.size() * crypto::ciphertext_wire_bytes(*g));
  Reader r{w.data()};
  const auto back = read_seq(r, *g, cts.size());
  r.finish();
  for (std::size_t i = 0; i < cts.size(); ++i)
    EXPECT_TRUE(g->eq(back[i].c, cts[i].c));
  Reader r2{w.data()};
  EXPECT_THROW((void)read_seq(r2, *g, cts.size() + 2),
               WireError);
}

// The batch decode of a V slice (read_ciphertext_seq: one
// Group::deserialize_into) against the one-by-one reference (read_elem per
// element, then finish): a bad element at the first, a middle or the last
// position, and a slice one byte short or one byte long, must each fail
// with the same exception type and message.
std::string decode_error(const std::function<void()>& read) {
  try {
    read();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return "decoded";
}

TEST_P(CodecBoundaryGroup, BatchDecodeFailsAsOneByOneDeserialize) {
  const auto g = group::make_group(GetParam());
  ChaChaRng rng{322};
  const group::FixedBaseTable key{*g, crypto::keygen(*g, rng).y};
  std::vector<crypto::Ciphertext> cts;
  for (int i = 0; i < 5; ++i)
    cts.push_back(crypto::encrypt_exp(*g, key, Nat{rng.below_u64(2)}, rng));
  const std::vector<std::uint8_t> good = seq_bytes(*g, cts);
  const std::size_t eb = g->element_bytes(), elems = 2 * cts.size();

  const auto expect_same_error = [&](const std::vector<std::uint8_t>& bytes,
                                     const std::string& what) {
    const std::string batch = decode_error([&] {
      std::vector<crypto::Ciphertext> out(cts.size());
      Reader r{bytes};
      crypto::read_ciphertext_seq(r, *g, out);
      r.finish();
    });
    const std::string one_by_one = decode_error([&] {
      Reader r{bytes};
      for (std::size_t i = 0; i < elems; ++i) (void)crypto::read_elem(r, *g);
      r.finish();
    });
    EXPECT_NE(batch, "decoded") << what;
    EXPECT_EQ(batch, one_by_one) << what;
  };

  // Out-of-range DL encodings: 0, q + 1 and p - 1 (the class of -1 has the
  // canonical encoding 1, so p - 1 is never canonical).
  std::vector<std::vector<std::uint8_t>> bad;
  if (const auto* dl = dynamic_cast<const group::SchnorrGroup*>(g.get())) {
    for (const Nat& z : {Nat{}, Nat::add(dl->order(), Nat{1}),
                         Nat::sub(dl->modulus(), Nat{1})})
      bad.push_back(z.to_bytes_be(eb));
  } else {
    std::vector<std::uint8_t> prefix(eb, 0x11);
    prefix[0] = 0x05;  // neither the identity nor an uncompressed point
    bad.push_back(prefix);
  }
  for (std::size_t e = 0; e < bad.size(); ++e)
    for (const std::size_t pos : {std::size_t{0}, elems / 2, elems - 1}) {
      auto bytes = good;
      std::copy(bad[e].begin(), bad[e].end(), bytes.begin() + pos * eb);
      expect_same_error(bytes, "encoding " + std::to_string(e) +
                                   " at element " + std::to_string(pos));
    }
  auto shorter = good;
  shorter.pop_back();
  expect_same_error(shorter, "one byte short");
  auto longer = good;
  longer.push_back(0);
  expect_same_error(longer, "one byte long");
}

INSTANTIATE_TEST_SUITE_P(Groups, CodecBoundaryGroup,
                         ::testing::Values(group::GroupId::kDlTest256,
                                           group::GroupId::kEcP192),
                         [](const auto& info) {
                           std::string n = group::to_string(info.param);
                           for (auto& ch : n)
                             if (ch == '-') ch = '_';
                           return n;
                         });

// ---- Fault-layer frame codec hardening ----
// The CRC32 frame that carries payloads under a fault plan sits below the
// message codecs above; its decoder must hold the same line they do — a
// malformed buffer is a typed error, never UB or a silent wrong answer.

TEST(FrameFuzz, RandomTruncationPointsAreTypedErrors) {
  ChaChaRng rng{2024};
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = 1 + rng.below_u64(96);
    std::vector<std::uint8_t> payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below_u64(256));
    const std::vector<std::uint8_t> framed =
        net::encode_frame(static_cast<std::uint32_t>(iter), payload);

    const std::size_t cut = rng.below_u64(framed.size());  // < full length
    std::vector<std::uint8_t> chopped(
        framed.begin(), framed.begin() + static_cast<long>(cut));
    try {
      (void)net::decode_frame(chopped);
      FAIL() << "iter " << iter << ": truncation to " << cut
             << " of " << framed.size() << " bytes not rejected";
    } catch (const net::ChannelError& e) {
      EXPECT_EQ(e.kind(), net::ChannelErrorKind::kBadFrame);
    }
  }
}

TEST(FrameFuzz, RandomGarbageNeverEscapesTyped) {
  // Arbitrary byte soup must either decode (with crc_ok telling the truth)
  // or throw the typed bad-frame error; any other exception fails the test.
  ChaChaRng rng{2025};
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> soup(rng.below_u64(64));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.below_u64(256));
    try {
      const net::Frame f = net::decode_frame(soup);
      // Decoded: the length field agreed with the buffer. A random 32-bit
      // CRC almost never matches, but either value is legal here.
      EXPECT_EQ(f.payload.size(), soup.size() - net::kFrameHeaderBytes);
    } catch (const net::ChannelError& e) {
      EXPECT_EQ(e.kind(), net::ChannelErrorKind::kBadFrame);
    }
  }
}

TEST(FrameFuzz, BitFlipsNeverForgeACleanFrame) {
  ChaChaRng rng{2026};
  std::vector<std::uint8_t> payload(32);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below_u64(256));
  const std::vector<std::uint8_t> framed = net::encode_frame(9, payload);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> bad = framed;
    // Flip 1-3 DISTINCT payload bits (a repeated flip would cancel out):
    // CRC32's minimum distance catches every such error at this length.
    std::set<std::size_t> bits;
    const std::size_t flips = 1 + rng.below_u64(3);
    while (bits.size() < flips) bits.insert(rng.below_u64(payload.size() * 8));
    for (const std::size_t bit : bits)
      bad[net::kFrameHeaderBytes + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
    const net::Frame f = net::decode_frame(bad);
    EXPECT_FALSE(f.crc_ok) << "iter " << iter;
  }
}

}  // namespace
}  // namespace ppgr

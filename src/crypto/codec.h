// Wire codecs for the cryptographic message types (see runtime/wire.h).
//
// Group elements use the group's fixed-size canonical encoding; decoding
// validates group membership (the underlying deserialize rejects off-curve
// points and Schnorr encodings outside [1, q]), so a malformed peer message
// fails loudly at the boundary instead of corrupting protocol state.
#pragma once

#include "crypto/elgamal.h"
#include "crypto/schnorr_proof.h"
#include "runtime/wire.h"

namespace ppgr::crypto {

using runtime::Reader;
using runtime::Writer;

void write_elem(Writer& w, const Group& g, const Elem& e);
[[nodiscard]] Elem read_elem(Reader& r, const Group& g);

/// Scalars (exponents mod the group order) travel fixed-width big-endian,
/// scalar_wire_bytes(g) long; decoding rejects values >= the order. Used by
/// the Schnorr proof messages, whose sizes must match the analytic
/// accounting exactly.
void write_scalar(Writer& w, const Group& g, const mpz::Nat& s);
[[nodiscard]] mpz::Nat read_scalar(Reader& r, const Group& g);

/// Fixed-count ciphertext sequence: no length prefix — the count is implied
/// by the protocol position (l bits, (n-1)*l comparison outcomes, ...), so
/// the wire size is exactly count * ciphertext_wire_bytes(g). This framing
/// carries the bulk phase-2 traffic.
///
/// The writer fills `out`, exactly cts.size() * ciphertext_wire_bytes(g)
/// bytes (std::invalid_argument otherwise), with one Group::serialize_into
/// over all 2·|cts| elements: a caller encodes each set of a message
/// straight into its slice of one payload.
void write_ciphertext_seq(std::span<std::uint8_t> out, const Group& g,
                          std::span<const Ciphertext> cts);
/// Reads out.size() ciphertexts through one Group::deserialize_into. A
/// count the input cannot hold fails first (WireError); otherwise elements
/// decode in order and the first malformed one fails as reading it alone
/// would (its deserialize error, or WireError on truncation).
void read_ciphertext_seq(Reader& r, const Group& g, std::span<Ciphertext> out);

/// The multi-verifier proof message h | Σc | z: one element and two
/// scalars, elem_wire_bytes(g) + 2·scalar_wire_bytes(g) bytes.
void write_schnorr_proof(Writer& w, const Group& g, const SchnorrProof& p);
[[nodiscard]] SchnorrProof read_schnorr_proof(Reader& r, const Group& g);

/// Encoded sizes (exact): these back the TraceRecorder byte accounting.
[[nodiscard]] std::size_t elem_wire_bytes(const Group& g);
[[nodiscard]] std::size_t ciphertext_wire_bytes(const Group& g);
[[nodiscard]] std::size_t scalar_wire_bytes(const Group& g);

}  // namespace ppgr::crypto

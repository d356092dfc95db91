// Stream-id layout for the deterministic execution engine: every
// randomness-consuming protocol task draws from its own ChaCha substream
// identified by (kind, party, index). Ids are a pure function of the task's
// place in the protocol — never of the schedule — so any thread count, and
// any *process* count (the process-per-party TCP deployment of
// core/party_driver.h), replays the exact same randomness from the same
// master seed (DESIGN.md, "Threading model & determinism").
//
// Shared between run_framework (one process simulates all parties) and
// run_party (one process drives one party): both derive a
// mpz::StreamFamily from the caller's Rng and address substreams through
// these ids, which is what makes a same-seed socket run bit-identical to
// the simulator run.
#pragma once

#include <cstdint>
#include <cstddef>

namespace ppgr::core {

enum class StreamKind : std::uint64_t {
  kInitiatorSetup = 0,  // ρ and the ρ_j masks
  kPartySetup = 1,      // reserved (unused; ids stay stable)
  kPhase1 = 2,          // dot-product disguise (per party)
  kKeygen = 3,          // ElGamal key share (per party)
  kProve = 4,           // Schnorr proof nonce (per party)
  kEncryptBit = 5,      // bitwise β encryption (per party, per bit)
  kCompare = 6,         // comparison-circuit re-randomization (per pair)
  kShuffle = 7,         // chain hop (per hop, per owner set)
  kSsSort = 8,          // SS baseline: the sort host's local engine rng
};

[[nodiscard]] constexpr std::uint64_t stream_id(StreamKind kind,
                                                std::size_t party,
                                                std::size_t index) {
  // kind:8 | party:24 | index:32 — n and l are far below these widths.
  return (static_cast<std::uint64_t>(kind) << 56) |
         (static_cast<std::uint64_t>(party) << 32) |
         static_cast<std::uint64_t>(index);
}

}  // namespace ppgr::core

// One-party protocol driver for real-transport deployments (DESIGN.md §5f).
//
// run_framework() executes all n+1 party state machines in one process and
// moves messages through the Router's mailboxes. run_party() is the other
// half of the transport seam: it drives exactly ONE party's state machine —
// the initiator (party 0) or one participant — and routes every message
// through a net::Transport (in practice net::tcp::TcpTransport, one OS
// process per party). The ppgr_party executable is a thin shell around it.
//
// Determinism contract: run_party draws every random value from the same
// counter-addressed substreams (core/streams.h) run_framework uses, and
// every stream is consumed by exactly one party. Processes launched with a
// shared --seed therefore reproduce a same-seed run_framework run bit for
// bit (β values, ciphertexts, ranks) — the loopback verification harness
// tests exactly that. Without a shared seed each process seeds from OS
// entropy and the run is still a correct protocol execution, just not
// comparable to a reference run. The shared seed is a verification harness,
// NOT part of the security model (a real deployment would never share it).
//
// Wire-protocol deviations from the in-process run (both documented in
// DESIGN.md §5f):
//  - Schnorr proofs travel as full transcripts (commitment + challenges +
//    response) — the in-process run ships commitment/response only and
//    shares challenges out-of-band, which separate processes cannot do.
//  - Phase 3: every participant sends the initiator one message
//    `u32 rank | u8 has-submission | [submission]`, so the initiator can
//    print the complete ranking; in-process, non-submitting parties send
//    nothing (their ranks are visible to the orchestrator anyway).
//
// SS baseline (`ss = true`): phases 1 and 3 are fully distributed as above;
// the phase-2 secret-sharing sort runs on the sort host (party 1), which
// collects every β, runs the existing sss::MpcEngine — itself a one-process
// simulation of all n share-holders — and returns each party its rank. The
// SS ranks still match a same-seed run_ss_framework run whenever gains are
// distinct (β masking is order-preserving), which is what the harness
// asserts.
#pragma once

#include <memory>
#include <vector>

#include "core/framework.h"
#include "net/transport.h"

namespace ppgr::core {

struct PartyConfig {
  /// The public instance agreement every process must share: spec, group,
  /// n, k, dot_field. fault_plan must be null (fault injection is a
  /// simulator construct); parallelism/pool are unused (one party's state
  /// machine runs serially).
  FrameworkConfig fw;
  /// Own party id: 0 = initiator, 1..n = participants.
  std::size_t party = 0;
  /// Run the SS baseline's phase 2 (sort host = party 1) instead of the
  /// HE comparison/shuffle phase.
  bool ss = false;
  /// SS threshold t (max colluders), n >= 2t+1. Ignored unless ss.
  std::size_t ss_threshold = 1;
};

struct PartyInput {
  AttrVec v0;    // initiator only: requester attributes
  AttrVec w;     // initiator only: weights
  AttrVec info;  // participant only: own attribute vector
};

struct PartyResult {
  /// Own rank (participants; 0 for the initiator).
  std::size_t rank = 0;
  /// Own masked gain β (participants).
  Nat beta;
  /// All parties' claimed ranks, index participant-1 (initiator only).
  std::vector<std::size_t> ranks;
  /// 1-based ids whose submissions arrived (initiator only).
  std::vector<std::size_t> submitted_ids;
  /// Exact byte accounting of this process's links (both directions).
  runtime::TraceRecorder trace;
  /// Measured communication with wall-clock round timings; iff fw.metrics.
  std::unique_ptr<runtime::CommRegistry> comm;
  /// Transport frame-level counters in the ppgr.fault.v1 taxonomy.
  net::FaultReport faults;
};

/// Drives party cfg.party of the protocol over `transport`, blocking until
/// the party's run completes. Every failure — socket errors, undecodable or
/// out-of-contract messages, rejected proofs — surfaces as a typed
/// ProtocolFault carrying phase/round/party context and the transport's
/// fault report.
[[nodiscard]] PartyResult run_party(const PartyConfig& cfg,
                                    const PartyInput& input,
                                    net::Transport& transport, Rng& rng);

}  // namespace ppgr::core

// The per-party protocol program (DESIGN.md §5b, §5f): the one
// implementation of phases 1-3 for both the HE framework and the SS
// baseline.
//
// run_party() drives exactly ONE party's state machine — the initiator
// (party 0) or one participant — and routes every message through a
// net::Transport (in practice net::tcp::TcpTransport, one OS process per
// party). The ppgr_party executable is a thin shell around it.
// run_framework() and run_ss_framework() launch the same program n+1 times
// over one shared in-process Router (launch() below), one party at a time.
//
// Determinism contract: every random value comes from counter-addressed
// substreams (core/streams.h), and every stream is consumed by exactly one
// party. Processes launched with a shared --seed therefore reproduce a
// same-seed run_framework / run_ss_framework run bit for bit (β values,
// ciphertexts, ranks) — the loopback verification harness tests exactly
// that. Without a shared seed each process seeds from OS entropy and the
// run is still a correct protocol execution, just not comparable to a
// reference run. The shared seed is a verification harness, NOT part of
// the security model (a real deployment would never share it).
//
// SS baseline (`ss = true`): phase 2 runs on the sort host (party 1),
// which collects every β, runs sss::MpcEngine — itself a one-process
// simulation of all n share-holders — and returns each party its rank.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "core/ss_framework.h"
#include "net/transport.h"

namespace ppgr::core {

struct PartyConfig {
  /// The public instance agreement every process must share: spec, group,
  /// n, k, dot_field. fault_plan must be null (fault injection is a
  /// simulator construct); `parallelism` sizes this party's pool.
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
  /// 1-based ids whose submissions arrived (initiator only).
  std::vector<std::size_t> submitted_ids;
  /// Claimed rank of each submission, parallel to submitted_ids (initiator
  /// only). The initiator learns nothing about the other participants.
  std::vector<std::size_t> submitted_ranks;
  /// Exact byte accounting of what this process sent.
  runtime::TraceRecorder trace;
  /// The comm report of this process's sends (net::comm_report of
  /// `trace`), built after the run; iff fw.metrics.
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

// ---- In-process launcher (run_framework / run_ss_framework) ----

/// Runs the n+1 party programs of `cfg` as coroutines over one shared
/// Router, one party at a time (net::Baton), on the calling thread; an HE
/// run leaves the sort fields empty. Non-empty dropped_parties: phase 1
/// lost participants, the run stopped at the phase-2 barrier and the caller
/// owes a degrade rerun (the result then holds only the fault report).
/// Throws std::invalid_argument for an invalid cfg or input count.
[[nodiscard]] SsFrameworkResult launch(const FrameworkConfig& cfg,
                                       const SsFrameworkConfig* ss,
                                       const AttrVec& v0,
                                       const AttrVec& w,
                                       const std::vector<AttrVec>& infos,
                                       Rng& rng);

/// Degrade-on-dropout (DESIGN.md Sec. 7): reruns a stopped launch over its
/// survivors — rerun(sub, sub_infos) with their inputs in id order and a
/// copy of `cfg` without fault plan (the faults already happened) or audit
/// (the auditor's phase-1 predictions no longer apply) — and maps the rerun's
/// result back to the original party ids. β_j ordering is independent per
/// party, so the survivors' ranking equals the reduced instance's ranking.
template <typename Result, typename Rerun>
[[nodiscard]] Result degrade(SsFrameworkResult& run, const FrameworkConfig& cfg,
                             const std::vector<AttrVec>& infos, Rerun&& rerun) {
  const auto& dropped = run.dropped_parties;  // sorted
  std::vector<std::size_t> survivors;
  std::vector<AttrVec> sub_infos;
  for (std::size_t j = 1; j <= infos.size(); ++j) {
    if (std::binary_search(dropped.begin(), dropped.end(), j)) continue;
    survivors.push_back(j);
    sub_infos.push_back(infos[j - 1]);
  }
  FrameworkConfig sub = cfg;
  sub.n = survivors.size();
  sub.k = std::min(cfg.k, sub.n);
  sub.fault_plan = nullptr;
  sub.degrade_on_dropout = false;
  sub.audit = nullptr;
  Result out = rerun(sub, sub_infos);
  std::vector<std::size_t> ranks(infos.size(), 0);
  std::vector<Nat> betas(infos.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    ranks[survivors[i] - 1] = out.ranks[i];
    betas[survivors[i] - 1] = std::move(out.betas[i]);
  }
  out.ranks = std::move(ranks);
  out.betas = std::move(betas);
  for (std::size_t& id : out.submitted_ids) id = survivors[id - 1];
  out.active_parties = std::move(survivors);
  out.dropped_parties = std::move(run.dropped_parties);
  out.faults = std::move(run.faults);
  return out;
}

}  // namespace ppgr::core

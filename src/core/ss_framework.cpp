#include "core/ss_framework.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>

#include "core/codec.h"
#include "mpz/prime.h"
#include "net/channel.h"

namespace ppgr::core {

const FpCtx& ss_field_for_beta_bits(std::size_t l) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<FpCtx>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[l];
  if (!slot) {
    // Deterministic seed per l keeps benchmarks reproducible.
    mpz::ChaChaRng rng{0x55AA0000u + l};
    slot = std::make_unique<FpCtx>(mpz::random_prime(l + 2, rng));
  }
  return *slot;
}

SsFrameworkResult run_ss_framework(const SsFrameworkConfig& cfg,
                                   const AttrVec& v0, const AttrVec& w,
                                   const std::vector<AttrVec>& infos,
                                   Rng& rng) {
  const FrameworkConfig& base = cfg.base;
  base.validate();
  if (infos.size() != base.n)
    throw std::invalid_argument("run_ss_framework: infos size != n");
  const std::size_t n = base.n;
  const std::size_t l = base.spec.beta_bits();
  const bool counting = cfg.mode == sss::MpcEngine::Mode::kCountOnly;

  SsFrameworkResult result;
  runtime::PartyTimer timer{n + 1};

  // Serial observability: one metrics buffer installed for the whole run
  // (context re-pointed per step), spans pushed straight to the recorder.
  if (base.metrics) {
    result.metrics = std::make_unique<runtime::MetricsRegistry>();
    result.spans = std::make_unique<runtime::SpanRecorder>();
    result.comm = std::make_unique<runtime::CommRegistry>();
  }
  net::Router::Config router_cfg;
  router_cfg.faults = base.fault_plan;
  router_cfg.progress = base.progress;
  router_cfg.flight = base.flight;
  net::Router router{n + 1, result.trace, result.comm.get(), router_cfg};

  // Fault handling mirrors run_framework: channel-layer failures surface as
  // typed ProtocolFaults naming the phase, round and blamed party.
  const auto proto_fault = [&](runtime::Phase phase, std::size_t party,
                               const std::string& cause) {
    FaultInfo info;
    info.phase = phase;
    info.round = router.round_index();
    info.party = party;
    info.cause = cause;
    std::string what = "run_ss_framework: " + cause + " [phase " +
                       std::string(runtime::phase_name(phase)) + ", round " +
                       std::to_string(info.round);
    if (party != kNoParty) what += ", party P" + std::to_string(party);
    what += "]";
    if (base.flight != nullptr)
      base.flight->record(
          runtime::FlightEventKind::kFault, phase,
          static_cast<std::uint16_t>(party == kNoParty ? 0 : party + 1), 0, 0,
          router.round_index());
    if (base.audit != nullptr) base.audit->run_faulted(phase);
    return ProtocolFault{std::move(info), router.fault_report(), what};
  };
  const auto blame = [&](const net::ChannelError& e) {
    if (router.party_dead(e.src())) return e.src();
    if (router.party_dead(e.dst())) return e.dst();
    return e.src() == 0 ? e.dst() : e.src();
  };
  const auto rethrow_as_fault = [&](runtime::Phase phase) {
    try {
      throw;
    } catch (const ProtocolFault&) {
      throw;
    } catch (const net::ChannelError& e) {
      throw proto_fault(phase, blame(e),
                        std::string("channel failure: ") + e.what());
    } catch (const runtime::WireError& e) {
      if (base.fault_plan == nullptr) throw;
      throw proto_fault(phase, kNoParty,
                        std::string("undecodable message: ") + e.what());
    } catch (const std::invalid_argument& e) {
      if (base.fault_plan == nullptr) throw;
      throw proto_fault(phase, kNoParty,
                        std::string("invalid message content: ") + e.what());
    } catch (const std::exception& e) {
      // Tampered payloads carry a valid CRC and decode into garbage that can
      // trip any downstream validation (range checks, share consistency...).
      // Under an installed plan every such failure is a protocol fault, not
      // a crash; without one, rethrow untouched.
      if (base.fault_plan == nullptr) throw;
      throw proto_fault(phase, kNoParty,
                        std::string("corrupted protocol state: ") + e.what());
    }
  };

  runtime::SpanSink* const span_sink = result.spans.get();
  runtime::MetricsBuffer mbuf;
  const runtime::MetricsScope mscope{base.metrics ? &mbuf : nullptr,
                                     runtime::Phase::kSetup,
                                     runtime::kOrchestratorParty};
  const runtime::SpanScope framework_span{span_sink, "framework",
                                          runtime::Phase::kSetup,
                                          runtime::kOrchestratorParty};
  // Audit checkpoint: phase `completed` is done; drain the staged buffer so
  // the registry holds the phase's final counters, then re-point the
  // staging context (absorb resets it).
  const auto audit_checkpoint = [&](runtime::Phase completed) {
    if (base.audit == nullptr) return;
    if (base.metrics) {
      result.metrics->absorb(mbuf);
      mbuf.set_context(completed, runtime::kOrchestratorParty);
    }
    base.audit->phase_complete(completed, result.metrics.get(),
                               result.comm.get());
  };

  // ---- Phase 1 (identical to the main framework) ----
  Initiator initiator{base, v0, w, rng};
  std::vector<Participant> parts;
  parts.reserve(n);
  for (std::size_t j = 1; j <= n; ++j)
    parts.emplace_back(base, j, infos[j - 1]);
  std::vector<Nat> betas(n);
  std::vector<char> dropped(n, 0);
  // A participant lost in phase 1 either aborts the run (typed fault) or —
  // under degrade_on_dropout — is marked and the protocol restarts over the
  // survivors. The initiator is irreplaceable: its loss always aborts.
  const auto mark_dropout = [&](std::size_t j, const net::ChannelError& e) {
    if (router.party_dead(0))
      throw proto_fault(runtime::Phase::kPhase1, 0, "initiator crashed");
    if (!base.degrade_on_dropout)
      throw proto_fault(runtime::Phase::kPhase1, j + 1,
                        std::string("participant lost: ") + e.what());
    dropped[j] = 1;
  };
  router.set_phase(runtime::Phase::kPhase1);
  try {
    const runtime::SpanScope phase_span{span_sink, "phase1.gain_computation",
                                        runtime::Phase::kPhase1,
                                        runtime::kOrchestratorParty};
    // Round 1: every participant's disguised query travels to the
    // initiator; round 2: the answers travel back. Each message is
    // serialized for real and decoded by its receiver — exact wire bytes,
    // same structure as the HE framework's phase 1.
    for (std::size_t j = 0; j < n; ++j) {
      const runtime::SpanScope party_span{span_sink, "task.gain_query",
                                          runtime::Phase::kPhase1,
                                          static_cast<std::int32_t>(j + 1)};
      if (base.metrics)
        mbuf.set_context(runtime::Phase::kPhase1,
                         static_cast<std::int32_t>(j + 1));
      auto scope = timer.time(j + 1);
      const dotprod::BobRound1& q = parts[j].gain_query(rng);
      runtime::Writer w;
      write_bob_round1(w, *base.dot_field, q);
      router.channel(j + 1, 0).send(std::move(w));
    }
    router.next_round();
    for (std::size_t j = 0; j < n; ++j) {
      const runtime::SpanScope party_span{span_sink, "task.gain_answer",
                                          runtime::Phase::kPhase1,
                                          static_cast<std::int32_t>(j + 1)};
      if (base.metrics) mbuf.set_context(runtime::Phase::kPhase1, 0);
      auto scope = timer.time(0);
      std::shared_ptr<const std::vector<std::uint8_t>> payload;
      try {
        payload = router.channel(j + 1, 0).receive();
      } catch (const net::ChannelError& e) {
        mark_dropout(j, e);
        continue;
      }
      runtime::Reader r{*payload};
      const auto q = read_bob_round1(r, *base.dot_field);
      r.finish();
      runtime::Writer w;
      write_alice_round2(w, *base.dot_field,
                         initiator.answer_gain_query(j + 1, q));
      router.channel(0, j + 1).send(std::move(w));
    }
    router.next_round();
    for (std::size_t j = 0; j < n; ++j) {
      if (dropped[j] != 0) continue;
      const runtime::SpanScope party_span{span_sink, "task.gain_finish",
                                          runtime::Phase::kPhase1,
                                          static_cast<std::int32_t>(j + 1)};
      if (base.metrics)
        mbuf.set_context(runtime::Phase::kPhase1,
                         static_cast<std::int32_t>(j + 1));
      auto scope = timer.time(j + 1);
      std::shared_ptr<const std::vector<std::uint8_t>> payload;
      try {
        payload = router.channel(0, j + 1).receive();
      } catch (const net::ChannelError& e) {
        mark_dropout(j, e);
        continue;
      }
      runtime::Reader r{*payload};
      const auto a = read_alice_round2(r, *base.dot_field);
      r.finish();
      parts[j].receive_gain_answer(a);
      betas[j] = parts[j].beta();
    }
  } catch (...) {
    rethrow_as_fault(runtime::Phase::kPhase1);
  }

  // Degrade-on-dropout: restart the whole protocol over the survivors with
  // a fresh, fault-free configuration (see DESIGN.md Sec. 7). The SS sort
  // additionally needs the threshold to stay feasible: n' >= 2t'+1, t' >= 1.
  if (std::any_of(dropped.begin(), dropped.end(),
                  [](char d) { return d != 0; })) {
    std::vector<std::size_t> survivors;
    std::vector<std::size_t> lost;
    for (std::size_t j = 0; j < n; ++j)
      (dropped[j] != 0 ? lost : survivors).push_back(j + 1);
    const std::size_t max_t =
        survivors.size() >= 3 ? (survivors.size() - 1) / 2 : 0;
    if (max_t < 1)
      throw proto_fault(
          runtime::Phase::kPhase1, kNoParty,
          "too few survivors to degrade (" + std::to_string(survivors.size()) +
              " left, SS sort needs n >= 2t+1 with t >= 1)");
    if (base.flight != nullptr)
      base.flight->record(runtime::FlightEventKind::kDegrade,
                          runtime::Phase::kPhase1, 0,
                          static_cast<std::uint32_t>(survivors.size()),
                          static_cast<std::uint32_t>(lost.size()));
    // The survivor rerun is a different instance; the auditor's expectations
    // no longer apply, so it records the degrade and detaches.
    if (base.audit != nullptr) base.audit->run_degraded(lost);
    SsFrameworkConfig sub = cfg;
    sub.base.n = survivors.size();
    sub.base.k = std::min(base.k, sub.base.n);
    sub.base.fault_plan = nullptr;
    sub.base.degrade_on_dropout = false;
    sub.base.audit = nullptr;
    sub.threshold = std::min(cfg.threshold, max_t);
    std::vector<AttrVec> sub_infos;
    sub_infos.reserve(survivors.size());
    for (const std::size_t id : survivors) sub_infos.push_back(infos[id - 1]);
    SsFrameworkResult out = run_ss_framework(sub, v0, w, sub_infos, rng);
    std::vector<std::size_t> ranks(n, 0);
    for (std::size_t s = 0; s < survivors.size(); ++s)
      ranks[survivors[s] - 1] = out.ranks[s];
    out.ranks = std::move(ranks);
    for (std::size_t& sid : out.submitted_ids) sid = survivors[sid - 1];
    out.active_parties = std::move(survivors);
    out.dropped_parties = std::move(lost);
    out.faults = router.fault_report();
    return out;
  }

  // ---- Phase 2: secret-sharing sort of the β values ----
  audit_checkpoint(runtime::Phase::kPhase1);
  router.set_phase(runtime::Phase::kPhase2);
  // From here on every β is committed into the shared sort: a party lost
  // now (crash scheduled at phase 2) is a clean typed abort, never a
  // degrade — the in-process engine cannot re-share without it.
  if (router.fault_active()) {
    for (std::size_t p = 0; p <= n; ++p)
      if (router.party_dead(p))
        throw proto_fault(runtime::Phase::kPhase2, p,
                          p == 0 ? "initiator crashed" : "participant crashed");
  }
  if (base.metrics)
    mbuf.set_context(runtime::Phase::kPhase2, runtime::kOrchestratorParty);
  const FpCtx& field = ss_field_for_beta_bits(l);
  sss::MpcEngine engine{field, n, cfg.threshold, rng, cfg.mode};
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<sss::RankSortResult> sorted_holder;
  {
    const runtime::SpanScope phase_span{span_sink, "phase2.ss_sort",
                                        runtime::Phase::kPhase2,
                                        runtime::kOrchestratorParty};
    sorted_holder.emplace(sss::mpc_rank_sort(engine, betas));
  }
  const auto& sorted = *sorted_holder;
  const double sort_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The engine simulates all n parties in one process; attribute an equal
  // per-party slice of the measured time.
  for (std::size_t j = 1; j <= n; ++j)
    timer.add(j, sort_seconds / static_cast<double>(n));
  result.sort_costs = sorted.costs;
  result.parallel_rounds = sorted.parallel_rounds;
  result.comparators = sorted.comparators;

  // Synthetic flows for network replay: the sort's exact metered byte total
  // spread evenly over its parallel rounds as all-to-all traffic (every
  // interactive primitive is an all-to-all exchange of field elements).
  // Content stays inside the in-process engine, so the messages are
  // transmit()s — accounting and virtual-time only. The recorded rounds are
  // capped at kMaxTraceRounds — beyond that, consecutive rounds are
  // coalesced into proportionally larger messages so totals stay exact and
  // memory stays bounded (rounds x n^2 records would reach 10^8 at
  // n = 100). Network benches use `parallel_rounds` + `sort_costs.bytes`
  // directly and are unaffected.
  constexpr std::uint64_t kMaxTraceRounds = 512;
  const std::uint64_t rounds = std::max<std::uint64_t>(1, sorted.parallel_rounds);
  const std::uint64_t recorded_rounds = std::min(rounds, kMaxTraceRounds);
  const std::size_t pair_count = n * (n - 1);
  const std::size_t per_msg = std::max<std::size_t>(
      1, sorted.costs.bytes / (recorded_rounds * pair_count));
  for (std::uint64_t r = 0; r < recorded_rounds; ++r) {
    for (std::size_t a = 1; a <= n; ++a)
      for (std::size_t b = 1; b <= n; ++b)
        if (a != b) router.transmit(a, b, per_msg);
    router.next_round();
  }

  // ---- Phase 3 ----
  audit_checkpoint(runtime::Phase::kPhase2);
  if (!counting) try {
    const runtime::SpanScope phase_span{span_sink, "phase3.submission",
                                        runtime::Phase::kPhase3,
                                        runtime::kOrchestratorParty};
    router.set_phase(runtime::Phase::kPhase3);
    if (base.metrics)
      mbuf.set_context(runtime::Phase::kPhase3, runtime::kOrchestratorParty);
    result.ranks = sorted.ranks;
    for (std::size_t j = 0; j < n; ++j) {
      if (result.ranks[j] <= base.k) {
        result.submitted_ids.push_back(j + 1);
        runtime::Writer w;
        write_submission(w, base.spec,
                         Initiator::Submission{.participant = j + 1,
                                               .claimed_rank = result.ranks[j],
                                               .info = infos[j]});
        router.channel(j + 1, 0).send(std::move(w));
      }
    }
    for (const std::size_t id : result.submitted_ids) {
      const auto payload = router.channel(id, 0).receive();
      runtime::Reader r{*payload};
      initiator.receive_submission(read_submission(r, base.spec));
      r.finish();
    }
    router.next_round();
  } catch (...) {
    rethrow_as_fault(runtime::Phase::kPhase3);
  }

  // Nothing counted runs after this point, so draining the buffer while the
  // sink is still installed is safe (absorb clears it).
  if (base.metrics) result.metrics->absorb(mbuf);
  result.active_parties.resize(n);
  for (std::size_t j = 0; j < n; ++j) result.active_parties[j] = j + 1;
  if (base.fault_plan != nullptr) result.faults = router.fault_report();
  result.compute_seconds.resize(n + 1);
  for (std::size_t p = 0; p <= n; ++p)
    result.compute_seconds[p] = timer.seconds(p);

  audit_checkpoint(runtime::Phase::kPhase3);
  if (base.audit != nullptr)
    base.audit->run_complete(result.submitted_ids, result.metrics.get(),
                             result.comm.get(), router.round_index());
  return result;
}

}  // namespace ppgr::core

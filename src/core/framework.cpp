#include "core/framework.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <stdexcept>

#include "core/codec.h"
#include "core/streams.h"
#include "crypto/codec.h"
#include "group/accel_group.h"
#include "group/metered_group.h"
#include "group/multi_exp.h"
#include "net/channel.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"

namespace ppgr::core {

namespace {

using crypto::ct_add;
using crypto::ct_add_plain;
using crypto::encrypt_exp;
using crypto::rerandomize;
using mpz::ChaChaRng;

using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

Payload seal(runtime::Writer&& w) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(w).take());
}

// Stream-id layout: shared with the process-per-party driver through
// core/streams.h — see that header. Both entry points must address the
// same substreams for the same protocol positions, or the socket
// deployment loses bit-identity with the simulator run.

using runtime::Phase;

// Observability staging for run_framework. Mirrors the TraceBuffer
// discipline: each parallel task gets its own MetricsBuffer + SpanBuffer
// (installed/opened by task()), and after the fork-join barrier collect()
// absorbs them in task-index order — so the span stream and counter slots
// are bit-identical for every parallelism value. Orchestrator-level work
// (e.g. the joint-key product) is counted through a long-lived buffer whose
// (phase, party=-1) context follows set_phase(). When cfg.metrics is off
// every method is a no-op and no sink is ever installed.
class Obs {
 public:
  Obs(bool enabled, runtime::MetricsRegistry* reg, runtime::SpanRecorder* rec)
      : reg_(reg), rec_(rec) {
    if (enabled)
      orch_scope_.emplace(&orch_buf_, Phase::kSetup,
                          runtime::kOrchestratorParty);
  }
  ~Obs() {
    if (!on()) return;
    orch_scope_.reset();  // uninstall before draining the buffer
    reg_->absorb(orch_buf_);
  }
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  [[nodiscard]] bool on() const { return orch_scope_.has_value(); }
  /// Sink for orchestrator-level SpanScopes (framework / phase / step).
  [[nodiscard]] runtime::SpanSink* span_sink() const {
    return on() ? static_cast<runtime::SpanSink*>(rec_) : nullptr;
  }
  [[nodiscard]] Phase phase() const { return phase_; }

  void set_phase(Phase p) {
    phase_ = p;
    if (on()) orch_buf_.set_context(p, runtime::kOrchestratorParty);
  }

  /// Prepares per-task staging buffers for a fork-join of `tasks` tasks.
  void stage(std::size_t tasks) {
    if (!on()) return;
    mbufs_.assign(tasks, {});
    sbufs_.assign(tasks, {});
  }

  /// Per-task RAII guard: routes this thread's metric counts to the task's
  /// buffer and opens the task span. Returns an empty guard when disabled.
  struct TaskGuard {
    std::unique_ptr<runtime::MetricsScope> metrics;
    std::unique_ptr<runtime::SpanScope> span;
  };
  [[nodiscard]] TaskGuard task(std::size_t idx, std::int32_t party,
                               const char* name, std::uint64_t arg = 0) {
    TaskGuard guard;
    if (on()) {
      guard.metrics =
          std::make_unique<runtime::MetricsScope>(&mbufs_[idx], phase_, party);
      guard.span = std::make_unique<runtime::SpanScope>(&sbufs_[idx], name,
                                                        phase_, party, arg);
    }
    return guard;
  }

  /// Absorbs the staged buffers in task-index order. Must run while the
  /// enclosing step span is still open so task spans nest under it.
  void collect() {
    if (!on()) return;
    for (auto& b : sbufs_) rec_->absorb(b);
    for (auto& b : mbufs_) reg_->absorb(b);
    mbufs_.clear();
    sbufs_.clear();
  }

  /// Drains the orchestrator buffer into the registry mid-run, so a reader
  /// at a phase boundary (the audit checkpoints) sees complete totals — the
  /// serial epilogues count serialization through this buffer, which is
  /// otherwise only absorbed at destruction. Re-arms the context after the
  /// absorb clears it.
  void flush_orchestrator() {
    if (!on()) return;
    reg_->absorb(orch_buf_);
    orch_buf_.set_context(phase_, runtime::kOrchestratorParty);
  }

 private:
  runtime::MetricsRegistry* reg_;
  runtime::SpanRecorder* rec_;
  runtime::MetricsBuffer orch_buf_;
  std::optional<runtime::MetricsScope> orch_scope_;
  Phase phase_ = Phase::kSetup;
  std::vector<runtime::MetricsBuffer> mbufs_;
  std::vector<runtime::SpanBuffer> sbufs_;
};

}  // namespace

void FrameworkConfig::validate() const {
  spec.validate();
  if (n < 2) throw std::invalid_argument("FrameworkConfig: need n >= 2");
  if (k < 1 || k > n) throw std::invalid_argument("FrameworkConfig: bad k");
  if (group == nullptr || dot_field == nullptr)
    throw std::invalid_argument("FrameworkConfig: group/dot_field not set");
  if (dot_s < 2) throw std::invalid_argument("FrameworkConfig: dot_s >= 2");
  // The dot-product field must exactly represent every β (plus slack for
  // the signed centering).
  if (spec.beta_bits() + 2 > dot_field->bits())
    throw std::invalid_argument(
        "FrameworkConfig: dot-product field too small for beta range");
}

// ---------------- Initiator ----------------

Initiator::Initiator(const FrameworkConfig& cfg, AttrVec v0, AttrVec w,
                     Rng& rng)
    : cfg_(cfg), v0_(std::move(v0)), w_(std::move(w)) {
  cfg_.validate();
  cfg_.spec.check_attributes(v0_);
  cfg_.spec.check_weights(w_);
  // ρ: h-bit, top bit forced so ρ_j < ρ leaves a full range; ρ >= 1.
  rho_ = rng.bits(cfg_.spec.h);
  rho_.set_bit(cfg_.spec.h - 1, true);
  rho_j_.resize(cfg_.n);
  for (auto& rj : rho_j_) rj = rng.below(rho_);  // [0, ρ) — strict order
}

dotprod::AliceRound2 Initiator::answer_gain_query(
    std::size_t j, const dotprod::BobRound1& msg) {
  if (j < 1 || j > cfg_.n)
    throw std::invalid_argument("answer_gain_query: bad participant id");
  const auto v_prime = initiator_vector(*cfg_.dot_field, cfg_.spec, v0_, w_,
                                        rho_, rho_j_[j - 1]);
  return dotprod::dot_product_alice(*cfg_.dot_field, msg, v_prime);
}

void Initiator::receive_submission(Submission s) {
  cfg_.spec.check_attributes(s.info);
  submissions_.push_back(std::move(s));
}

std::vector<std::size_t> Initiator::inconsistent_submissions() const {
  // Recompute gains from the submitted vectors; a submission is flagged when
  // its claimed rank ordering contradicts the recomputed gain ordering
  // against any other submission.
  std::vector<std::size_t> bad;
  for (const auto& a : submissions_) {
    const Int ga = gain(cfg_.spec, v0_, w_, a.info);
    bool flagged = false;
    for (const auto& b : submissions_) {
      if (a.participant == b.participant) continue;
      const Int gb = gain(cfg_.spec, v0_, w_, b.info);
      if ((a.claimed_rank < b.claimed_rank && ga < gb) ||
          (a.claimed_rank > b.claimed_rank && ga > gb)) {
        flagged = true;
        break;
      }
    }
    if (flagged) bad.push_back(a.participant);
  }
  return bad;
}

// ---------------- Participant ----------------

Participant::Participant(const FrameworkConfig& cfg, std::size_t id,
                         AttrVec info)
    : cfg_(cfg), id_(id), info_(std::move(info)) {
  cfg_.validate();
  cfg_.spec.check_attributes(info_);
  if (id_ < 1 || id_ > cfg_.n)
    throw std::invalid_argument("Participant: id must be in [1, n]");
}

const dotprod::BobRound1& Participant::gain_query(Rng& rng) {
  auto w_prime = participant_vector(*cfg_.dot_field, cfg_.spec, info_);
  // Scale the disguise dimension with the vector so the initiator's linear
  // system stays under-determined (dotprod::recommended_s).
  const std::size_t s =
      std::max(cfg_.dot_s, dotprod::recommended_s(w_prime.size()));
  dot_.emplace(*cfg_.dot_field, std::move(w_prime), s, rng);
  return dot_->round1();
}

void Participant::receive_gain_answer(const dotprod::AliceRound2& answer) {
  if (!dot_) throw std::logic_error("receive_gain_answer before gain_query");
  const Nat beta_field = dot_->finish(answer);
  dot_.reset();
  const Int beta_signed = cfg_.dot_field->from_centered(beta_field);
  beta_ = signed_to_unsigned(beta_signed, cfg_.spec.beta_bits());
}

const Elem& Participant::public_key(Rng& rng) {
  if (!key_generated_) {
    key_ = crypto::keygen(*cfg_.group, rng);
    key_generated_ = true;
  }
  return key_.y;
}

crypto::SchnorrTranscript Participant::prove_key(std::size_t n_verifiers,
                                                 Rng& rng) {
  (void)public_key(rng);
  return crypto::schnorr_prove(*cfg_.group, key_.x, n_verifiers, rng);
}

bool Participant::verify_peer_key(const Elem& y,
                                  const crypto::SchnorrTranscript& proof) const {
  return crypto::schnorr_verify(*cfg_.group, y, proof);
}

Ciphertext Participant::encrypt_beta_bit(std::size_t b, Rng& rng,
                                         const crypto::ZeroPool* pool,
                                         std::size_t pool_offset) const {
  const Nat m = beta_.bit(b) ? Nat{1} : Nat{};
  if (pool != nullptr)
    return crypto::encrypt_exp_with(*cfg_.group,
                                    pool->entries.at(pool_offset + b), m);
  return encrypt_exp(*cfg_.group, joint_key_, m, rng);
}

// The comparison circuit (DESIGN.md §5e), evaluated through group::multi_exp
// fusions. Per bit b, with own bits own_b and the peer's E(peer_b):
//
//   γ_b = own_b XOR peer_b             (own bit is plaintext)
//   ω_b = (l-b)·(1 - γ_b) + Σ_{v>b} γ_v  zero iff b is the most
//                                        significant differing bit
//   τ_b = ω_b + own_b                  zero iff the peer's bit is 1 there,
//                                        i.e. iff the peer's β is larger
//
// then τ_b is re-randomized before the set leaves this party: the
// homomorphic result is otherwise a deterministic function of the published
// ciphertexts and the own bits, which an adversary could test bit by bit
// (the paper's Lemma-3 simulator implicitly assumes fresh encryptions here;
// see DESIGN.md). Every element's order divides q, so the exponents q-1 and
// q-coeff collapse into inversions and coeff-width ladders. The naive
// ct_scale/ct_add_plain form of the same algebra is the differential oracle
// in tests/phase2_oracle_test.cpp; benchcore::model_he_ops states the
// interface calls this evaluation executes.
std::vector<Ciphertext> Participant::compare_against(
    const std::vector<Ciphertext>& peer_bits, Rng& rng,
    const crypto::ZeroPool* pool, std::size_t pool_offset) const {
  const runtime::ScopedOpTimer op_timer(runtime::CryptoOp::kCompareCircuit);
  const Group& g = *cfg_.group;
  const std::size_t l = cfg_.spec.beta_bits();
  if (peer_bits.size() != l)
    throw std::invalid_argument("compare_against: wrong bit count");

  // γ = 1 - peer for an own set bit: E(peer)^(q-1) = E(peer)^{-1}.
  std::vector<Ciphertext> gamma;
  gamma.reserve(l);
  for (std::size_t b = 0; b < l; ++b) {
    if (!beta_.bit(b)) {
      gamma.push_back(peer_bits[b]);
    } else {
      gamma.push_back(Ciphertext{.c = g.mul(g.inv(peer_bits[b].c),
                                            g.exp_g(Nat{1})),
                                 .cp = g.inv(peer_bits[b].cp)});
    }
  }

  std::vector<Ciphertext> tau(l);
  Ciphertext suffix{.c = g.identity(), .cp = g.identity()};
  for (std::size_t b = l; b-- > 0;) {
    const Nat coeff{static_cast<mpz::Limb>(l - b)};
    // γ^(q-coeff) = inv(γ)^coeff, and coeff = l-b is tiny, so the fused
    // inv(γ.c)^coeff · g^coeff runs a coeff-width Straus ladder.
    const std::array<Elem, 2> cb{g.inv(gamma[b].c), g.generator()};
    const std::array<Nat, 2> ce{coeff, coeff};
    const Ciphertext omega{
        .c = g.mul(group::multi_exp(g, cb, ce), suffix.c),
        .cp = g.mul(g.exp(g.inv(gamma[b].cp), coeff), suffix.cp)};
    tau[b] = beta_.bit(b) ? ct_add_plain(g, omega, Nat{1}) : omega;
    tau[b] = pool != nullptr
                 ? crypto::rerandomize_with(g, tau[b],
                                            pool->entries.at(pool_offset + b))
                 : rerandomize(g, joint_key_, tau[b], rng);
    suffix = ct_add(g, suffix, gamma[b]);
  }
  return tau;
}

// One chain hop. Partial decryption and exponent randomization fuse into
// one 2-term multi-exp per ciphertext —
//
//   c1 = c / cp^x;  out = (c1^r, cp^r)
//      = (c^r · cp^(q - x·r mod q), cp^r)
//
// because every element's order divides q, so cp^(q-e) = cp^(-e). One
// random_nonzero_scalar per ciphertext, in set order, then the Fisher–Yates
// draws with the party's private randomness.
void Participant::shuffle_hop(CipherSet& set, Rng& rng) const {
  const runtime::ScopedOpTimer op_timer(runtime::CryptoOp::kShuffleHop);
  const Group& g = *cfg_.group;
  const Nat& q = g.order();
  for (Ciphertext& ct : set) {
    const Nat r = g.random_nonzero_scalar(rng);
    const Nat e = Nat::sub(q, Nat::mul(key_.x, r) % q);
    const std::array<Elem, 2> bases{ct.c, ct.cp};
    const std::array<Nat, 2> exps{r, e};
    ct = Ciphertext{.c = group::multi_exp(g, bases, exps),
                    .cp = g.exp(ct.cp, r)};
  }
  for (std::size_t i = set.size(); i-- > 1;)
    std::swap(set[i], set[rng.below_u64(i + 1)]);
}

std::size_t Participant::compute_rank(const CipherSet& own_set) const {
  std::size_t zeros = 0;
  for (const Ciphertext& ct : own_set) {
    if (crypto::decrypts_to_zero(*cfg_.group, key_.x, ct)) ++zeros;
  }
  return zeros + 1;
}

std::optional<Initiator::Submission> Participant::submission(
    std::size_t rank) const {
  if (rank > cfg_.k) return std::nullopt;
  return Initiator::Submission{.participant = id_, .claimed_rank = rank,
                               .info = info_};
}

// ---------------- orchestration ----------------

// The parallel execution engine. Structure of every phase:
//
//   1. fork-join over an index space (parties, (party, bit) pairs,
//      (party, peer) pairs, or set owners) — each task works on its own
//      output slot and draws from its own stream, so the schedule cannot
//      influence any result; messages produced inside tasks are staged in
//      per-task CommBuffers;
//   2. a serial epilogue that routes the phase's messages through the
//      net::Router in fixed (src, dst) order — every message is actually
//      serialized by the wire codecs, accounted at its exact encoded size,
//      and decoded by the receiving side before use.
//
// Consequence: ranks, β values, permutations and the full flow sequence are
// bit-identical for every cfg.parallelism value, including the serial
// engine (parallelism = 1), which runs everything inline on the caller.
FrameworkResult run_framework(const FrameworkConfig& cfg, const AttrVec& v0,
                              const AttrVec& w,
                              const std::vector<AttrVec>& infos, Rng& rng) {
  cfg.validate();
  if (infos.size() != cfg.n)
    throw std::invalid_argument("run_framework: infos size != n");
  const std::size_t n = cfg.n;
  const std::size_t l = cfg.spec.beta_bits();

  FrameworkResult result;
  if (cfg.metrics) {
    result.metrics = std::make_unique<runtime::MetricsRegistry>();
    result.spans = std::make_unique<runtime::SpanRecorder>();
    result.comm = std::make_unique<runtime::CommRegistry>();
  }
  Obs obs{cfg.metrics, result.metrics.get(), result.spans.get()};

  // The run's one decorator stack (inside-out): an AcceleratedGroup that
  // routes fixed-base exponentiations through comb tables without changing
  // any value — the precompute source's generator table when one is
  // attached, and the joint-key table once the key exists — and, with
  // metrics on, the MeteredGroup outermost, counting every interface call
  // the parties execute.
  group::AcceleratedGroup accel{*cfg.group};
  if (cfg.precompute != nullptr) {
    // Muted: artifact (re)build cost must not show up in this session's
    // counters — it would make them depend on prior cache state.
    const runtime::MetricsMute mute;
    accel.set_generator_table(cfg.precompute->generator_table(*cfg.group));
  }
  const group::MeteredGroup metered{accel};
  FrameworkConfig ecfg = cfg;  // effective config the parties bind to
  ecfg.group = cfg.metrics ? static_cast<const Group*>(&metered) : &accel;
  const Group& g = *ecfg.group;

  // Either the caller's long-lived pool (session engine) or a private one.
  std::optional<runtime::ThreadPool> owned_pool;
  if (cfg.shared_pool == nullptr) owned_pool.emplace(cfg.parallelism);
  runtime::ThreadPool& pool =
      cfg.shared_pool != nullptr ? *cfg.shared_pool : *owned_pool;
  mpz::StreamFamily streams{rng};
  const auto task_stream = [&streams](StreamKind kind, std::size_t party,
                                      std::size_t index) {
    return streams.stream(stream_id(kind, party, index));
  };

  runtime::PartyTimer timer{n + 1};

  const runtime::SpanScope framework_span{obs.span_sink(), "framework",
                                          Phase::kSetup,
                                          runtime::kOrchestratorParty};

  ChaChaRng initiator_rng = task_stream(StreamKind::kInitiatorSetup, 0, 0);
  Initiator initiator{ecfg, v0, w, initiator_rng};
  std::vector<Participant> parts;
  parts.reserve(n);
  for (std::size_t j = 1; j <= n; ++j)
    parts.emplace_back(ecfg, j, infos[j - 1]);

  // The message transport: n participants + the initiator (party 0), on the
  // default complete-graph topology. Byte accounting (trace) is always on;
  // the flow/virtual-time view (comm) rides on cfg.metrics. A fault plan
  // (if any) is consulted inside the router's serial choke point, so the
  // fault schedule is independent of cfg.parallelism.
  net::Router::Config router_cfg;
  router_cfg.faults = cfg.fault_plan;
  router_cfg.progress = cfg.progress;
  router_cfg.flight = cfg.flight;
  net::Router router{n + 1, result.trace, result.comm.get(), router_cfg};

  // Typed failure constructors (DESIGN.md Sec. 7). Channel errors carry the
  // failing link; the blamed party is the dead one if either endpoint
  // crashed, else the participant side of the link.
  const auto proto_fault = [&](Phase phase, std::size_t party,
                               const std::string& cause) {
    std::string what = "run_framework: " + cause + " [phase " +
                       runtime::phase_name(phase) + ", round " +
                       std::to_string(router.round_index());
    if (party != kNoParty) what += ", party P" + std::to_string(party);
    what += "]";
    // The fault is about to unwind past the result's registries: notify the
    // observers now, while the evidence still exists.
    if (cfg.flight != nullptr)
      cfg.flight->record(
          runtime::FlightEventKind::kFault, phase,
          static_cast<std::uint16_t>(party == kNoParty ? 0 : party + 1), 0, 0,
          router.round_index());
    if (cfg.audit != nullptr) cfg.audit->run_faulted(phase);
    return ProtocolFault(
        FaultInfo{phase, router.round_index(), party, cause},
        router.fault_report(), what);
  };
  // Audit checkpoint: phase `completed` is done and its counters are final.
  const auto audit_checkpoint = [&](Phase completed) {
    if (cfg.audit == nullptr) return;
    obs.flush_orchestrator();
    cfg.audit->phase_complete(completed, result.metrics.get(),
                              result.comm.get());
  };
  const auto blame = [&](const net::ChannelError& e) -> std::size_t {
    if (router.party_dead(e.src())) return e.src();
    if (router.party_dead(e.dst())) return e.dst();
    return e.src() == 0 ? e.dst() : e.src();
  };
  // Converts transport/decode failures escaping a phase into ProtocolFault.
  // Decode failures (WireError / invalid_argument from the codecs'
  // validation) are converted only under a fault plan: without one they
  // remain what they always were — programming errors.
  const auto rethrow_as_fault = [&](Phase phase) {
    try {
      throw;
    } catch (const ProtocolFault&) {
      throw;
    } catch (const net::ChannelError& e) {
      throw proto_fault(phase, blame(e),
                        std::string("channel failure: ") + e.what());
    } catch (const runtime::WireError& e) {
      if (cfg.fault_plan == nullptr) throw;
      throw proto_fault(phase, kNoParty,
                        std::string("undecodable message: ") + e.what());
    } catch (const std::invalid_argument& e) {
      if (cfg.fault_plan == nullptr) throw;
      throw proto_fault(phase, kNoParty,
                        std::string("invalid message content: ") + e.what());
    } catch (const std::exception& e) {
      // Tampered payloads carry a valid CRC and decode into garbage that can
      // trip any downstream validation (range checks, share consistency...).
      // Under an installed plan every such failure is a protocol fault, not
      // a crash; without one, rethrow untouched.
      if (cfg.fault_plan == nullptr) throw;
      throw proto_fault(phase, kNoParty,
                        std::string("corrupted protocol state: ") + e.what());
    }
  };
  // Per-task staging buffers for messages produced inside parallel regions;
  // absorbed in task-index order after each fork-join barrier.
  std::vector<runtime::CommBuffer> cbufs(std::max(n, std::size_t{1}));
  const auto absorb_comm = [&] {
    for (auto& b : cbufs) router.absorb(b);
  };

  // ---- Phase 1: secure gain computation ----
  // Dropout handling: a participant whose phase-1 channel fails (crash,
  // retries exhausted, deadline) is marked dropped. Without
  // degrade_on_dropout the run aborts right there with a ProtocolFault;
  // with it, phase 1 finishes over the remaining links and the protocol is
  // rerun over the survivor set below (the dropout happened before any
  // phase-2 commitment, so no comparison state binds the dead party). The
  // initiator crashing is always fatal.
  std::vector<char> dropped(n, 0);
  const auto mark_dropout = [&](std::size_t j, const net::ChannelError& e) {
    if (router.party_dead(0))
      throw proto_fault(Phase::kPhase1, 0, "initiator crashed");
    if (!cfg.degrade_on_dropout)
      throw proto_fault(Phase::kPhase1, j + 1,
                        std::string("participant lost: ") + e.what());
    dropped[j] = 1;
  };
  obs.set_phase(Phase::kPhase1);
  router.set_phase(Phase::kPhase1);
  try {
    const runtime::SpanScope phase_span{obs.span_sink(),
                                        "phase1.gain_computation",
                                        Phase::kPhase1,
                                        runtime::kOrchestratorParty};
    {
      const runtime::SpanScope step{obs.span_sink(), "p1.queries",
                                    Phase::kPhase1,
                                    runtime::kOrchestratorParty};
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t j) {
        auto guard = obs.task(j, static_cast<std::int32_t>(j + 1),
                              "task.gain_query");
        auto scope = timer.time(j + 1);
        ChaChaRng task_rng = task_stream(StreamKind::kPhase1, j + 1, 0);
        const auto& q = parts[j].gain_query(task_rng);
        runtime::Writer w;
        write_bob_round1(w, *cfg.dot_field, q);
        cbufs[j].send(j + 1, 0, seal(std::move(w)));
      });
      obs.collect();
    }
    absorb_comm();
    router.next_round();
    {
      const runtime::SpanScope step{obs.span_sink(), "p1.answers",
                                    Phase::kPhase1,
                                    runtime::kOrchestratorParty};
      std::vector<Payload> rx(n);
      for (std::size_t j = 0; j < n; ++j) {
        try {
          rx[j] = router.receive(j + 1, 0);
        } catch (const net::ChannelError& e) {
          mark_dropout(j, e);
        }
      }
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t j) {
        if (dropped[j] != 0) return;
        auto guard = obs.task(j, 0, "task.gain_answer", j + 1);
        auto scope = timer.time(0);
        runtime::Reader r{*rx[j]};
        const auto q = read_bob_round1(r, *cfg.dot_field);
        r.finish();
        runtime::Writer w;
        write_alice_round2(w, *cfg.dot_field,
                           initiator.answer_gain_query(j + 1, q));
        cbufs[j].send(0, j + 1, seal(std::move(w)));
      });
      obs.collect();
    }
    absorb_comm();
    router.next_round();
    {
      const runtime::SpanScope step{obs.span_sink(), "p1.finish",
                                    Phase::kPhase1,
                                    runtime::kOrchestratorParty};
      std::vector<Payload> rx(n);
      for (std::size_t j = 0; j < n; ++j) {
        if (dropped[j] != 0) continue;
        try {
          rx[j] = router.receive(0, j + 1);
        } catch (const net::ChannelError& e) {
          mark_dropout(j, e);
        }
      }
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t j) {
        if (dropped[j] != 0) return;
        auto guard = obs.task(j, static_cast<std::int32_t>(j + 1),
                              "task.gain_finish");
        auto scope = timer.time(j + 1);
        runtime::Reader r{*rx[j]};
        const auto answer = read_alice_round2(r, *cfg.dot_field);
        r.finish();
        parts[j].receive_gain_answer(answer);
      });
      obs.collect();
    }
    result.betas.reserve(n);
    for (std::size_t j = 0; j < n; ++j)
      result.betas.push_back(parts[j].beta());
  } catch (...) {
    rethrow_as_fault(Phase::kPhase1);
  }

  // Degrade-on-dropout: rerun over the survivors (fresh instance, no fault
  // plan — the faults already happened) and remap its outputs to the
  // original party ids. β_j ordering is independent per party, so the
  // survivors' ranking equals the reduced instance's ranking.
  if (std::any_of(dropped.begin(), dropped.end(),
                  [](char d) { return d != 0; })) {
    std::vector<std::size_t> survivors, lost;
    for (std::size_t j = 0; j < n; ++j)
      (dropped[j] != 0 ? lost : survivors).push_back(j + 1);
    if (survivors.size() < 2)
      throw proto_fault(Phase::kPhase1, lost.front(),
                        "too few survivors to degrade (" +
                            std::to_string(survivors.size()) + " left)");
    if (cfg.flight != nullptr)
      cfg.flight->record(runtime::FlightEventKind::kDegrade, Phase::kPhase1,
                         0, static_cast<std::uint32_t>(survivors.size()),
                         static_cast<std::uint32_t>(lost.size()));
    // The survivor-set rerun is a different instance: the auditor's
    // reference no longer applies, so it is told about the degrade (a typed
    // finding naming the dropped parties) and detached from the sub-run.
    if (cfg.audit != nullptr) cfg.audit->run_degraded(lost);
    FrameworkConfig sub = cfg;
    sub.n = survivors.size();
    sub.k = std::min(cfg.k, sub.n);
    sub.fault_plan = nullptr;
    sub.degrade_on_dropout = false;
    sub.audit = nullptr;
    std::vector<AttrVec> sub_infos;
    sub_infos.reserve(survivors.size());
    for (const std::size_t id : survivors) sub_infos.push_back(infos[id - 1]);
    FrameworkResult out = run_framework(sub, v0, w, sub_infos, rng);
    std::vector<std::size_t> ranks(n, 0);
    std::vector<Nat> betas(n);
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      ranks[survivors[i] - 1] = out.ranks[i];
      betas[survivors[i] - 1] = std::move(out.betas[i]);
    }
    out.ranks = std::move(ranks);
    out.betas = std::move(betas);
    for (std::size_t& sid : out.submitted_ids) sid = survivors[sid - 1];
    out.active_parties = std::move(survivors);
    out.dropped_parties = std::move(lost);
    out.faults = router.fault_report();
    return out;
  }

  // ---- Phase 2: unlinkable gain comparison ----
  audit_checkpoint(Phase::kPhase1);
  obs.set_phase(Phase::kPhase2);
  router.set_phase(Phase::kPhase2);
  // From here on every party is cryptographically bound into the joint key,
  // the comparison circuits and the shuffle chain: any dropout or
  // undecodable message is a clean typed abort, never a degrade.
  std::vector<CipherSet> v_sets(n, CipherSet((n - 1) * l));
  try {
    const runtime::SpanScope phase_span{obs.span_sink(),
                                        "phase2.unlinkable_comparison",
                                        Phase::kPhase2,
                                        runtime::kOrchestratorParty};
    // Step 5: keys + zero-knowledge proofs (commit/challenge/response
    // rounds). Each party serializes its broadcast once; the n-1 copies
    // share the payload. Per-task comm buffers absorbed in party order keep
    // the flow sequence schedule-independent.
    std::vector<Elem> pubkeys(n);
    {
      const runtime::SpanScope step{obs.span_sink(), "p2.keygen",
                                    Phase::kPhase2,
                                    runtime::kOrchestratorParty};
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t j) {
        auto guard =
            obs.task(j, static_cast<std::int32_t>(j + 1), "task.keygen");
        auto scope = timer.time(j + 1);
        ChaChaRng task_rng = task_stream(StreamKind::kKeygen, j + 1, 0);
        pubkeys[j] = parts[j].public_key(task_rng);
        runtime::Writer w;
        crypto::write_elem(w, g, pubkeys[j]);
        const Payload payload = seal(std::move(w));
        for (std::size_t peer = 1; peer <= n; ++peer)
          if (peer != j + 1) cbufs[j].send(j + 1, peer, payload);
      });
      obs.collect();
    }
    absorb_comm();
    router.next_round();
    const std::size_t sb = crypto::scalar_wire_bytes(g);
    std::vector<crypto::SchnorrTranscript> proofs(n);
    {
      const runtime::SpanScope step{obs.span_sink(), "p2.prove",
                                    Phase::kPhase2,
                                    runtime::kOrchestratorParty};
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t j) {
        auto guard =
            obs.task(j, static_cast<std::int32_t>(j + 1), "task.prove_key");
        auto scope = timer.time(j + 1);
        ChaChaRng task_rng = task_stream(StreamKind::kProve, j + 1, 0);
        proofs[j] = parts[j].prove_key(n - 1, task_rng);
        // Commitment + response broadcast; each verifier's challenge flows
        // back accounting-only — its value is already in the transcript the
        // HBC simulation shares (DESIGN.md Sec. 5d).
        runtime::Writer w;
        crypto::write_elem(w, g, proofs[j].commitment);
        crypto::write_scalar(w, g, proofs[j].response);
        const Payload payload = seal(std::move(w));
        for (std::size_t peer = 1; peer <= n; ++peer) {
          if (peer == j + 1) continue;
          cbufs[j].send(j + 1, peer, payload);  // h and z
          cbufs[j].record(peer, j + 1, sb);     // challenge c
        }
      });
      obs.collect();
    }
    absorb_comm();
    router.next_round();
    {
      const runtime::SpanScope step{obs.span_sink(), "p2.verify",
                                    Phase::kPhase2,
                                    runtime::kOrchestratorParty};
      // Pop the two broadcast rounds' mailboxes in fixed (receiver, sender)
      // order; each mailbox holds the key share first, then the proof.
      std::vector<Payload> key_rx(n * n), proof_rx(n * n);
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t peer = 0; peer < n; ++peer) {
          if (peer == j) continue;
          key_rx[j * n + peer] = router.receive(peer + 1, j + 1);
          proof_rx[j * n + peer] = router.receive(peer + 1, j + 1);
        }
      }
      // Verification failures are collected per (verifier, prover) pair and
      // surfaced after the barrier as a typed ProtocolFault naming the
      // prover whose proof was rejected — never an in-task abort.
      std::vector<char> proof_bad(n * n, 0);
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t j) {
        auto guard = obs.task(j, static_cast<std::int32_t>(j + 1),
                              "task.verify_keys");
        auto scope = timer.time(j + 1);
        for (std::size_t peer = 0; peer < n; ++peer) {
          if (peer == j) continue;
          runtime::Reader kr{*key_rx[j * n + peer]};
          const Elem y = crypto::read_elem(kr, g);
          kr.finish();
          runtime::Reader pr{*proof_rx[j * n + peer]};
          crypto::SchnorrTranscript t;
          t.commitment = crypto::read_elem(pr, g);
          t.response = crypto::read_scalar(pr, g);
          pr.finish();
          // Challenge list shared out-of-band (see the prove step above).
          t.challenges = proofs[peer].challenges;
          if (!parts[j].verify_peer_key(y, t)) proof_bad[j * n + peer] = 1;
        }
      });
      obs.collect();
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t peer = 0; peer < n; ++peer)
          if (proof_bad[j * n + peer] != 0)
            throw proto_fault(Phase::kPhase2, peer + 1,
                              "key proof rejected (verifier P" +
                                  std::to_string(j + 1) + ")");
    }
    KeyPrecompute key_mat;
    {
      const runtime::SpanScope step{obs.span_sink(), "p2.joint_key",
                                    Phase::kPhase2,
                                    runtime::kOrchestratorParty};
      const Elem joint = crypto::joint_public_key(g, pubkeys);
      // The joint key now exists: attach its comb table, which serves every
      // y^r of the bitwise encryptions and the circuit re-randomizations.
      // It comes from the precompute source with the zero-encryption pool
      // when one is attached; otherwise it is built here — O(2^w · bits/w)
      // multiplications once per run, repaid by the n·(n-1)·l
      // re-randomizations. Either way muted, and attached between fork-join
      // barriers, so worker threads of the later steps observe it through
      // the pool's synchronization. The pool is the widened layout:
      // n·(n-1)·l comparison entries (slice idx·l for evaluation idx), then
      // n·l entries feeding the bitwise β encryptions (slice n·(n-1)·l + j·l
      // for party j+1).
      {
        const runtime::MetricsMute mute;
        if (cfg.precompute != nullptr)
          key_mat = cfg.precompute->key_material(*cfg.group, joint,
                                                 n * (n - 1) * l + n * l);
        accel.set_base_table(
            key_mat.key_table != nullptr
                ? key_mat.key_table
                : std::make_shared<const group::FixedBaseTable>(
                      *cfg.group, joint, cfg.group->order().bit_length()));
      }
      for (auto& p : parts) p.set_joint_key(joint);
    }
    router.next_round();

    // Step 6: bitwise encryptions, broadcast. Fanned out over all n·l
    // (party, bit) pairs — one encryption, one stream each. With a widened
    // zero pool available the encryptions ride its β region (no randomness
    // drawn — each task's stream exists but goes unused, so the fan-out
    // stays schedule-independent either way); a source supplying a
    // comparison-only pool simply leaves the drawing path in place.
    const std::size_t beta_pool_base = n * (n - 1) * l;
    const crypto::ZeroPool* beta_pool = key_mat.zero_pool.get();
    if (beta_pool != nullptr &&
        beta_pool->entries.size() < beta_pool_base + n * l)
      beta_pool = nullptr;
    std::vector<std::vector<Ciphertext>> beta_bits(
        n, std::vector<Ciphertext>(l));
    {
      const runtime::SpanScope step{obs.span_sink(), "p2.encrypt_bits",
                                    Phase::kPhase2,
                                    runtime::kOrchestratorParty};
      obs.stage(n * l);
      pool.parallel_for(n * l, [&](std::size_t idx) {
        const std::size_t j = idx / l;
        const std::size_t b = idx % l;
        auto guard = obs.task(idx, static_cast<std::int32_t>(j + 1),
                              "task.encrypt_bit", b);
        auto scope = timer.time(j + 1);
        ChaChaRng task_rng = task_stream(StreamKind::kEncryptBit, j + 1, b);
        beta_bits[j][b] = parts[j].encrypt_beta_bit(
            b, task_rng, beta_pool, beta_pool_base + j * l);
      });
      obs.collect();
    }
    // Broadcast each party's l ciphertexts. The serialized form travels to
    // all n-1 peers (transmit: identical copies, counted per link) and is
    // decoded once — every evaluator compares against the same validated
    // wire image (DESIGN.md Sec. 5d).
    for (std::size_t j = 0; j < n; ++j) {
      runtime::Writer w;
      crypto::write_ciphertext_seq(w, g, beta_bits[j]);
      const std::size_t bytes = w.size();
      for (std::size_t peer = 1; peer <= n; ++peer)
        if (peer != j + 1) router.transmit(j + 1, peer, bytes);
      runtime::Reader r{w.data()};
      beta_bits[j] = crypto::read_ciphertext_seq(r, g, l);
      r.finish();
    }
    router.next_round();

    // Step 7: comparisons; flattened sets go to P1. The n·(n-1) circuit
    // evaluations are the dominant cost — each (evaluator j, peer i) pair is
    // an independent task writing its l ciphertexts into a fixed slot.
    {
      const runtime::SpanScope step{obs.span_sink(), "p2.compare",
                                    Phase::kPhase2,
                                    runtime::kOrchestratorParty};
      obs.stage(n * (n - 1));
      pool.parallel_for(n * (n - 1), [&](std::size_t idx) {
        const std::size_t j = idx / (n - 1);
        const std::size_t slot = idx % (n - 1);
        const std::size_t i = slot < j ? slot : slot + 1;  // skip i == j
        auto guard = obs.task(idx, static_cast<std::int32_t>(j + 1),
                              "task.compare", i);
        auto scope = timer.time(j + 1);
        ChaChaRng task_rng = task_stream(StreamKind::kCompare, j + 1, i);
        auto tau = parts[j].compare_against(beta_bits[i], task_rng,
                                            key_mat.zero_pool.get(), idx * l);
        std::move(tau.begin(), tau.end(), v_sets[j].begin() + slot * l);
      });
      obs.collect();
    }
    // Flattened comparison sets travel to P1 (P1's own set stays put).
    for (std::size_t j = 1; j < n; ++j) {
      runtime::Writer w;
      crypto::write_ciphertext_seq(w, g, v_sets[j]);
      router.channel(j + 1, 1).send(std::move(w));
    }
    router.next_round();
    for (std::size_t j = 1; j < n; ++j) {
      const auto payload = router.channel(j + 1, 1).receive();
      runtime::Reader r{*payload};
      v_sets[j] = crypto::read_ciphertext_seq(r, g, v_sets[j].size());
      r.finish();
    }

    // Step 8: the decrypt-shuffle chain P1 -> P2 -> ... -> Pn. Hops are
    // inherently sequential, but within a hop the n-1 foreign sets are
    // decrypted/randomized/permuted independently.
    for (std::size_t hop = 0; hop < n; ++hop) {
      const runtime::SpanScope step{obs.span_sink(), "p2.shuffle",
                                    Phase::kPhase2,
                                    runtime::kOrchestratorParty, hop};
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t owner) {
        if (owner == hop) return;  // never touch the own set
        auto guard = obs.task(owner, static_cast<std::int32_t>(hop + 1),
                              "task.shuffle_hop", owner);
        auto scope = timer.time(hop + 1);
        ChaChaRng task_rng = task_stream(StreamKind::kShuffle, hop + 1, owner);
        parts[hop].shuffle_hop(v_sets[owner], task_rng);
      });
      obs.collect();
      if (hop + 1 < n) {
        // Forward the whole vector V to the next participant, who decodes
        // it before its own hop.
        runtime::Writer w;
        for (const auto& s : v_sets) crypto::write_ciphertext_seq(w, g, s);
        router.channel(hop + 1, hop + 2).send(std::move(w));
        router.next_round();
        const auto payload = router.channel(hop + 1, hop + 2).receive();
        runtime::Reader r{*payload};
        for (auto& s : v_sets) s = crypto::read_ciphertext_seq(r, g, s.size());
        r.finish();
      }
    }
    // P_n returns each set to its owner (P_n's own set stays put).
    for (std::size_t owner = 0; owner + 1 < n; ++owner) {
      runtime::Writer w;
      crypto::write_ciphertext_seq(w, g, v_sets[owner]);
      router.channel(n, owner + 1).send(std::move(w));
    }
    router.next_round();
    for (std::size_t owner = 0; owner + 1 < n; ++owner) {
      const auto payload = router.channel(n, owner + 1).receive();
      runtime::Reader r{*payload};
      v_sets[owner] = crypto::read_ciphertext_seq(r, g, v_sets[owner].size());
      r.finish();
    }
  } catch (...) {
    rethrow_as_fault(Phase::kPhase2);
  }

  // Step 9 / Phase 3: ranks and submissions.
  audit_checkpoint(Phase::kPhase2);
  obs.set_phase(Phase::kPhase3);
  router.set_phase(Phase::kPhase3);
  try {
    const runtime::SpanScope phase_span{obs.span_sink(), "phase3.submission",
                                        Phase::kPhase3,
                                        runtime::kOrchestratorParty};
    result.ranks.resize(n);
    {
      const runtime::SpanScope step{obs.span_sink(), "p3.rank",
                                    Phase::kPhase3,
                                    runtime::kOrchestratorParty};
      obs.stage(n);
      pool.parallel_for(n, [&](std::size_t j) {
        auto guard =
            obs.task(j, static_cast<std::int32_t>(j + 1), "task.rank");
        auto scope = timer.time(j + 1);
        result.ranks[j] = parts[j].compute_rank(v_sets[j]);
      });
      obs.collect();
    }
    {
      const runtime::SpanScope step{obs.span_sink(), "p3.submit",
                                    Phase::kPhase3,
                                    runtime::kOrchestratorParty};
      for (std::size_t j = 0; j < n; ++j) {
        const auto sub = parts[j].submission(result.ranks[j]);
        if (sub) {
          result.submitted_ids.push_back(j + 1);
          runtime::Writer w;
          write_submission(w, cfg.spec, *sub);
          router.channel(j + 1, 0).send(std::move(w));
        }
      }
      for (const std::size_t id : result.submitted_ids) {
        auto scope = timer.time(0);
        const auto payload = router.channel(id, 0).receive();
        runtime::Reader r{*payload};
        initiator.receive_submission(read_submission(r, cfg.spec));
        r.finish();
      }
    }
    router.next_round();
    {
      const runtime::SpanScope step{obs.span_sink(), "p3.crosscheck",
                                    Phase::kPhase3,
                                    runtime::kOrchestratorParty};
      auto scope = timer.time(0);
      const auto bad = initiator.inconsistent_submissions();
      if (!bad.empty())
        throw std::runtime_error("run_framework: inconsistent submission");
    }
  } catch (...) {
    rethrow_as_fault(Phase::kPhase3);
  }

  if (router.pending() != 0)
    throw std::logic_error("run_framework: undelivered messages");

  result.active_parties.resize(n);
  for (std::size_t j = 0; j < n; ++j) result.active_parties[j] = j + 1;
  if (cfg.fault_plan != nullptr) result.faults = router.fault_report();

  result.compute_seconds.resize(n + 1);
  for (std::size_t p = 0; p <= n; ++p)
    result.compute_seconds[p] = timer.seconds(p);

  audit_checkpoint(Phase::kPhase3);
  if (cfg.audit != nullptr)
    cfg.audit->run_complete(result.submitted_ids, result.metrics.get(),
                            result.comm.get(), router.round_index());
  return result;
}

const FpCtx& default_dot_field() {
  static const FpCtx field{Nat::from_dec(
      "578960446186580977117854925043439539266349923328202820197287920039565648"
      "19949")};
  return field;
}

std::vector<std::size_t> reference_ranks(const ProblemSpec& spec,
                                         const AttrVec& v0, const AttrVec& w,
                                         const std::vector<AttrVec>& infos) {
  std::vector<Int> gains;
  gains.reserve(infos.size());
  for (const auto& v : infos) gains.push_back(gain(spec, v0, w, v));
  std::vector<std::size_t> ranks(infos.size());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    std::size_t above = 0;
    for (std::size_t j = 0; j < infos.size(); ++j)
      if (gains[j] > gains[i]) ++above;
    ranks[i] = above + 1;
  }
  return ranks;
}

}  // namespace ppgr::core

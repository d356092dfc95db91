#include "core/party_driver.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>

#include "core/codec.h"
#include "core/streams.h"
#include "crypto/codec.h"
#include "group/accel_group.h"
#include "group/metered_group.h"
#include "net/channel.h"
#include "net/simulator.h"
#include "runtime/thread_pool.h"
#include "runtime/wire.h"
#include "sss/mpc_sort.h"

namespace ppgr::core {

using mpz::ChaChaRng;
using runtime::Phase;

namespace {

using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

// Serializes one message: write(w) into a fresh payload.
template <typename Write>
Payload encode(Write&& write) {
  runtime::Writer w;
  write(w);
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(w).take());
}

// Decodes one whole message: read(r), which must consume it exactly.
template <typename Read>
auto decode(std::span<const std::uint8_t> bytes, Read&& read) {
  runtime::Reader r{bytes};
  auto out = read(r);
  r.finish();
  return out;
}

// Ciphertexts per compute-rank task: fixed, so the task split (and with it
// the span stream) does not depend on the pool size.
constexpr std::size_t kRankChunk = 64;

// The typed fault of a run: notifies the auditor and carries the fault
// report.
ProtocolFault make_fault(const FrameworkConfig& cfg, Phase phase,
                         std::size_t round, std::size_t party,
                         const std::string& cause, net::FaultReport report) {
  std::string what = cause + " [phase " + runtime::phase_name(phase) +
                     ", round " + std::to_string(round);
  if (party != kNoParty) what += ", party P" + std::to_string(party);
  what += "]";
  // The fault is about to unwind past the run's registries: notify the
  // auditor now, while the evidence still exists.
  if (cfg.audit != nullptr) cfg.audit->run_faulted(phase);
  return ProtocolFault(FaultInfo{phase, round, party, cause}, std::move(report),
                       what);
}

// What the party programs of a run execute on: the run's one decorator
// stack (inside-out: an AcceleratedGroup that routes fixed-base
// exponentiations through comb tables without changing any value — the
// precompute source's generator table when one is attached, and the
// joint-key table once the key exists — and, with metrics on, the
// MeteredGroup outermost, counting every interface call the parties
// execute), the pool, the substreams, the party timer and the Router. A
// socket process hosts one party over a transport; an in-process run hosts
// all n+1 over the Router's mailboxes, adds the baton that schedules them,
// and keeps the run-wide state below.
struct Host {
  Host(const FrameworkConfig& cfg, const SsFrameworkConfig* ss, Rng& rng,
       runtime::TraceRecorder& trace, net::Transport* transport)
      : base(*cfg.group),
        accel(base),
        metered(accel),
        fw(cfg),
        ss(ss),
        pool(cfg.shared_pool != nullptr ? *cfg.shared_pool
                                        : owned_pool.emplace(cfg.parallelism)),
        streams(rng),
        timer(cfg.n + 1) {
    if (cfg.precompute != nullptr) {
      // Muted: artifact (re)build cost must not show up in this session's
      // counters — it would make them depend on prior cache state.
      const runtime::MetricsMute mute;
      accel.set_generator_table(cfg.precompute->generator_table(base));
    }
    fw.group = cfg.metrics ? static_cast<const Group*>(&metered) : &accel;
    if (transport == nullptr) baton.emplace(cfg.n + 1);
    // (A transport rejects a fault plan.)
    router.emplace(cfg.n + 1, trace,
                   net::Router::Config{.faults = cfg.fault_plan,
                                       .progress = cfg.progress,
                                       .transport = transport});
  }

  // Phase-barrier completion (in-process): closes the finished phase (its
  // counters are final — every party flushed before arriving), stops the
  // run for a degrade rerun when phase 1 lost participants, and opens the
  // next phase.
  void enter_phase(Phase p) {
    phase_span.reset();
    if (p == Phase::kPhase2 && !dropped.empty()) {
      baton->stop();
      return;
    }
    if (fw.audit != nullptr && phase != Phase::kSetup)
      fw.audit->phase_complete(phase, metrics);
    router->set_phase(p);
    phase = p;
    const char* name = p == Phase::kPhase1   ? "phase1.gain_computation"
                       : p == Phase::kPhase3 ? "phase3.submission"
                       : ss != nullptr       ? "phase2.ss_sort"
                                             : "phase2.unlinkable_comparison";
    phase_span.emplace(spans, name, p, runtime::kOrchestratorParty);
  }

  const Group& base;  // undecorated, for precompute builds
  group::AcceleratedGroup accel;
  const group::MeteredGroup metered;
  FrameworkConfig fw;   // the caller's, bound to the decorator stack
  const SsFrameworkConfig* ss;  // null: HE phase 2; base is unused
  std::optional<runtime::ThreadPool> owned_pool;
  // Either the caller's long-lived pool (session engine) or a private one.
  runtime::ThreadPool& pool;
  const mpz::StreamFamily streams;
  runtime::PartyTimer timer;
  std::optional<net::Baton> baton;  // in-process only
  std::optional<net::Router> router;

  // In-process run-wide state.
  runtime::MetricsRegistry* metrics = nullptr;  // null: observability off
  runtime::SpanRecorder* spans = nullptr;
  SsFrameworkResult* result = nullptr;  // receives the sort's costs
  std::vector<std::size_t> dropped;     // participants lost in phase 1
  // The joint key, set by the first participant to reach the joint-key
  // step.
  std::optional<Elem> joint;
  Phase phase = Phase::kSetup;
  std::optional<runtime::SpanScope> phase_span;
};

// The per-party program: the initiator or one participant, phases 1-3, as a
// coroutine that suspends only where the party blocks (a receive on an
// empty mailbox, a barrier).
class Party {
 public:
  Party(Host& host, std::size_t me, PartyResult& out)
      : host_(host),
        fw_(host.fw),
        router_(*host.router),
        me_(me),
        n_(host.fw.n),
        l_(host.fw.spec.beta_bits()),
        out_(out) {}

  net::Task<> run(PartyInput input) {
    resumed();
    if (me_ == 0) {
      ChaChaRng rng = stream(StreamKind::kInitiatorSetup, 0, 0);
      initiator_.emplace(fw_, input.v0, input.w, rng);
    } else {
      part_.emplace(fw_, me_, input.info);
    }
    // Every transport, decode or validation failure becomes a typed
    // ProtocolFault of the current phase. Plain std::logic_errors are
    // program bugs and Baton::Exit is a quiet unwind: both pass.
    try {
      co_await set_phase(Phase::kPhase1);
      co_await phase1();
      co_await set_phase(Phase::kPhase2);
      if (host_.ss != nullptr)
        co_await ss_phase2();
      else
        co_await he_phase2();
      // A count-only SS sort produces no ranks: nothing to submit.
      if (host_.ss == nullptr || !count_only()) {
        co_await set_phase(Phase::kPhase3);
        co_await phase3();
      }
    } catch (const ProtocolFault&) {
      throw;
    } catch (const net::ChannelError& e) {
      throw fault(blame(e), std::string("channel failure: ") + e.what());
    } catch (const runtime::WireError& e) {
      throw fault(kNoParty, std::string("undecodable message: ") + e.what());
    } catch (const std::exception& e) {
      if (typeid(e) == typeid(std::logic_error)) throw;
      // Tampered payloads decode into garbage that can trip any downstream
      // validation (range checks, share consistency, ...).
      throw fault(kNoParty,
                  std::string("corrupted protocol state: ") + e.what());
    }
    // A run that ends any other way is discarded, counters included.
    flush();
  }

 private:
  [[nodiscard]] bool obs() const { return host_.metrics != nullptr; }
  [[nodiscard]] std::int32_t party_id() const {
    return static_cast<std::int32_t>(me_);
  }
  [[nodiscard]] ChaChaRng stream(StreamKind kind, std::size_t party,
                                 std::size_t index) const {
    return host_.streams.stream(stream_id(kind, party, index));
  }
  [[nodiscard]] bool count_only() const {
    return host_.ss->mode == sss::MpcEngine::Mode::kCountOnly;
  }
  // 1-based id of the slot-th participant other than this one.
  [[nodiscard]] std::size_t peer(std::size_t slot) const {
    return slot + 1 < me_ ? slot + 1 : slot + 2;
  }

  void flush() {
    if (obs()) host_.metrics->absorb(mbuf_);
  }
  // Every party of an in-process run executes on the launcher's thread:
  // after each turn change, re-point the thread's metrics sink here.
  void resumed() {
    if (obs()) runtime::install_metrics_sink(&mbuf_);
  }

  // ---- transport ----

  void send(std::size_t dst, const Payload& payload) {
    router_.send(me_, dst, payload);
  }
  void broadcast(const Payload& payload) {
    for (std::size_t p = 1; p <= n_; ++p)
      if (p != me_) send(p, payload);
  }
  // In-process, an empty mailbox hands the baton on until the link
  // changes; over a transport, the receive blocks.
  net::Task<Payload> receive(std::size_t src) {
    if (!host_.baton) co_return router_.receive(src, me_);
    for (;;) {
      if (Payload p = router_.try_receive(src, me_)) co_return p;
      const std::uint64_t seen = router_.link_events(src, me_);
      co_await host_.baton->wait(me_, [this, src, seen] {
        return router_.link_events(src, me_) != seen;
      });
      resumed();
    }
  }
  // Round and phase barriers: in-process every party arrives and the last
  // one runs `complete`; a socket process runs it itself. The tags (phase p:
  // 1 + p; the i-th round: 2^32 + i) check that every party walks the same
  // schedule, so a drift fails at the round where it happens.
  net::Task<> barrier(std::uint64_t tag, std::function<void()> complete) {
    if (!host_.baton) {
      complete();
      co_return;
    }
    co_await host_.baton->barrier(me_, tag, std::move(complete));
    resumed();
  }
  net::Task<> next_round() {
    return barrier((1ULL << 32) + rounds_++, [this] { router_.next_round(); });
  }
  net::Task<> set_phase(Phase p) {
    flush();  // audit checkpoints at the barrier read complete totals
    co_await barrier(1 + static_cast<std::uint64_t>(p), [this, p] {
      if (host_.baton) host_.enter_phase(p);
      else router_.set_phase(p);
    });
    phase_ = p;
    if (obs()) mbuf_.set_context(p, party_id());
    // The fault plan crashed this party: it leaves quietly; its peers see a
    // dead link.
    if (router_.party_dead(me_)) throw net::Baton::Exit{};
  }

  // ---- failures ----

  // A dead endpoint is to blame; otherwise the participant side of the link.
  [[nodiscard]] std::size_t blame(const net::ChannelError& e) const {
    if (router_.party_dead(e.src())) return e.src();
    if (router_.party_dead(e.dst())) return e.dst();
    return e.src() == 0 ? e.dst() : e.src();
  }
  [[nodiscard]] ProtocolFault fault(std::size_t party,
                                    const std::string& cause) const {
    return make_fault(fw_, phase_, router_.round_index(), party, cause,
                      router_.fault_report());
  }
  // Phase-1 dropout of participant j: fatal unless the run degrades, in
  // which case j is marked and released (and leaves, if it is this party).
  void drop(std::size_t j, const net::ChannelError& e) {
    if (router_.party_dead(0)) throw fault(0, "initiator crashed");
    if (!host_.baton || !fw_.degrade_on_dropout)
      throw fault(j, std::string("participant lost: ") + e.what());
    host_.dropped.push_back(j);
    host_.baton->release(j);
    if (j == me_) throw net::Baton::Exit{};
  }

  // ---- parallelism ----

  // Runs fn(i), i in [0, count), on the pool, each task timed as this
  // party's computation. With observability on, task i counts into its own
  // metrics buffer and opens a `name` span with argument arg(i); both are
  // absorbed in index order, so the exports do not depend on the pool size.
  // A null name marks transport work (the payload decodes): untimed and
  // without spans.
  template <typename Arg, typename Fn>
  void fan_out(const char* name, std::size_t count, Arg arg, Fn fn) {
    std::vector<runtime::MetricsBuffer> mbufs(obs() ? count : 0);
    std::vector<runtime::SpanBuffer> sbufs(obs() && name ? count : 0);
    host_.pool.parallel_for(count, [&](std::size_t i) {
      std::optional<runtime::MetricsScope> metrics;
      std::optional<runtime::SpanScope> span;
      std::optional<runtime::PartyTimer::Scope> timed;
      if (obs()) metrics.emplace(&mbufs[i], phase_, party_id());
      if (obs() && name)
        span.emplace(&sbufs[i], name, phase_, party_id(), arg(i));
      if (name) timed.emplace(host_.timer, me_);
      fn(i);
    });
    for (auto& b : sbufs) host_.spans->absorb(b);
    for (auto& b : mbufs) host_.metrics->absorb(b);
  }
  // A protocol step of one task.
  template <typename Fn>
  void single_task(const char* step_name, const char* name, Fn fn) {
    const auto span = step(step_name);
    fan_out(name, 1, [](std::size_t) { return 0; },
            [&](std::size_t) { fn(); });
  }
  template <typename Fn>
  void decode_all(std::size_t count, Fn fn) {
    fan_out(nullptr, count, [](std::size_t) { return 0; }, fn);
  }
  [[nodiscard]] runtime::SpanScope step(const char* name,
                                        std::uint64_t arg = 0) const {
    return runtime::SpanScope{host_.spans, name, phase_, party_id(), arg};
  }
  [[nodiscard]] CipherSet decode_set(std::span<const std::uint8_t> bytes,
                                     std::size_t count) const {
    return decode(bytes, [&](runtime::Reader& r) {
      return crypto::read_ciphertext_seq(r, *fw_.group, count);
    });
  }
  [[nodiscard]] Payload encode_set(const CipherSet& set) const {
    return encode([&](runtime::Writer& w) {
      crypto::write_ciphertext_seq(w, *fw_.group, set);
    });
  }

  // ---- phase 1: secure gain computation ----

  net::Task<> phase1() {
    const FpCtx& field = *fw_.dot_field;
    if (me_ == 0) {
      co_await next_round();  // the queries travel
      std::vector<Payload> rx(n_ + 1), answers(n_ + 1);
      for (std::size_t j = 1; j <= n_; ++j) {
        try {
          rx[j] = co_await receive(j);
        } catch (const net::ChannelError& e) {
          drop(j, e);
        }
      }
      {
        const auto span = step("p1.answers");
        fan_out("task.gain_answer", n_, [](std::size_t i) { return i + 1; },
                [&](std::size_t i) {
                  const std::size_t j = i + 1;
                  if (rx[j] == nullptr) return;  // dropped
                  const auto q = decode(*rx[j], [&](runtime::Reader& r) {
                    return read_bob_round1(r, field);
                  });
                  answers[j] = encode([&](runtime::Writer& w) {
                    write_alice_round2(w, field,
                                       initiator_->answer_gain_query(j, q));
                  });
                });
      }
      for (std::size_t j = 1; j <= n_; ++j)
        if (answers[j] != nullptr) send(j, answers[j]);
      co_await next_round();  // the answers travel
      co_return;
    }
    Payload query;
    single_task("p1.queries", "task.gain_query", [&] {
      ChaChaRng rng = stream(StreamKind::kPhase1, me_, 0);
      query = encode([&](runtime::Writer& w) {
        write_bob_round1(w, field, part_->gain_query(rng));
      });
    });
    send(0, query);
    co_await next_round();
    co_await next_round();
    Payload rx;
    try {
      rx = co_await receive(0);
    } catch (const net::ChannelError& e) {
      drop(me_, e);
    }
    single_task("p1.finish", "task.gain_finish", [&] {
      part_->receive_gain_answer(decode(*rx, [&](runtime::Reader& r) {
        return read_alice_round2(r, field);
      }));
    });
    out_.beta = part_->beta();
  }

  // ---- phase 2 (HE): unlinkable gain comparison ----

  net::Task<> he_phase2() {
    // Keys, proofs, joint key, β broadcast, sets to P1, then one round per
    // chain hop; the initiator idles through all of them.
    if (me_ == 0) {
      for (std::size_t r = 0; r < n_ + 5; ++r) co_await next_round();
      co_return;
    }
    const Group& g = *fw_.group;

    // Step 5: key share and proof of its discrete log, each broadcast in
    // its own round; then every peer's proof is checked and the joint key
    // formed.
    Elem own_key;
    Payload msg;
    single_task("p2.keygen", "task.keygen", [&] {
      ChaChaRng rng = stream(StreamKind::kKeygen, me_, 0);
      own_key = part_->public_key(rng);
      msg = encode(
          [&](runtime::Writer& w) { crypto::write_elem(w, g, own_key); });
    });
    broadcast(msg);
    co_await next_round();
    single_task("p2.prove", "task.prove_key", [&] {
      ChaChaRng rng = stream(StreamKind::kProve, me_, 0);
      const auto proof = part_->prove_key(n_ - 1, rng);
      msg = encode([&](runtime::Writer& w) {
        crypto::write_schnorr_proof(w, g, proof);
      });
    });
    broadcast(msg);
    co_await next_round();
    // Per-link FIFO: each peer's key share arrives first, then its proof.
    std::vector<Payload> key_rx(n_ + 1), proof_rx(n_ + 1);
    for (std::size_t p = 1; p <= n_; ++p) {
      if (p == me_) continue;
      key_rx[p] = co_await receive(p);
      proof_rx[p] = co_await receive(p);
    }
    std::vector<Elem> keys(n_);
    keys[me_ - 1] = own_key;
    std::vector<char> rejected(n_ + 1, 0);
    {
      const auto span = step("p2.verify");
      fan_out("task.verify_key", n_ - 1,
              [&](std::size_t s) { return peer(s); },
              [&](std::size_t s) {
                const std::size_t p = peer(s);
                keys[p - 1] = decode(*key_rx[p], [&](runtime::Reader& r) {
                  return crypto::read_elem(r, g);
                });
                const auto proof =
                    decode(*proof_rx[p], [&](runtime::Reader& r) {
                      return crypto::read_schnorr_proof(r, g);
                    });
                if (!part_->verify_peer_key(keys[p - 1], proof))
                  rejected[p] = 1;
              });
    }
    for (std::size_t p = 1; p <= n_; ++p)
      if (rejected[p] != 0)
        throw fault(p, "key proof rejected (verifier P" +
                           std::to_string(me_) + ")");
    {
      const auto span = step("p2.joint_key");
      part_->set_joint_key(joint_key(keys));
    }
    co_await next_round();

    // Step 6: bitwise β encryption, broadcast.
    CipherSet own_bits(l_);
    {
      const auto span = step("p2.encrypt_bits");
      fan_out("task.encrypt_bit", l_, [](std::size_t b) { return b; },
              [&](std::size_t b) {
                ChaChaRng rng = stream(StreamKind::kEncryptBit, me_, b);
                own_bits[b] = part_->encrypt_beta_bit(b, rng);
              });
    }
    broadcast(encode_set(own_bits));
    co_await next_round();

    // Step 7: comparison circuits against every peer's bits (freed before
    // the barrier); the flattened set goes to P1, who opens the chain.
    CipherSet own_set((n_ - 1) * l_);
    {
      std::vector<Payload> bits_rx(n_ + 1);
      for (std::size_t p = 1; p <= n_; ++p)
        if (p != me_) bits_rx[p] = co_await receive(p);
      std::vector<CipherSet> peer_bits(n_ + 1);
      decode_all(n_ - 1, [&](std::size_t s) {
        peer_bits[peer(s)] = decode_set(*bits_rx[peer(s)], l_);
      });
      const auto span = step("p2.compare");
      fan_out("task.compare", n_ - 1,
              [&](std::size_t s) { return peer(s) - 1; },
              [&](std::size_t s) {
                const std::size_t i = peer(s) - 1;
                ChaChaRng rng = stream(StreamKind::kCompare, me_, i);
                auto tau = part_->compare_against(peer_bits[i + 1], rng);
                std::move(tau.begin(), tau.end(), own_set.begin() + s * l_);
              });
    }
    if (me_ != 1) {
      send(1, encode_set(own_set));
      own_set.clear();  // P1 holds it until it comes back
    }
    co_await next_round();

    // Step 8: the decrypt-shuffle chain P1 -> ... -> Pn. At its hop a party
    // takes in V, partially decrypts, randomizes and permutes every foreign
    // set, and forwards V (Pn returns each set to its owner instead).
    for (std::size_t hop = 1; hop <= n_; ++hop) {
      if (hop == me_) co_await shuffle_hop(own_set);
      co_await next_round();
    }
    if (me_ != n_) {
      const Payload rx = co_await receive(n_);
      decode_all(1, [&](std::size_t) {
        own_set = decode_set(*rx, (n_ - 1) * l_);
      });
    }
    own_set_ = std::move(own_set);
  }

  net::Task<> shuffle_hop(CipherSet& own_set) {
    const Group& g = *fw_.group;
    const std::size_t set_size = (n_ - 1) * l_;
    std::vector<CipherSet> v(n_);
    if (me_ == 1) {
      std::vector<Payload> rx(n_ + 1);
      for (std::size_t q = 2; q <= n_; ++q) rx[q] = co_await receive(q);
      decode_all(n_ - 1, [&](std::size_t s) {
        v[s + 1] = decode_set(*rx[s + 2], set_size);
      });
      v[0] = std::move(own_set);  // P1's own set stays put
    } else {
      // One fixed-size slice per set, the last taking any remainder, so a
      // short or long payload fails on the same set with the same error as
      // one sequential read.
      const Payload rx = co_await receive(me_ - 1);
      const std::span<const std::uint8_t> bytes{*rx};
      const std::size_t slice = set_size * crypto::ciphertext_wire_bytes(g);
      decode_all(n_, [&](std::size_t s) {
        const std::size_t off = std::min(s * slice, bytes.size());
        const std::size_t rest = bytes.size() - off;
        const std::size_t len = s + 1 < n_ ? std::min(slice, rest) : rest;
        v[s] = decode_set(bytes.subspan(off, len), set_size);
      });
    }
    {
      const auto span = step("p2.shuffle", me_ - 1);
      fan_out("task.shuffle_hop", n_ - 1,
              [&](std::size_t s) { return peer(s) - 1; },
              [&](std::size_t s) {
                const std::size_t owner = peer(s) - 1;
                ChaChaRng rng = stream(StreamKind::kShuffle, me_, owner);
                part_->shuffle_hop(v[owner], rng);
              });
    }
    if (me_ < n_) {
      send(me_ + 1, encode([&](runtime::Writer& w) {
             for (const auto& s : v) crypto::write_ciphertext_seq(w, g, s);
           }));
    } else {
      for (std::size_t owner = 1; owner < n_; ++owner)
        send(owner, encode_set(v[owner - 1]));
      own_set = std::move(v[n_ - 1]);  // Pn's own set stays put
    }
  }

  // The joint key Π y_j. In-process, the first participant here computes it
  // and attaches its comb table to the run's one decorator stack; the others
  // reuse both. Attaching between fork-joins lets the pool's synchronization
  // publish the table to the workers. Muted, like the generator table's
  // build: setup cost is not a protocol operation.
  Elem joint_key(const std::vector<Elem>& keys) {
    if (host_.joint.has_value()) return *host_.joint;
    const Elem joint = crypto::joint_public_key(*fw_.group, keys);
    {
      const runtime::MetricsMute mute;
      host_.accel.set_base_table(std::make_shared<const group::FixedBaseTable>(
          host_.base, joint, host_.base.order().bit_length()));
    }
    host_.joint = joint;
    return joint;
  }

  // ---- phase 2 (SS baseline): the sort host ranks every β ----

  net::Task<> ss_phase2() {
    const FpCtx& field = ss_field_for_beta_bits(l_);
    if (me_ > 1)
      send(1, encode([&](runtime::Writer& w) {
             write_field_elem(w, field, part_->beta());
           }));
    co_await next_round();
    if (me_ == 1) {
      co_await sort_host(field);
    } else if (me_ > 1 && !count_only()) {
      out_.rank = decode(*co_await receive(1),
                         [](runtime::Reader& r) { return r.u32(); });
      if (out_.rank == 0 || out_.rank > n_)
        throw fault(1, "sort host returned rank " + std::to_string(out_.rank) +
                           ", out of range");
    }
    co_await next_round();
  }

  net::Task<> sort_host(const FpCtx& field) {
    std::vector<Nat> betas(n_);
    betas[0] = part_->beta();
    for (std::size_t q = 2; q <= n_; ++q)
      betas[q - 1] = decode(*co_await receive(q), [&](runtime::Reader& r) {
        return read_field_elem(r, field);
      });
    ChaChaRng rng = stream(StreamKind::kSsSort, 1, 0);
    const double t0 = runtime::metrics_now_seconds();
    sss::MpcEngine engine{field, n_, host_.ss->threshold, rng, host_.ss->mode};
    const sss::RankSortResult sorted = sss::mpc_rank_sort(engine, betas);
    // The engine simulates all n share-holders in this process; attribute an
    // equal per-party slice of the measured time.
    const double sort_s = runtime::metrics_now_seconds() - t0;
    for (std::size_t j = 1; j <= n_; ++j)
      host_.timer.add(j, sort_s / static_cast<double>(n_));
    if (host_.result != nullptr) {
      host_.result->sort_costs = sorted.costs;
      host_.result->parallel_rounds = sorted.parallel_rounds;
      host_.result->comparators = sorted.comparators;
    }

    // Synthetic flows for network replay: the sort's exact metered byte
    // total spread evenly over its parallel rounds as all-to-all traffic.
    // The content stays inside the engine, so these are transmit()s, in
    // rounds this host closes while its peers wait for their ranks. At most
    // kMaxTraceRounds rounds are recorded — beyond that, consecutive rounds
    // coalesce into proportionally larger messages, so totals stay exact
    // and memory bounded.
    constexpr std::uint64_t kMaxTraceRounds = 512;
    const std::uint64_t rounds = std::clamp<std::uint64_t>(
        sorted.parallel_rounds, 1, kMaxTraceRounds);
    const std::size_t per_msg = std::max<std::size_t>(
        1, sorted.costs.bytes / (rounds * n_ * (n_ - 1)));
    for (std::uint64_t r = 0; r < rounds; ++r) {
      for (std::size_t a = 1; a <= n_; ++a)
        for (std::size_t b = 1; b <= n_; ++b)
          if (a != b) router_.transmit(a, b, per_msg);
      router_.next_round();
    }
    if (count_only()) co_return;
    out_.rank = sorted.ranks[0];
    for (std::size_t q = 2; q <= n_; ++q)
      send(q, encode([&](runtime::Writer& w) {
             w.u32(static_cast<std::uint32_t>(sorted.ranks[q - 1]));
           }));
  }

  // ---- phase 3: ranking submission ----

  net::Task<> phase3() {
    if (me_ == 0) {
      co_await next_round();
      co_await collect_submissions();
      co_return;
    }
    if (host_.ss == nullptr) {
      // Step 9: rank = 1 + the zeros among the own set's decryptions.
      const std::size_t size = own_set_.size();
      std::vector<std::size_t> zeros((size + kRankChunk - 1) / kRankChunk, 0);
      const auto span = step("p3.rank");
      fan_out("task.rank", zeros.size(), [](std::size_t c) { return c; },
              [&](std::size_t c) {
                const std::size_t off = c * kRankChunk;
                zeros[c] = part_->count_zeros(std::span{own_set_}.subspan(
                    off, std::min(kRankChunk, size - off)));
              });
      out_.rank = std::accumulate(zeros.begin(), zeros.end(), std::size_t{1});
    }
    // Within top-k the submission, otherwise an empty message: the
    // initiator learns nothing about the participants outside the top k.
    {
      const auto span = step("p3.submit");
      send(0, encode([&](runtime::Writer& w) {
             if (const auto sub = part_->submission(out_.rank))
               write_submission(w, fw_.spec, *sub);
           }));
    }
    co_await next_round();
  }

  net::Task<> collect_submissions() {
    std::vector<Payload> rx(n_ + 1);
    for (std::size_t j = 1; j <= n_; ++j) rx[j] = co_await receive(j);
    const std::size_t sub_bytes = submission_wire_bytes(fw_.spec);
    {
      const auto span = step("p3.submit");
      for (std::size_t j = 1; j <= n_; ++j) {
        auto scope = host_.timer.time(0);
        if (rx[j]->empty()) continue;
        if (rx[j]->size() != sub_bytes)
          throw fault(j, "phase-3 message of " + std::to_string(rx[j]->size()) +
                             " bytes (want 0 or " + std::to_string(sub_bytes) +
                             ")");
        Initiator::Submission s;
        try {
          s = decode(*rx[j], [&](runtime::Reader& r) {
            return read_submission(r, fw_.spec);
          });
        } catch (const std::exception& e) {
          throw fault(j, std::string("undecodable submission: ") + e.what());
        }
        if (s.participant != j || s.claimed_rank < 1 || s.claimed_rank > fw_.k)
          throw fault(j, "submission claims participant " +
                             std::to_string(s.participant) + " at rank " +
                             std::to_string(s.claimed_rank));
        out_.submitted_ids.push_back(j);
        out_.submitted_ranks.push_back(s.claimed_rank);
        initiator_->receive_submission(std::move(s));
      }
    }
    const auto span = step("p3.crosscheck");
    auto scope = host_.timer.time(0);
    const auto bad = initiator_->inconsistent_submissions();
    if (!bad.empty()) throw fault(bad.front(), "inconsistent submission");
  }

  Host& host_;
  const FrameworkConfig& fw_;
  net::Router& router_;
  const std::size_t me_;
  const std::size_t n_;
  const std::size_t l_;
  PartyResult& out_;
  Phase phase_ = Phase::kSetup;
  std::uint64_t rounds_ = 0;  // round barriers passed
  runtime::MetricsBuffer mbuf_;
  std::optional<Initiator> initiator_;
  std::optional<Participant> part_;
  CipherSet own_set_;
};

}  // namespace

PartyResult run_party(const PartyConfig& cfg, const PartyInput& input,
                      net::Transport& transport, Rng& rng) {
  cfg.fw.validate();
  const std::size_t n = cfg.fw.n;
  const std::size_t me = cfg.party;
  if (me > n)
    throw std::invalid_argument("run_party: party id " + std::to_string(me) +
                                " out of range (n = " + std::to_string(n) +
                                ")");
  if (!transport.local(me))
    throw std::invalid_argument("run_party: transport does not host party " +
                                std::to_string(me));
  if (cfg.ss && (cfg.ss_threshold < 1 || n < 2 * cfg.ss_threshold + 1))
    throw std::invalid_argument(
        "run_party: SS needs threshold >= 1 and n >= 2t+1");

  PartyResult result;
  const SsFrameworkConfig ss{.base = cfg.fw, .threshold = cfg.ss_threshold};
  Host host{cfg.fw, cfg.ss ? &ss : nullptr, rng, result.trace, &transport};
  Party party{host, me, result};
  // Over a transport a receive blocks instead of suspending, so the
  // program runs to completion in one go.
  const net::Task<> program = party.run(input);
  program.handle().resume();
  if (program.error()) std::rethrow_exception(program.error());
  result.faults = host.router->fault_report();
  if (cfg.fw.metrics)
    result.comm =
        std::make_unique<runtime::CommRegistry>(net::comm_report(result.trace));
  return result;
}

// The in-process launcher. Structure of a run:
//
//   - n+1 party coroutines run the program above against one Router, one
//     party at a time on the calling thread (net::Baton): a party computes
//     until it blocks on an empty mailbox or at a barrier, then the lowest-id
//     party that can progress takes over. Inside a party, fan-outs use the
//     run's pool, so concurrency stays at the pool size;
//   - rounds and phases are barriers over every live party; the launcher's
//     share is the phase-barrier bookkeeping (Host::enter_phase) and the
//     framework span.
//
// Consequence: the schedule — every Router call, fault decision, flow,
// span and counter slot — is a pure function of the protocol, identical for
// every cfg.parallelism value.
SsFrameworkResult launch(const FrameworkConfig& cfg,
                         const SsFrameworkConfig* ss,
                         const AttrVec& v0, const AttrVec& w,
                         const std::vector<AttrVec>& infos, Rng& rng) {
  cfg.validate();
  const std::size_t n = cfg.n;
  if (infos.size() != n)
    throw std::invalid_argument("launch: one participant input per party");
  SsFrameworkResult res;
  if (cfg.metrics) {
    res.metrics = std::make_unique<runtime::MetricsRegistry>();
    res.spans = std::make_unique<runtime::SpanRecorder>();
  }
  Host host{cfg, ss, rng, res.trace, nullptr};
  host.metrics = res.metrics.get();
  host.spans = res.spans.get();
  host.result = &res;
  net::Router& router = *host.router;

  std::vector<PartyResult> outs(n + 1);
  {
    const runtime::SpanScope framework_span{res.spans.get(), "framework",
                                            Phase::kSetup,
                                            runtime::kOrchestratorParty};
    // The parties re-point this thread's metrics sink as they take turns;
    // restore the caller's afterwards.
    const runtime::MetricsMute restore_sink;
    std::deque<Party> parties;
    std::vector<net::Task<>> programs;
    for (std::size_t p = 0; p <= n; ++p)
      programs.push_back(parties.emplace_back(host, p, outs[p]).run(
          p == 0 ? PartyInput{.v0 = v0, .w = w}
                 : PartyInput{.info = infos[p - 1]}));
    host.baton->run(programs);
    host.phase_span.reset();
  }

  // Degrade-on-dropout: phase 1 lost participants and the run stopped at
  // the phase-2 barrier; the caller reruns over the survivors.
  auto& dropped = res.dropped_parties = host.dropped;
  std::sort(dropped.begin(), dropped.end());
  if (!dropped.empty()) {
    const std::size_t survivors = n - dropped.size();
    if (survivors < (ss != nullptr ? 3 : 2))  // SS: n' >= 2t'+1, t' >= 1
      throw make_fault(cfg, Phase::kPhase1, router.round_index(),
                       dropped.front(),
                       "too few survivors to degrade (" +
                           std::to_string(survivors) + " left)",
                       router.fault_report());
    // The survivor-set rerun is a different instance: the auditor's phase-1
    // predictions no longer apply, so it is told about the degrade (a typed
    // finding naming the dropped parties) and detached from the sub-run.
    if (cfg.audit != nullptr) cfg.audit->run_degraded(dropped);
    res.faults = router.fault_report();
    return res;
  }
  // A crashed party nobody received from (the initiator after phase 1).
  for (const std::size_t p : router.dead_parties())
    throw make_fault(cfg, host.phase, router.round_index(), p,
                     p == 0 ? "initiator crashed" : "participant crashed",
                     router.fault_report());
  if (router.pending() != 0)
    throw std::logic_error("launch: undelivered messages");

  for (std::size_t j = 1; j <= n; ++j) {
    res.ranks.push_back(outs[j].rank);
    res.betas.push_back(std::move(outs[j].beta));
    res.active_parties.push_back(j);
  }
  res.submitted_ids = std::move(outs[0].submitted_ids);
  if (cfg.fault_plan != nullptr) res.faults = router.fault_report();
  for (std::size_t p = 0; p <= n; ++p)
    res.compute_seconds.push_back(host.timer.seconds(p));

  if (cfg.metrics)
    res.comm =
        std::make_unique<runtime::CommRegistry>(net::comm_report(res.trace));
  if (cfg.audit != nullptr) {
    cfg.audit->phase_complete(host.phase, res.metrics.get());
    cfg.audit->run_complete(res.submitted_ids, res.metrics.get(),
                            res.comm.get(), router.round_index());
  }
  return res;
}

}  // namespace ppgr::core

// Metered party-to-party message transport.
//
// net::Router is the single choke point every inter-party message of the
// in-process frameworks goes through: a send hands over *serialized* bytes
// (produced by the wire codecs of crypto/codec.h and core/codec.h), the
// router records the exact byte count, the phase and any injected delay in
// the runtime::TraceRecorder — the one transfer log, from which
// net::comm_report() computes the "ppgr.comm.v1" report after the run —
// and enqueues the payload in a FIFO per-(src, dst) mailbox for the
// destination to receive() and decode. next_round() is the synchronous
// round barrier: it closes the trace round.
//
// Two send flavours (DESIGN.md Sec. 5d):
//  - send(): payload retained and later receive()d — the bytes a decoding
//    party actually consumes;
//  - transmit(): accounting + virtual-time delivery only, for the SS
//    baseline's synthetic sort traffic, whose content stays inside the
//    in-process secret-sharing engine.
//
// In-process runs share one Router among n+1 party coroutines scheduled by
// a net::Baton (below): one party runs at a time, so every Router call is
// serial, and a party that finds its mailbox empty (try_receive) hands the
// baton on until the link changes. A transport-backed Router (one per
// process) blocks on the transport instead.
//
// Fault injection (DESIGN.md Sec. 7): constructed with a net::FaultPlan the
// router wraps every payload send in a sequenced CRC32 frame and resolves a
// deterministic retry ladder per message — dropped or CRC-rejected attempts
// are retransmitted with exponential backoff until the plan's retry budget
// or virtual deadline runs out, duplicates are discarded and reorders
// healed by sequence number on receive, tampered frames (CRC fixed up)
// deliver and surface at the protocol layer, crash points mute a party from
// a phase onward, and a permanently undeliverable message turns the
// matching receive() into a typed net::ChannelError. All injection happens
// at this serial choke point, keyed by counter-seeded streams, so the fault
// schedule is bit-identical at any --parallelism. The retry ladder and the
// deadline run on the stock simulator link latency. Without a plan every
// fault branch is skipped and the wire format, byte accounting and exports
// are unchanged.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/fault.h"
#include "runtime/telemetry.h"
#include "runtime/trace.h"
#include "runtime/wire.h"

namespace ppgr::net {

class Channel;
class Transport;

namespace detail {
struct TaskPromiseBase {
  std::coroutine_handle<> continuation;  // the awaiting coroutine, if any
  std::exception_ptr error;

  std::suspend_always initial_suspend() noexcept { return {}; }
  struct Final {
    bool await_ready() noexcept { return false; }
    template <typename P>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
      const std::coroutine_handle<> next = h.promise().continuation;
      return next ? next : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  Final final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { error = std::current_exception(); }
};
template <typename T>
struct TaskValue : TaskPromiseBase {
  std::optional<T> value;
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
  T take() { return std::move(*value); }
};
template <>
struct TaskValue<void> : TaskPromiseBase {
  void return_void() noexcept {}
  void take() {}
};
}  // namespace detail

/// A lazily started C++20 coroutine: the per-party protocol program and
/// its steps. `co_await task` runs it to completion — suspending whenever
/// it does — then yields its value or rethrows its exception.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::TaskValue<T> {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
  };

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<> caller) noexcept {
    h_.promise().continuation = caller;
    return h_;
  }
  T await_resume() {
    if (h_.promise().error) std::rethrow_exception(h_.promise().error);
    return h_.promise().take();
  }

  [[nodiscard]] std::coroutine_handle<> handle() const { return h_; }
  [[nodiscard]] bool done() const { return h_.done(); }
  [[nodiscard]] std::exception_ptr error() const { return h_.promise().error; }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  std::coroutine_handle<promise_type> h_;
};

/// One-at-a-time scheduler for the party programs of an in-process run
/// (the "baton", DESIGN.md §5b). Every party is a coroutine; run() resumes
/// one party at a time on the calling thread, and a party gives the baton
/// up only when it blocks — on an empty mailbox, or at a barrier — after
/// which the lowest-id party that can make progress runs next. The
/// schedule is therefore a pure function of the protocol, and every Router
/// call is serial without any locking.
class Baton {
 public:
  /// Thrown out of a wait to unwind a party that must stop quietly:
  /// another party failed, the run was stopped, or this party was
  /// released. Deliberately not a std::exception, so protocol code that
  /// converts std::exceptions into typed faults lets it pass.
  struct Exit {};

  explicit Baton(std::size_t parties);
  Baton(const Baton&) = delete;
  Baton& operator=(const Baton&) = delete;

  /// Runs programs[p] (party p's coroutine, not yet started) for every
  /// party. A program that ends in Exit ends quietly. Rethrows the first
  /// failure in baton order (every other party then unwinds with Exit);
  /// throws std::logic_error naming the blocked parties when every
  /// unfinished party is blocked.
  void run(std::vector<Task<>>& programs);

  /// Awaitable: party p (the holder) gives up the baton until ready()
  /// holds. ready is evaluated only between turns, so it may read state
  /// only baton holders mutate.
  class Wait {
   public:
    bool await_ready() const;
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const;

   private:
    friend class Baton;
    Wait(Baton& baton, std::size_t p, std::function<bool()> ready)
        : baton_(baton), p_(p), ready_(std::move(ready)) {}
    Baton& baton_;
    std::size_t p_;
    std::function<bool()> ready_;
  };
  [[nodiscard]] Wait wait(std::size_t p, std::function<bool()> ready) {
    return Wait{*this, p, std::move(ready)};
  }
  /// Barrier over every party still running: p arrives and waits until
  /// all have. The last arrival — or the last departure, if a party ends
  /// while the others wait — runs `complete` first. All arrivals at one
  /// barrier must pass the same tag (a schedule check).
  Task<> barrier(std::size_t p, std::uint64_t tag,
                 std::function<void()> complete);
  /// Party p's next wait ends in Exit.
  void release(std::size_t p) { slots_[p].released = true; }
  /// Every party's next wait ends in Exit.
  void stop() { stopped_ = true; }

 private:
  enum class State : std::uint8_t { kIdle, kRunning, kWaiting, kDone };
  struct Slot {
    State state = State::kIdle;
    bool released = false;
    std::function<bool()> ready;
    std::coroutine_handle<> resume;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t next();
  void check_exit(std::size_t p) const;
  void complete_barrier_if_full();
  void fail(std::exception_ptr e);

  std::vector<Slot> slots_;
  bool cancelled_ = false;  // a party failed
  bool stopped_ = false;
  std::exception_ptr failure_;
  std::size_t arrived_ = 0;
  std::uint64_t tag_ = 0;
  std::uint64_t generation_ = 0;
  std::function<void()> complete_;
};

class Router {
 public:
  struct Config {
    /// Optional fault schedule; must outlive the router. A null or disabled
    /// plan leaves the router's behavior (and wire bytes) untouched.
    const FaultPlan* faults = nullptr;
    /// Optional round-progress hook (live telemetry): notified with the
    /// current (phase, closed-round index) at every set_phase() and
    /// next_round(). Must outlive the router and be safe to call from the
    /// orchestrator thread while other threads read. Null: zero overhead,
    /// no behavior change.
    runtime::ProgressCell* progress = nullptr;
    /// Optional real transport (DESIGN.md §5f). Null: the in-process
    /// mailboxes. Non-null: sends to non-local parties are handed to the
    /// transport (after the usual byte accounting) and receives from
    /// non-local parties block on it, unaccounted (the sender's process
    /// accounted them). Must outlive the router. Mutually exclusive with
    /// `faults` — the injection ladder is a mailbox construct.
    Transport* transport = nullptr;
  };

  /// `trace` must outlive the router.
  Router(std::size_t parties, runtime::TraceRecorder& trace);
  Router(std::size_t parties, runtime::TraceRecorder& trace, Config cfg);

  [[nodiscard]] std::size_t parties() const { return parties_; }

  /// Sets the phase recorded with every later message and, under a fault
  /// plan, activates the crash points scheduled for this phase.
  void set_phase(runtime::Phase p);

  /// Serialized send: accounts payload->size() bytes on (src, dst) and
  /// enqueues the payload for receive(). Broadcasts share one payload.
  /// Under a fault plan the payload travels in a CRC32 frame and the whole
  /// retry ladder is resolved here (see the header comment).
  void send(std::size_t src, std::size_t dst,
            std::shared_ptr<const std::vector<std::uint8_t>> payload);
  void send(std::size_t src, std::size_t dst, std::vector<std::uint8_t> bytes);
  /// Accounting-only send; see the header comment.
  void transmit(std::size_t src, std::size_t dst, std::size_t bytes);

  /// Pops the oldest pending payload on (src, dst); over a transport, blocks
  /// for it. Throws std::logic_error when an in-process mailbox holds
  /// nothing deliverable. Under a fault plan: discards duplicates and
  /// CRC-rejected frames, heals reorders by sequence number, and throws a
  /// typed ChannelError when the awaited message permanently failed
  /// (timeout / retries exhausted / peer crashed).
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> receive(
      std::size_t src, std::size_t dst);
  /// In-process receive(), but null when nothing is deliverable yet.
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> try_receive(
      std::size_t src, std::size_t dst);
  /// Sends made on (src, dst) so far: a party waiting on an empty mailbox
  /// waits for this to change.
  [[nodiscard]] std::uint64_t link_events(std::size_t src,
                                          std::size_t dst) const {
    return link_events_[src * parties_ + dst];
  }

  /// Round barrier: closes the trace round.
  void next_round();

  /// Pending (sent, not yet received) payloads across all mailboxes; a
  /// cleanly finished protocol leaves 0.
  [[nodiscard]] std::size_t pending() const;

  [[nodiscard]] Channel channel(std::size_t src, std::size_t dst);

  // Fault-plan introspection (all cheap; meaningful only with a plan).
  [[nodiscard]] bool fault_active() const { return faults_ != nullptr; }
  [[nodiscard]] bool party_dead(std::size_t p) const;
  /// Crashed parties, ascending.
  [[nodiscard]] std::vector<std::size_t> dead_parties() const;
  /// Rounds closed so far (the fault schedule's round coordinate).
  [[nodiscard]] std::size_t round_index() const { return round_index_; }
  /// Plan echo + counters + injection event log ("ppgr.fault.v1"). Empty
  /// default report when no plan is installed. Under a real transport the
  /// transport's frame-level counters (CRC rejects, read timeouts, connect
  /// retries/give-ups) are merged in, so the export covers socket runs.
  [[nodiscard]] FaultReport fault_report() const;

 private:
  struct FailedSend {
    std::uint32_t seq = 0;
    ChannelErrorKind kind = ChannelErrorKind::kGiveUp;
    std::size_t round = 0;
  };

  void account(std::size_t src, std::size_t dst, std::size_t bytes,
               double delay_s = 0.0);
  [[nodiscard]] std::deque<std::shared_ptr<const std::vector<std::uint8_t>>>&
  mailbox(std::size_t src, std::size_t dst);
  void faulted_send(std::size_t src, std::size_t dst,
                    std::shared_ptr<const std::vector<std::uint8_t>> payload);
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> pop(
      std::size_t src, std::size_t dst);
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>>
  faulted_receive(std::size_t src, std::size_t dst);
  void note(FaultKind kind, std::size_t src, std::size_t dst,
            std::size_t attempt);

  std::size_t parties_;
  runtime::TraceRecorder& trace_;
  std::vector<std::deque<std::shared_ptr<const std::vector<std::uint8_t>>>>
      mailboxes_;
  std::size_t pending_ = 0;
  std::vector<std::uint64_t> link_events_;  // per link: sends so far
  runtime::Phase phase_ = runtime::Phase::kSetup;
  std::size_t round_index_ = 0;

  runtime::ProgressCell* progress_ = nullptr;  // round-progress hook
  Transport* transport_ = nullptr;  // null: in-process mailboxes

  // Fault-plan state (inert when faults_ == nullptr).
  const FaultPlan* faults_ = nullptr;
  double deadline_s_ = 0.0;
  std::vector<char> dead_;
  std::vector<std::uint32_t> tx_seq_;   // per link: next frame sequence
  std::vector<std::uint32_t> rx_seq_;   // per link: next expected sequence
  std::vector<std::uint32_t> msg_ctr_;  // per link: fault-schedule msg index
  std::vector<std::deque<FailedSend>> failures_;
  FaultStats stats_;
  std::vector<FaultEvent> events_;
};

/// Lightweight directed (src -> dst) handle onto a Router — what protocol
/// code passes around to send or receive on one link.
class Channel {
 public:
  Channel(Router& router, std::size_t src, std::size_t dst)
      : router_(&router), src_(src), dst_(dst) {}

  [[nodiscard]] std::size_t src() const { return src_; }
  [[nodiscard]] std::size_t dst() const { return dst_; }

  /// Sends the writer's bytes (consumes the writer).
  void send(runtime::Writer&& w) { router_->send(src_, dst_, w.take()); }
  void send(std::shared_ptr<const std::vector<std::uint8_t>> payload) {
    router_->send(src_, dst_, std::move(payload));
  }
  void transmit(std::size_t bytes) { router_->transmit(src_, dst_, bytes); }
  [[nodiscard]] std::shared_ptr<const std::vector<std::uint8_t>> receive() {
    return router_->receive(src_, dst_);
  }

 private:
  Router* router_;
  std::size_t src_;
  std::size_t dst_;
};

inline Channel Router::channel(std::size_t src, std::size_t dst) {
  return Channel{*this, src, dst};
}

}  // namespace ppgr::net

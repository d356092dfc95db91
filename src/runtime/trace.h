// Communication trace recording: the one store of every inter-party
// message.
//
// Protocols in this library execute in synchronous logical rounds. While a
// protocol runs, net::Router records every message it accounts as a
// Transfer (phase, round, src, dst, bytes, injected delay) — nothing else
// keeps a copy. Everything that prices communication is computed from this
// log after the run: net::comm_report() replays it round by round through
// net::Simulator into the runtime::CommRegistry report ("ppgr.comm.v1"),
// and bench/fig3b_network replays closed-form schedules on the paper's
// 80-node topology, exactly as the paper ran its frameworks through NS2.
//
// Threading: the recorder is safe for concurrent record() calls (internally
// locked). Protocol runs record only through net::Router, whose calls are
// serial (one party runs at a time, DESIGN.md §5b), so the transfer sequence
// is bit-identical for any thread count.
//
// Party ids: 0 is the initiator P0, 1..n are participants P1..Pn (paper
// notation).
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "runtime/metrics.h"

namespace ppgr::runtime {

struct Transfer {
  std::size_t round;
  std::size_t src;
  std::size_t dst;
  std::size_t bytes;
  Phase phase = Phase::kSetup;
  /// Injected delay spike (net::FaultPlan) added to this message's delivery
  /// on the virtual timeline; 0 without a fault plan.
  double delay_s = 0.0;
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder& other);
  TraceRecorder& operator=(const TraceRecorder& other);
  TraceRecorder(TraceRecorder&& other) noexcept;
  TraceRecorder& operator=(TraceRecorder&& other) noexcept;

  /// Records a message in the current round. Thread-safe; note that the
  /// relative order of concurrent records is scheduling-dependent.
  void record(Phase phase, std::size_t src, std::size_t dst,
              std::size_t bytes, double delay_s = 0.0);
  /// Closes the current round; subsequent records belong to the next one.
  /// (Empty rounds are allowed and preserved.)
  void next_round();

  [[nodiscard]] const std::vector<Transfer>& transfers() const {
    return transfers_;
  }
  /// Number of rounds that contain at least one message. Tracked
  /// incrementally as transfers arrive — O(1), safe to call per table row.
  [[nodiscard]] std::size_t rounds() const;
  /// Rounds closed by next_round() so far, empty ones included.
  [[nodiscard]] std::size_t closed_rounds() const;
  [[nodiscard]] std::size_t total_bytes() const;
  [[nodiscard]] std::size_t message_count() const;

 private:
  mutable std::mutex mu_;
  std::vector<Transfer> transfers_;
  std::size_t current_round_ = 0;
  std::size_t distinct_rounds_ = 0;       // rounds with >= 1 message so far
  bool current_round_counted_ = false;    // current round already in the tally
};

/// Accumulates computation time per party. The party program brackets each
/// party-local computation with start/stop; the benches report the
/// maximum / per-participant values the paper plots.
///
/// Accumulation is a relaxed atomic add per party, so concurrent tasks that
/// time work for the same party (e.g. the fanned-out shuffle hop) never race
/// and never contend on a lock.
class PartyTimer {
 public:
  explicit PartyTimer(std::size_t n_parties) : seconds_(n_parties) {
    for (auto& s : seconds_) s.store(0.0, std::memory_order_relaxed);
  }

  /// RAII bracket for one party's local computation.
  class Scope {
   public:
    Scope(PartyTimer& timer, std::size_t party);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PartyTimer& timer_;
    std::size_t party_;
    double start_;
  };

  [[nodiscard]] Scope time(std::size_t party) { return Scope{*this, party}; }
  void add(std::size_t party, double seconds) {
    seconds_.at(party).fetch_add(seconds, std::memory_order_relaxed);
  }

  [[nodiscard]] double seconds(std::size_t party) const {
    return seconds_.at(party).load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t parties() const { return seconds_.size(); }
  /// Max over participants (excluding party 0, the initiator).
  [[nodiscard]] double max_participant_seconds() const;

 private:
  std::vector<std::atomic<double>> seconds_;
};

}  // namespace ppgr::runtime

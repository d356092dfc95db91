#include "net/channel.h"

#include <stdexcept>
#include <string>

#include "net/simulator.h"
#include "net/transport.h"

namespace ppgr::net {

namespace {

std::string link_str(std::size_t src, std::size_t dst) {
  return "P" + std::to_string(src) + "->P" + std::to_string(dst);
}

}  // namespace

// ---------------- Baton ----------------

Baton::Baton(std::size_t parties) : slots_(parties) {}

void Baton::check_exit(std::size_t p) const {
  if (cancelled_ || stopped_ || slots_[p].released) throw Exit{};
}

void Baton::fail(std::exception_ptr e) {
  try {
    std::rethrow_exception(e);
  } catch (const Exit&) {
    return;  // a quiet end
  } catch (...) {
  }
  if (!failure_) failure_ = std::move(e);
  cancelled_ = true;
}

bool Baton::Wait::await_ready() const {
  baton_.check_exit(p_);
  return false;  // always yield: the lowest-id runnable party runs next
}

void Baton::Wait::await_suspend(std::coroutine_handle<> h) {
  Slot& s = baton_.slots_[p_];
  s.state = State::kWaiting;
  s.ready = std::move(ready_);
  s.resume = h;
}

void Baton::Wait::await_resume() const { baton_.check_exit(p_); }

// The next holder: the lowest-id party that has not started yet or whose
// wait can end; kNone once every party has finished.
std::size_t Baton::next() {
  for (;;) {
    bool unfinished = false;
    for (std::size_t p = 0; p < slots_.size(); ++p) {
      Slot& s = slots_[p];
      if (s.state == State::kDone) continue;
      unfinished = true;
      if (s.state == State::kIdle || cancelled_ || stopped_ || s.released ||
          s.ready())
        return p;
    }
    if (!unfinished) return kNone;
    // Every unfinished party is blocked on something no one will provide.
    std::string blocked;
    for (std::size_t p = 0; p < slots_.size(); ++p)
      if (slots_[p].state == State::kWaiting)
        blocked += " P" + std::to_string(p);
    if (!failure_)
      failure_ = std::make_exception_ptr(std::logic_error(
          "Baton: deadlock, every unfinished party is blocked:" + blocked));
    cancelled_ = true;  // the blocked parties now unwind with Exit
  }
}

// Runs the pending barrier's completion once every party still running has
// arrived.
void Baton::complete_barrier_if_full() {
  std::size_t live = 0;
  for (const Slot& s : slots_) live += s.state != State::kDone ? 1 : 0;
  if (cancelled_ || stopped_ || arrived_ == 0 || arrived_ < live) return;
  arrived_ = 0;
  const std::function<void()> complete = std::move(complete_);
  complete();
  ++generation_;
}

Task<> Baton::barrier(std::size_t p, std::uint64_t tag,
                      std::function<void()> complete) {
  check_exit(p);
  if (arrived_ == 0) {
    tag_ = tag;
    complete_ = std::move(complete);
  } else if (tag != tag_) {
    throw std::logic_error("Baton: P" + std::to_string(p) +
                           " reached a different barrier than its peers");
  }
  ++arrived_;
  const std::uint64_t generation = generation_;
  complete_barrier_if_full();
  co_await wait(p, [this, generation] { return generation_ != generation; });
}

void Baton::run(std::vector<Task<>>& programs) {
  for (std::size_t p = 0; p < slots_.size(); ++p)
    slots_[p].resume = programs[p].handle();
  for (std::size_t p = next(); p != kNone; p = next()) {
    Slot& s = slots_[p];
    // A party that has not started when the run is cancelled never starts.
    const bool start = s.state != State::kIdle || (!cancelled_ && !stopped_);
    s.state = State::kRunning;
    if (start) s.resume.resume();
    if (start && !programs[p].done()) continue;  // it waits again
    s.state = State::kDone;
    if (start && programs[p].error()) fail(programs[p].error());
    try {
      complete_barrier_if_full();  // the others may be waiting only on p
    } catch (...) {
      fail(std::current_exception());
    }
  }
  if (failure_) std::rethrow_exception(failure_);
}

// ---------------- Router ----------------

Router::Router(std::size_t parties, runtime::TraceRecorder& trace)
    : Router(parties, trace, Config{}) {}

Router::Router(std::size_t parties, runtime::TraceRecorder& trace,
               Config cfg)
    : parties_(parties),
      trace_(trace),
      mailboxes_(parties * parties),
      link_events_(parties * parties, 0),
      progress_(cfg.progress),
      transport_(cfg.transport) {
  if (parties_ < 2) throw std::invalid_argument("Router: need >= 2 parties");
  if (transport_ != nullptr && cfg.faults != nullptr && cfg.faults->enabled())
    throw std::invalid_argument(
        "Router: fault injection requires the in-process mailboxes (the "
        "retry ladder is a mailbox construct)");
  // A disabled plan is indistinguishable from no plan: every fault branch
  // below keys off faults_ != nullptr.
  if (cfg.faults != nullptr && cfg.faults->enabled()) {
    faults_ = cfg.faults;
    deadline_s_ = faults_->effective_deadline(SimulatorConfig{}.latency_s);
    dead_.assign(parties_, 0);
    tx_seq_.assign(parties_ * parties_, 0);
    rx_seq_.assign(parties_ * parties_, 0);
    msg_ctr_.assign(parties_ * parties_, 0);
    failures_.resize(parties_ * parties_);
  }
}

void Router::set_phase(runtime::Phase p) {
  phase_ = p;
  if (progress_ != nullptr) progress_->advance(phase_, round_index_);
  if (faults_ == nullptr) return;
  for (const std::size_t party : faults_->crashes_at(p)) {
    if (party >= parties_ || dead_[party] != 0) continue;
    dead_[party] = 1;
    stats_.injected[static_cast<std::size_t>(FaultKind::kCrash)]++;
    events_.push_back(FaultEvent{FaultKind::kCrash, round_index_, party,
                                 party, 0});
  }
}

void Router::note(FaultKind kind, std::size_t src, std::size_t dst,
                  std::size_t attempt) {
  stats_.injected[static_cast<std::size_t>(kind)]++;
  events_.push_back(FaultEvent{kind, round_index_, src, dst, attempt});
}

void Router::account(std::size_t src, std::size_t dst, std::size_t bytes,
                     double delay_s) {
  if (src >= parties_ || dst >= parties_)
    throw std::invalid_argument("Router: party id out of range");
  trace_.record(phase_, src, dst, bytes, delay_s);
}

std::deque<std::shared_ptr<const std::vector<std::uint8_t>>>&
Router::mailbox(std::size_t src, std::size_t dst) {
  return mailboxes_[src * parties_ + dst];
}

void Router::send(std::size_t src, std::size_t dst,
                  std::shared_ptr<const std::vector<std::uint8_t>> payload) {
  if (payload == nullptr) throw std::invalid_argument("Router: null payload");
  if (faults_ != nullptr) {
    faulted_send(src, dst, std::move(payload));
    return;
  }
  if (transport_ != nullptr && !transport_->local(dst)) {
    // Account first (the trace records "bytes put on the wire"),
    // then hand the payload to the transport, which frames and ships it.
    account(src, dst, payload->size());
    transport_->send(src, dst, *payload);
    return;
  }
  account(src, dst, payload->size());
  mailbox(src, dst).push_back(std::move(payload));
  ++pending_;
  ++link_events_[src * parties_ + dst];
}

void Router::faulted_send(
    std::size_t src, std::size_t dst,
    std::shared_ptr<const std::vector<std::uint8_t>> payload) {
  if (src >= parties_ || dst >= parties_)
    throw std::invalid_argument("Router: party id out of range");
  const std::size_t link = src * parties_ + dst;
  // A crashed sender is silent: its peers discover the crash when their
  // receive finds nothing on the link (ChannelError kPeerDead).
  if (dead_[src] != 0) return;
  ++link_events_[link];  // whatever the ladder resolves, the link changed
  const std::uint32_t seq = tx_seq_[link]++;
  const std::uint32_t msg = msg_ctr_[link]++;
  auto& box = mailbox(src, dst);
  if (dead_[dst] != 0) {
    // The wire still carries the bytes; nobody acknowledges them.
    account(src, dst, kFrameHeaderBytes + payload->size());
    failures_[link].push_back(
        FailedSend{seq, ChannelErrorKind::kPeerDead, round_index_});
    return;
  }
  const std::size_t framed_bytes = kFrameHeaderBytes + payload->size();
  double elapsed_s = 0.0;
  double backoff_s = faults_->config().backoff_base_s;
  for (std::size_t attempt = 0;; ++attempt) {
    const FaultDecision d =
        faults_->decide(phase_, round_index_, src, dst, msg, attempt);
    if (attempt > 0) stats_.retransmits++;
    if (d.drop || d.corrupt) {
      // The attempt consumed wire bytes either way; a corrupted frame also
      // reaches the mailbox, where the receiver's CRC check discards it.
      account(src, dst, framed_bytes, d.delay ? faults_->config().delay_spike_s
                                              : 0.0);
      if (d.delay) note(FaultKind::kDelay, src, dst, attempt);
      if (d.drop) {
        note(FaultKind::kDrop, src, dst, attempt);
      } else {
        note(FaultKind::kCorrupt, src, dst, attempt);
        std::vector<std::uint8_t> framed = encode_frame(seq, *payload);
        const std::size_t bits = payload->size() * 8;
        if (bits > 0) {
          const std::size_t bit = d.flip_bit % bits;
          framed[kFrameHeaderBytes + bit / 8] ^=
              static_cast<std::uint8_t>(1u << (bit % 8));
        } else {
          framed[8] ^= 1u;  // no payload bits: break the CRC field itself
        }
        box.push_back(std::make_shared<const std::vector<std::uint8_t>>(
            std::move(framed)));
        ++pending_;
      }
      // Ladder advance: one simulated round trip (the receiver's missing
      // ack) plus the exponential backoff before the retransmit.
      elapsed_s += 2.0 * SimulatorConfig{}.latency_s;
      if (attempt >= faults_->config().max_retries) {
        stats_.giveups++;
        failures_[link].push_back(
            FailedSend{seq, ChannelErrorKind::kGiveUp, round_index_});
        return;
      }
      elapsed_s += backoff_s;
      backoff_s *= 2.0;
      if (elapsed_s > deadline_s_) {
        stats_.timeouts++;
        failures_[link].push_back(
            FailedSend{seq, ChannelErrorKind::kTimeout, round_index_});
        return;
      }
      continue;
    }
    // Delivered attempt (possibly tampered / duplicated / reordered /
    // delayed).
    std::vector<std::uint8_t> framed;
    if (d.tamper && !payload->empty()) {
      std::vector<std::uint8_t> bad = *payload;
      const std::size_t bit = d.flip_bit % (bad.size() * 8);
      bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      framed = encode_frame(seq, bad);  // CRC recomputed: undetectable
      note(FaultKind::kTamper, src, dst, attempt);
    } else {
      framed = encode_frame(seq, *payload);
    }
    const double extra =
        d.delay ? faults_->config().delay_spike_s : 0.0;
    if (d.delay) note(FaultKind::kDelay, src, dst, attempt);
    account(src, dst, framed.size(), extra);
    auto frame_ptr =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(framed));
    box.push_back(frame_ptr);
    ++pending_;
    if (d.duplicate) {
      note(FaultKind::kDuplicate, src, dst, attempt);
      account(src, dst, frame_ptr->size(), extra);
      box.push_back(frame_ptr);
      ++pending_;
    }
    if (d.reorder && box.size() >= 2) {
      note(FaultKind::kReorder, src, dst, attempt);
      std::swap(box[box.size() - 1], box[box.size() - 2]);
    }
    return;
  }
}

void Router::send(std::size_t src, std::size_t dst,
                  std::vector<std::uint8_t> bytes) {
  send(src, dst,
       std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes)));
}

void Router::transmit(std::size_t src, std::size_t dst, std::size_t bytes) {
  if (faults_ != nullptr) {
    if (src < parties_ && dead_[src] != 0) return;  // crashed sender: silent
    if (src < parties_ && dst < parties_) {
      const FaultDecision d = faults_->decide(
          phase_, round_index_, src, dst, msg_ctr_[src * parties_ + dst]++, 0);
      // Accounting-only messages have no retained payload to lose or
      // corrupt; only the delay spike applies.
      if (d.delay) {
        note(FaultKind::kDelay, src, dst, 0);
        account(src, dst, bytes, faults_->config().delay_spike_s);
        return;
      }
    }
  }
  account(src, dst, bytes);
}

std::shared_ptr<const std::vector<std::uint8_t>> Router::receive(
    std::size_t src, std::size_t dst) {
  if (src >= parties_ || dst >= parties_)
    throw std::invalid_argument("Router: party id out of range");
  if (transport_ != nullptr && !transport_->local(src)) {
    // Not accounted: the sending process accounted it, so the processes'
    // exports sum to exactly the in-process run's.
    return std::make_shared<const std::vector<std::uint8_t>>(
        transport_->receive(src, dst));
  }
  auto payload = try_receive(src, dst);
  if (payload == nullptr)
    throw std::logic_error("Router::receive: mailbox empty");
  return payload;
}

std::shared_ptr<const std::vector<std::uint8_t>> Router::try_receive(
    std::size_t src, std::size_t dst) {
  if (src >= parties_ || dst >= parties_)
    throw std::invalid_argument("Router: party id out of range");
  return faults_ != nullptr ? faulted_receive(src, dst) : pop(src, dst);
}

std::shared_ptr<const std::vector<std::uint8_t>> Router::pop(std::size_t src,
                                                             std::size_t dst) {
  auto& box = mailbox(src, dst);
  if (box.empty()) return nullptr;
  auto payload = std::move(box.front());
  box.pop_front();
  --pending_;
  return payload;
}

std::shared_ptr<const std::vector<std::uint8_t>> Router::faulted_receive(
    std::size_t src, std::size_t dst) {
  const std::size_t link = src * parties_ + dst;
  auto& box = mailbox(src, dst);
  const std::uint32_t want = rx_seq_[link];
  // A permanently failed send consumes its sequence slot with a typed
  // error, so later messages on the link keep their ordering.
  if (!failures_[link].empty() && failures_[link].front().seq == want) {
    const FailedSend failed = failures_[link].front();
    failures_[link].pop_front();
    rx_seq_[link] = want + 1;
    throw ChannelError(
        failed.kind, src, dst, failed.round,
        "Router::receive: " + link_str(src, dst) + " message #" +
            std::to_string(want) + " lost (" + to_string(failed.kind) +
            (failed.kind == ChannelErrorKind::kPeerDead
                 ? ": peer crashed)"
                 : ", retransmit budget/deadline exhausted)"));
  }
  // Scan the mailbox for the expected sequence number, discarding CRC
  // rejects and stale duplicates, skipping (and preserving) frames from the
  // future.
  std::size_t skipped_future = 0;
  for (std::size_t i = 0; i < box.size();) {
    Frame frame = decode_frame(*box[i]);
    if (!frame.crc_ok) {
      stats_.crc_detected++;
      box.erase(box.begin() + static_cast<std::ptrdiff_t>(i));
      --pending_;
      continue;
    }
    if (frame.seq < want) {
      stats_.duplicates_dropped++;
      box.erase(box.begin() + static_cast<std::ptrdiff_t>(i));
      --pending_;
      continue;
    }
    if (frame.seq > want) {
      ++skipped_future;
      ++i;
      continue;
    }
    // Found it. Healing a reorder means it was not the first live frame.
    if (skipped_future > 0) stats_.reorders_healed++;
    box.erase(box.begin() + static_cast<std::ptrdiff_t>(i));
    --pending_;
    rx_seq_[link] = want + 1;
    // Purge trailing duplicates of this (or earlier) messages so a healed
    // run still drains to pending() == 0.
    for (std::size_t j = 0; j < box.size();) {
      const Frame f = decode_frame(*box[j]);
      if (f.crc_ok && f.seq > want) {
        ++j;
        continue;
      }
      if (f.crc_ok) stats_.duplicates_dropped++;
      else stats_.crc_detected++;
      box.erase(box.begin() + static_cast<std::ptrdiff_t>(j));
      --pending_;
    }
    return std::make_shared<const std::vector<std::uint8_t>>(
        std::move(frame.payload));
  }
  if (dead_[src] != 0) {
    throw ChannelError(ChannelErrorKind::kPeerDead, src, dst, round_index_,
                       "Router::receive: " + link_str(src, dst) +
                           " peer P" + std::to_string(src) + " crashed");
  }
  return nullptr;  // the awaited frame has not been sent yet
}

void Router::next_round() {
  trace_.next_round();
  ++round_index_;
  if (progress_ != nullptr) progress_->advance(phase_, round_index_);
}

std::size_t Router::pending() const { return pending_; }

bool Router::party_dead(std::size_t p) const {
  return faults_ != nullptr && p < parties_ && dead_[p] != 0;
}

std::vector<std::size_t> Router::dead_parties() const {
  std::vector<std::size_t> out;
  if (faults_ == nullptr) return out;
  for (std::size_t p = 0; p < parties_; ++p)
    if (dead_[p] != 0) out.push_back(p);
  return out;
}

FaultReport Router::fault_report() const {
  FaultReport report;
  if (faults_ != nullptr) report.plan = faults_->config();
  report.stats = stats_;
  report.events = events_;
  if (transport_ != nullptr) {
    // Fold the transport's frame-level counters in so ppgr.fault.v1
    // covers real-socket runs (injected[] stays zero: nothing is injected).
    const FaultStats ts = transport_->stats();
    for (std::size_t i = 0; i < kFaultKindCount; ++i)
      report.stats.injected[i] += ts.injected[i];
    report.stats.retransmits += ts.retransmits;
    report.stats.crc_detected += ts.crc_detected;
    report.stats.duplicates_dropped += ts.duplicates_dropped;
    report.stats.reorders_healed += ts.reorders_healed;
    report.stats.timeouts += ts.timeouts;
    report.stats.giveups += ts.giveups;
  }
  return report;
}

}  // namespace ppgr::net

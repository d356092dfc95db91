#include "runtime/trace.h"

#include <chrono>
#include <stdexcept>

namespace ppgr::runtime {

TraceRecorder::TraceRecorder(const TraceRecorder& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  transfers_ = other.transfers_;
  current_round_ = other.current_round_;
  distinct_rounds_ = other.distinct_rounds_;
  current_round_counted_ = other.current_round_counted_;
}

TraceRecorder& TraceRecorder::operator=(const TraceRecorder& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  transfers_ = other.transfers_;
  current_round_ = other.current_round_;
  distinct_rounds_ = other.distinct_rounds_;
  current_round_counted_ = other.current_round_counted_;
  return *this;
}

TraceRecorder::TraceRecorder(TraceRecorder&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  transfers_ = std::move(other.transfers_);
  current_round_ = other.current_round_;
  distinct_rounds_ = other.distinct_rounds_;
  current_round_counted_ = other.current_round_counted_;
}

TraceRecorder& TraceRecorder::operator=(TraceRecorder&& other) noexcept {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  transfers_ = std::move(other.transfers_);
  current_round_ = other.current_round_;
  distinct_rounds_ = other.distinct_rounds_;
  current_round_counted_ = other.current_round_counted_;
  return *this;
}

void TraceRecorder::record(Phase phase, std::size_t src, std::size_t dst,
                           std::size_t bytes, double delay_s) {
  if (src == dst)
    throw std::invalid_argument("TraceRecorder: src == dst");
  std::lock_guard<std::mutex> lock(mu_);
  transfers_.push_back(
      Transfer{current_round_, src, dst, bytes, phase, delay_s});
  if (!current_round_counted_) {
    ++distinct_rounds_;
    current_round_counted_ = true;
  }
}

void TraceRecorder::next_round() {
  std::lock_guard<std::mutex> lock(mu_);
  ++current_round_;
  current_round_counted_ = false;
}

std::size_t TraceRecorder::rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return distinct_rounds_;
}

std::size_t TraceRecorder::closed_rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_round_;
}

std::size_t TraceRecorder::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t sum = 0;
  for (const auto& t : transfers_) sum += t.bytes;
  return sum;
}

std::size_t TraceRecorder::message_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transfers_.size();
}

double PartyTimer::now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PartyTimer::Scope::Scope(PartyTimer& timer, std::size_t party)
    : timer_(timer), party_(party), start_(now_seconds()) {}

PartyTimer::Scope::~Scope() { timer_.add(party_, now_seconds() - start_); }

double PartyTimer::max_participant_seconds() const {
  double best = 0.0;
  for (std::size_t i = 1; i < seconds_.size(); ++i)
    best = std::max(best, seconds_[i].load(std::memory_order_relaxed));
  return best;
}

double PartyTimer::mean_participant_seconds() const {
  if (seconds_.size() <= 1) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 1; i < seconds_.size(); ++i)
    sum += seconds_[i].load(std::memory_order_relaxed);
  return sum / static_cast<double>(seconds_.size() - 1);
}

}  // namespace ppgr::runtime

#include "runtime/flightrec.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace ppgr::runtime {

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kPhase: return "phase";
    case FlightEventKind::kRound: return "round";
    case FlightEventKind::kSend: return "send";
    case FlightEventKind::kRetry: return "retry";
    case FlightEventKind::kInject: return "inject";
    case FlightEventKind::kChannelError: return "channel_error";
    case FlightEventKind::kDegrade: return "degrade";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kAudit: return "audit";
  }
  return "?";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void FlightRecorder::record(FlightEventKind kind, Phase phase,
                            std::uint16_t detail, std::uint32_t a,
                            std::uint32_t b, std::uint64_t c) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Stamped under mu_ so ring order is time order across recording threads.
  FlightEvent& e = ring_[recorded_ % ring_.size()];
  e.t_s = metrics_now_seconds();
  e.kind = kind;
  e.phase = phase;
  e.detail = detail;
  e.a = a;
  e.b = b;
  e.c = c;
  ++recorded_;
}

std::size_t FlightRecorder::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(recorded_, ring_.size()));
}

std::uint64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t FlightRecorder::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  const std::uint64_t n = std::min<std::uint64_t>(recorded_, ring_.size());
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = recorded_ - n; i < recorded_; ++i)
    out.push_back(ring_[i % ring_.size()]);
  return out;
}

std::string FlightRecorder::to_json() const {
  const std::vector<FlightEvent> evs = events();
  std::uint64_t rec = 0;
  std::uint64_t drop = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    rec = recorded_;
    drop = recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }
  std::string out;
  out += "{\n  \"schema\": \"ppgr.flight.v1\",\n";
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  \"capacity\": %zu, \"recorded\": %" PRIu64
                ", \"dropped\": %" PRIu64 ",\n  \"events\": [",
                ring_.size(), rec, drop);
  out += buf;
  const double t0 = evs.empty() ? 0.0 : evs.front().t_s;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const FlightEvent& e = evs[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"dt_s\": %.6f, \"kind\": \"%s\", \"phase\": "
                  "\"%s\", \"detail\": %u, \"a\": %u, \"b\": %u, \"c\": %"
                  PRIu64 "}",
                  i == 0 ? "" : ",", e.t_s - t0, to_string(e.kind),
                  phase_name(e.phase), static_cast<unsigned>(e.detail),
                  static_cast<unsigned>(e.a), static_cast<unsigned>(e.b),
                  e.c);
    out += buf;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace ppgr::runtime

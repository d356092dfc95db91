#include "runtime/span.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <unordered_map>

#include "runtime/json.h"

namespace ppgr::runtime {

void SpanBuffer::push(SpanEvent ev) {
  if (ev.begin) {
    ev.depth = depth_++;
  } else {
    ev.depth = --depth_;
  }
  events_.push_back(ev);
}

void SpanBuffer::clear() {
  events_.clear();
  depth_ = 0;
}

void SpanRecorder::push(SpanEvent ev) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (ev.begin) {
    ev.depth = depth_++;
  } else {
    ev.depth = --depth_;
  }
  events_.push_back(ev);
}

void SpanRecorder::absorb(SpanBuffer& buf) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    events_.reserve(events_.size() + buf.events().size());
    for (SpanEvent ev : buf.events()) {
      ev.depth += depth_;
      events_.push_back(ev);
    }
  }
  buf.clear();
}

std::array<double, kPhaseCount> SpanRecorder::phase_wall_seconds() const {
  std::array<double, kPhaseCount> wall{};
  std::array<double, kPhaseCount> open{};
  for (const auto& ev : events_) {
    if (ev.depth != 1) continue;
    const auto p = static_cast<std::size_t>(ev.phase);
    if (ev.begin) {
      open[p] = ev.t_wall;
    } else {
      wall[p] += ev.t_wall - open[p];
    }
  }
  return wall;
}

std::string SpanRecorder::chrome_trace_json(bool deterministic) const {
  std::string out;
  out += "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";

  // One lane (tid) per party; tid = party + 1 keeps the orchestrator at 0.
  std::vector<std::int32_t> parties;
  for (const auto& ev : events_) {
    bool found = false;
    for (const auto p : parties)
      if (p == ev.party) {
        found = true;
        break;
      }
    if (!found) parties.push_back(ev.party);
  }
  std::sort(parties.begin(), parties.end());

  bool first = true;
  for (const auto p : parties) {
    appendf(out,
            "%s  {\"ph\": \"M\", \"pid\": 0, \"tid\": %d, \"name\": "
            "\"thread_name\", \"args\": {\"name\": \"",
            first ? "" : ",\n", p + 1);
    if (p == kOrchestratorParty)
      out += "orchestrator";
    else
      appendf(out, "P%d%s", p, p == 0 ? " (initiator)" : "");
    out += "\"}}";
    first = false;
  }

  // Match begin/end pairs per lane in stream order; emit one "X" complete
  // event per span, in end-event order (deterministic: the event stream is).
  const double t0 = events_.empty() ? 0.0 : events_.front().t_wall;
  std::unordered_map<std::int32_t, std::vector<std::size_t>> stacks;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto& ev = events_[i];
    if (ev.begin) {
      stacks[ev.party].push_back(i);
      continue;
    }
    auto& stack = stacks[ev.party];
    if (stack.empty()) continue;  // malformed stream; skip
    const std::size_t begin_idx = stack.back();
    const SpanEvent& b = events_[begin_idx];
    stack.pop_back();
    double ts_us;
    double dur_us;
    if (deterministic) {
      // Timestamps are event-stream indices in µs ticks: bit-identical
      // across thread counts, nesting preserved exactly.
      ts_us = static_cast<double>(begin_idx);
      dur_us = static_cast<double>(i - begin_idx);
    } else {
      ts_us = (b.t_wall - t0) * 1e6;
      dur_us = (ev.t_wall - b.t_wall) * 1e6;
    }
    appendf(out,
            "%s  {\"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"name\": "
            "\"%s\", \"cat\": \"%s\", \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"party\": %d, \"depth\": %u, \"i\": %" PRIu64 "}}",
            first ? "" : ",\n", ev.party + 1, b.name, phase_name(b.phase),
            ts_us, dur_us, ev.party, b.depth, b.index);
    first = false;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace ppgr::runtime

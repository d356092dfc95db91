#include "runtime/comm.h"

#include <algorithm>
#include <cinttypes>

#include "runtime/json.h"

namespace ppgr::runtime {

std::uint64_t CommRegistry::total_bytes() const {
  std::uint64_t b = 0;
  for (const auto& f : flows_) b += f.bytes;
  return b;
}

std::vector<CommLink> CommRegistry::links() const {
  std::vector<CommLink> out;
  for (const auto& f : flows_) {
    CommLink* slot = nullptr;
    for (auto& l : out) {
      if (l.phase == f.phase && l.src == f.src && l.dst == f.dst) {
        slot = &l;
        break;
      }
    }
    if (slot == nullptr) {
      out.push_back(CommLink{f.phase, f.src, f.dst, 0, 0, 0.0});
      slot = &out.back();
    }
    ++slot->messages;
    slot->bytes += f.bytes;
    slot->tx_s += f.t.tx_s;
  }
  std::sort(out.begin(), out.end(), [](const CommLink& a, const CommLink& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
  return out;
}

std::string CommRegistry::to_json() const {
  const auto all_links = links();

  std::string out;
  out += "{\n  \"schema\": \"ppgr.comm.v1\",\n";
  appendf(out,
          "  \"rounds\": %zu,\n  \"messages\": %zu,\n"
          "  \"bytes\": %" PRIu64 ",\n  \"virtual_seconds\": %.9f,\n"
          "  \"phases\": [",
          rounds_, flows_.size(), total_bytes(), virtual_seconds_);

  bool first_phase = true;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    std::uint64_t pb = 0, pm = 0;
    for (const auto& f : flows_)
      if (f.phase == phase) {
        pb += f.bytes;
        ++pm;
      }
    if (pm == 0) continue;
    out += first_phase ? "\n" : ",\n";
    first_phase = false;
    appendf(out,
            "    {\"phase\": \"%s\", \"messages\": %" PRIu64
            ", \"bytes\": %" PRIu64 ", \"virtual_seconds\": %.9f, "
            "\"links\": [",
            phase_name(phase), pm, pb, phase_virtual_[p]);
    bool first_link = true;
    for (const auto& l : all_links) {
      if (l.phase != phase) continue;
      out += first_link ? "\n" : ",\n";
      first_link = false;
      appendf(out,
              "      {\"src\": %zu, \"dst\": %zu, \"messages\": %" PRIu64
              ", \"bytes\": %" PRIu64
              ", \"tx_seconds\": %.9f, \"utilization\": %.6f}",
              l.src, l.dst, l.messages, l.bytes, l.tx_s,
              phase_virtual_[p] > 0.0 ? l.tx_s / phase_virtual_[p] : 0.0);
    }
    out += "\n    ]}";
  }
  out += "\n  ],\n  \"flows\": [";

  bool first_flow = true;
  for (const auto& f : flows_) {
    out += first_flow ? "\n" : ",\n";
    first_flow = false;
    appendf(out,
            "    {\"phase\": \"%s\", \"round\": %zu, \"src\": %zu, "
            "\"dst\": %zu, \"bytes\": %zu, \"send_s\": %.9f, "
            "\"deliver_s\": %.9f, \"tx_s\": %.9f, \"prop_s\": %.9f, "
            "\"queue_s\": %.9f}",
            phase_name(f.phase), f.round, f.src, f.dst, f.bytes, f.t.send_s,
            f.t.deliver_s, f.t.tx_s, f.t.prop_s, f.t.queue_s);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string CommRegistry::chrome_trace_json() const {
  // One lane (tid) per party; tid = party + 1 matches the span exporter's
  // convention. pid 1 keeps the virtual-network timeline in its own process
  // group when loaded next to the compute spans (pid 0).
  std::size_t max_party = 0;
  for (const auto& f : flows_)
    max_party = std::max({max_party, f.src, f.dst});

  std::string out = "[\n";
  out +=
      "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"virtual network\"}}";
  for (std::size_t p = 0; p <= max_party; ++p) {
    appendf(out,
            ",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
            "\"thread_name\", \"args\": {\"name\": \"P%zu%s\"}}",
            p + 1, p, p == 0 ? " (initiator)" : "");
  }

  std::size_t seq = 0;
  for (const auto& f : flows_) {
    const double send_us = f.t.send_s * 1e6;
    const double deliver_us = f.t.deliver_s * 1e6;
    // The send slice spans the message's stay in the network; the receive
    // slice is a zero-ish marker at delivery. Flow arrows link the two.
    const double dur_us = std::max(deliver_us - send_us, 0.001);
    appendf(out,
            ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": "
            "%.3f, \"dur\": %.3f, \"name\": \"send %zu->%zu\", "
            "\"cat\": \"%s\", \"args\": {\"bytes\": %zu, \"round\": "
            "%zu}}",
            f.src + 1, send_us, dur_us, f.src, f.dst, phase_name(f.phase),
            f.bytes, f.round);
    appendf(out,
            ",\n  {\"ph\": \"s\", \"pid\": 1, \"tid\": %zu, \"ts\": "
            "%.3f, \"id\": %zu, \"name\": \"msg\", \"cat\": \"comm\"}",
            f.src + 1, send_us, seq);
    appendf(out,
            ",\n  {\"ph\": \"f\", \"bp\": \"e\", \"pid\": 1, \"tid\": "
            "%zu, \"ts\": %.3f, \"id\": %zu, \"name\": \"msg\", "
            "\"cat\": \"comm\"}",
            f.dst + 1, deliver_us, seq);
    appendf(out,
            ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": "
            "%.3f, \"dur\": 0.001, \"name\": \"recv %zu->%zu\", "
            "\"cat\": \"%s\", \"args\": {\"bytes\": %zu}}",
            f.dst + 1, deliver_us, f.src, f.dst, phase_name(f.phase),
            f.bytes);
    ++seq;
  }
  out += "\n]\n";
  return out;
}

}  // namespace ppgr::runtime

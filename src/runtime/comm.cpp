#include "runtime/comm.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

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

namespace {

void append_f(std::string& out, const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out += buf;
}

}  // namespace

std::string CommRegistry::to_json() const {
  const auto& all_flows = flows_;
  const auto all_links = links();
  const auto& phase_s = phase_virtual_;

  std::string out;
  out += "{\n  \"schema\": \"ppgr.comm.v1\",\n";
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  \"rounds\": %zu,\n  \"messages\": %zu,\n"
                "  \"bytes\": %" PRIu64 ",\n",
                rounds_, all_flows.size(), total_bytes());
  out += buf;
  out += "  \"virtual_seconds\": ";
  append_f(out, "%.9f", virtual_seconds_);
  out += ",\n  \"phases\": [";

  bool first_phase = true;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    std::uint64_t pb = 0, pm = 0;
    for (const auto& f : all_flows)
      if (f.phase == phase) {
        pb += f.bytes;
        ++pm;
      }
    if (pm == 0) continue;
    out += first_phase ? "\n" : ",\n";
    first_phase = false;
    std::snprintf(buf, sizeof(buf),
                  "    {\"phase\": \"%s\", \"messages\": %" PRIu64
                  ", \"bytes\": %" PRIu64 ", \"virtual_seconds\": ",
                  phase_name(phase), pm, pb);
    out += buf;
    append_f(out, "%.9f", phase_s[p]);
    out += ", \"links\": [";
    bool first_link = true;
    for (const auto& l : all_links) {
      if (l.phase != phase) continue;
      out += first_link ? "\n" : ",\n";
      first_link = false;
      std::snprintf(buf, sizeof(buf),
                    "      {\"src\": %zu, \"dst\": %zu, \"messages\": %" PRIu64
                    ", \"bytes\": %" PRIu64 ", \"tx_seconds\": ",
                    l.src, l.dst, l.messages, l.bytes);
      out += buf;
      append_f(out, "%.9f", l.tx_s);
      out += ", \"utilization\": ";
      append_f(out, "%.6f", phase_s[p] > 0.0 ? l.tx_s / phase_s[p] : 0.0);
      out += "}";
    }
    out += "\n    ]}";
  }
  out += "\n  ],\n  \"flows\": [";

  bool first_flow = true;
  for (const auto& f : all_flows) {
    out += first_flow ? "\n" : ",\n";
    first_flow = false;
    std::snprintf(buf, sizeof(buf),
                  "    {\"phase\": \"%s\", \"round\": %zu, \"src\": %zu, "
                  "\"dst\": %zu, \"bytes\": %zu, \"send_s\": ",
                  phase_name(f.phase), f.round, f.src, f.dst, f.bytes);
    out += buf;
    append_f(out, "%.9f", f.t.send_s);
    out += ", \"deliver_s\": ";
    append_f(out, "%.9f", f.t.deliver_s);
    out += ", \"tx_s\": ";
    append_f(out, "%.9f", f.t.tx_s);
    out += ", \"prop_s\": ";
    append_f(out, "%.9f", f.t.prop_s);
    out += ", \"queue_s\": ";
    append_f(out, "%.9f", f.t.queue_s);
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string CommRegistry::chrome_trace_json() const {
  const auto& all_flows = flows_;

  // One lane (tid) per party; tid = party + 1 matches the span exporter's
  // convention. pid 1 keeps the virtual-network timeline in its own process
  // group when loaded next to the compute spans (pid 0).
  std::size_t max_party = 0;
  for (const auto& f : all_flows)
    max_party = std::max({max_party, f.src, f.dst});

  std::string out = "[\n";
  char buf[256];
  out +=
      "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", "
      "\"args\": {\"name\": \"virtual network\"}}";
  for (std::size_t p = 0; p <= max_party; ++p) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": %zu, \"name\": "
                  "\"thread_name\", \"args\": {\"name\": \"%s\"}}",
                  p + 1, p == 0 ? "P0 (initiator)" : ("P" + std::to_string(p)).c_str());
    out += buf;
  }

  std::size_t seq = 0;
  for (const auto& f : all_flows) {
    const double send_us = f.t.send_s * 1e6;
    const double deliver_us = f.t.deliver_s * 1e6;
    // The send slice spans the message's stay in the network; the receive
    // slice is a zero-ish marker at delivery. Flow arrows link the two.
    const double dur_us = std::max(deliver_us - send_us, 0.001);
    std::snprintf(buf, sizeof(buf),
                  ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": "
                  "%.3f, \"dur\": %.3f, \"name\": \"send %zu->%zu\", "
                  "\"cat\": \"%s\", \"args\": {\"bytes\": %zu, \"round\": "
                  "%zu}}",
                  f.src + 1, send_us, dur_us, f.src, f.dst,
                  phase_name(f.phase), f.bytes, f.round);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\n  {\"ph\": \"s\", \"pid\": 1, \"tid\": %zu, \"ts\": "
                  "%.3f, \"id\": %zu, \"name\": \"msg\", \"cat\": \"comm\"}",
                  f.src + 1, send_us, seq);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\n  {\"ph\": \"f\", \"bp\": \"e\", \"pid\": 1, \"tid\": "
                  "%zu, \"ts\": %.3f, \"id\": %zu, \"name\": \"msg\", "
                  "\"cat\": \"comm\"}",
                  f.dst + 1, deliver_us, seq);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ",\n  {\"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": "
                  "%.3f, \"dur\": 0.001, \"name\": \"recv %zu->%zu\", "
                  "\"cat\": \"%s\", \"args\": {\"bytes\": %zu}}",
                  f.dst + 1, deliver_us, f.src, f.dst, phase_name(f.phase),
                  f.bytes);
    out += buf;
    ++seq;
  }
  out += "\n]\n";
  return out;
}

}  // namespace ppgr::runtime

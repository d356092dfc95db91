#include "runtime/comm.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace ppgr::runtime {

void CommRegistry::set_phase(Phase p) {
  const std::lock_guard<std::mutex> lock(mu_);
  phase_ = p;
}

Phase CommRegistry::phase() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return phase_;
}

void CommRegistry::record(std::size_t src, std::size_t dst,
                          std::size_t bytes) {
  if (src == dst) throw std::invalid_argument("CommRegistry: src == dst");
  const std::lock_guard<std::mutex> lock(mu_);
  flows_.push_back(FlowRecord{phase_, current_round_, src, dst, bytes, {}});
}

void CommRegistry::close_round(std::span<const FlowTiming> timings,
                               double round_seconds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t in_round = flows_.size() - round_begin_;
  if (timings.size() != in_round)
    throw std::invalid_argument("CommRegistry::close_round: timing mismatch");
  for (std::size_t i = 0; i < in_round; ++i) {
    FlowTiming t = timings[i];
    t.send_s += virtual_clock_;
    t.deliver_s += virtual_clock_;
    flows_[round_begin_ + i].t = t;
  }
  virtual_clock_ += round_seconds;
  phase_virtual_[static_cast<std::size_t>(phase_)] += round_seconds;
  ++closed_rounds_;
  ++current_round_;
  round_begin_ = flows_.size();
}

std::size_t CommRegistry::message_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return flows_.size();
}

std::uint64_t CommRegistry::total_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t b = 0;
  for (const auto& f : flows_) b += f.bytes;
  return b;
}

std::size_t CommRegistry::rounds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return closed_rounds_;
}

double CommRegistry::virtual_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return virtual_clock_;
}

double CommRegistry::phase_virtual_seconds(Phase p) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return phase_virtual_[static_cast<std::size_t>(p)];
}

std::vector<FlowRecord> CommRegistry::flows() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return flows_;
}

std::vector<CommLink> CommRegistry::links() const {
  std::vector<CommLink> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
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
  }
  std::sort(out.begin(), out.end(), [](const CommLink& a, const CommLink& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  });
  return out;
}

void CommRegistry::set_fault_counters(const FaultCounters& counters) {
  const std::lock_guard<std::mutex> lock(mu_);
  fault_counters_ = counters;
  has_fault_counters_ = true;
}

bool CommRegistry::has_fault_counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return has_fault_counters_;
}

FaultCounters CommRegistry::fault_counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fault_counters_;
}

bool CommRegistry::empty() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return flows_.empty();
}

void CommRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  flows_.clear();
  current_round_ = 0;
  round_begin_ = 0;
  closed_rounds_ = 0;
  virtual_clock_ = 0.0;
  phase_virtual_ = {};
  phase_ = Phase::kSetup;
  fault_counters_ = {};
  has_fault_counters_ = false;
}

namespace {

void append_f(std::string& out, const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  out += buf;
}

}  // namespace

std::string CommRegistry::to_json() const {
  const auto all_flows = flows();
  const auto all_links = links();
  std::array<double, kPhaseCount> phase_s{};
  double total_s = 0.0;
  std::size_t n_rounds = 0;
  FaultCounters fc{};
  bool has_fc = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    phase_s = phase_virtual_;
    total_s = virtual_clock_;
    n_rounds = closed_rounds_;
    fc = fault_counters_;
    has_fc = has_fault_counters_;
  }

  std::uint64_t total_bytes = 0;
  for (const auto& f : all_flows) total_bytes += f.bytes;

  std::string out;
  out += "{\n  \"schema\": \"ppgr.comm.v1\",\n";
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "  \"rounds\": %zu,\n  \"messages\": %zu,\n"
                "  \"bytes\": %" PRIu64 ",\n",
                n_rounds, all_flows.size(), total_bytes);
  out += buf;
  out += "  \"virtual_seconds\": ";
  append_f(out, "%.9f", total_s);
  // Only faulted runs carry the counters section; fault-free exports stay
  // byte-identical to the pre-fault-layer schema.
  if (has_fc) {
    std::snprintf(buf, sizeof(buf),
                  ",\n  \"faults\": {\n"
                  "    \"injected_drop\": %" PRIu64 ",\n"
                  "    \"injected_duplicate\": %" PRIu64 ",\n"
                  "    \"injected_reorder\": %" PRIu64 ",\n"
                  "    \"injected_corrupt\": %" PRIu64 ",\n",
                  fc.injected_drop, fc.injected_duplicate, fc.injected_reorder,
                  fc.injected_corrupt);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"injected_tamper\": %" PRIu64 ",\n"
                  "    \"injected_delay\": %" PRIu64 ",\n"
                  "    \"injected_crash\": %" PRIu64 ",\n"
                  "    \"retransmits\": %" PRIu64 ",\n",
                  fc.injected_tamper, fc.injected_delay, fc.injected_crash,
                  fc.retransmits);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "    \"crc_detected\": %" PRIu64 ",\n"
                  "    \"duplicates_dropped\": %" PRIu64 ",\n"
                  "    \"reorders_healed\": %" PRIu64 ",\n"
                  "    \"timeouts\": %" PRIu64 ",\n"
                  "    \"giveups\": %" PRIu64 "\n  }",
                  fc.crc_detected, fc.duplicates_dropped, fc.reorders_healed,
                  fc.timeouts, fc.giveups);
    out += buf;
  }
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
  const auto all_flows = flows();

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

#include "runtime/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "runtime/comm.h"
#include "runtime/span.h"

namespace ppgr::runtime {

namespace detail {
thread_local constinit MetricsBuffer* tl_sink = nullptr;
}  // namespace detail

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kSetup: return "setup";
    case Phase::kPhase1: return "phase1";
    case Phase::kPhase2: return "phase2";
    case Phase::kPhase3: return "phase3";
  }
  return "?";
}

const char* op_name(CryptoOp op) {
  switch (op) {
    case CryptoOp::kGroupMul: return "group_mul";
    case CryptoOp::kGroupExp: return "group_exp";
    case CryptoOp::kGroupExpG: return "group_exp_g";
    case CryptoOp::kGroupDualExp: return "group_dual_exp";
    case CryptoOp::kGroupInv: return "group_inv";
    case CryptoOp::kGroupSerialize: return "group_serialize";
    case CryptoOp::kGroupDeserialize: return "group_deserialize";
    case CryptoOp::kElGamalEncrypt: return "elgamal_encrypt";
    case CryptoOp::kElGamalDecrypt: return "elgamal_decrypt";
    case CryptoOp::kElGamalRerandomize: return "elgamal_rerandomize";
    case CryptoOp::kElGamalPartialDecrypt: return "elgamal_partial_decrypt";
    case CryptoOp::kElGamalExpRandomize: return "elgamal_exp_randomize";
    case CryptoOp::kPaillierEncrypt: return "paillier_encrypt";
    case CryptoOp::kPaillierDecrypt: return "paillier_decrypt";
    case CryptoOp::kPaillierAdd: return "paillier_add";
    case CryptoOp::kPaillierScale: return "paillier_scale";
    case CryptoOp::kPaillierRerandomize: return "paillier_rerandomize";
    case CryptoOp::kSchnorrProve: return "schnorr_prove";
    case CryptoOp::kSchnorrVerify: return "schnorr_verify";
    case CryptoOp::kDotprodQuery: return "dotprod_query";
    case CryptoOp::kDotprodAnswer: return "dotprod_answer";
    case CryptoOp::kDotprodFinish: return "dotprod_finish";
    case CryptoOp::kCompareCircuit: return "compare_circuit";
    case CryptoOp::kShuffleHop: return "shuffle_hop";
    case CryptoOp::kPrecomputeHit: return "precompute_hit";
    case CryptoOp::kPrecomputeMiss: return "precompute_miss";
    case CryptoOp::kAccelFixedBaseExp: return "accel_fixed_base_exp";
    case CryptoOp::kAccelBatchInverse: return "accel_batch_inverse";
  }
  return "?";
}

void MetricsBuffer::set_context(Phase phase, std::int32_t party) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].phase == phase && slots_[i].party == party) {
      active_ = i;
      return;
    }
  }
  slots_.push_back(Slot{.phase = phase, .party = party});
  active_ = slots_.size() - 1;
}

bool MetricsBuffer::empty() const {
  for (const auto& s : slots_)
    if (!s.tally.empty()) return false;
  for (const auto& h : hist_)
    if (h.count() != 0) return false;
  return true;
}

void MetricsBuffer::clear() {
  slots_.clear();
  active_ = kNoSlot;
  hist_ = {};
}

void MetricsRegistry::absorb(MetricsBuffer& buf) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : buf.slots()) {
      if (s.tally.empty()) continue;
      bool merged = false;
      for (auto& mine : slots_) {
        if (mine.phase == s.phase && mine.party == s.party) {
          mine.tally += s.tally;
          merged = true;
          break;
        }
      }
      if (!merged) slots_.push_back(s);
    }
    for (std::size_t i = 0; i < kOpCount; ++i)
      hist_[i].merge(buf.histograms()[i]);
  }
  buf.clear();
}

void MetricsRegistry::add(Phase phase, std::int32_t party, CryptoOp op,
                          std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : slots_) {
    if (s.phase == phase && s.party == party) {
      s.tally.v[static_cast<std::size_t>(op)] += delta;
      return;
    }
  }
  slots_.push_back(MetricsBuffer::Slot{.phase = phase, .party = party});
  slots_.back().tally.v[static_cast<std::size_t>(op)] += delta;
}

OpTally MetricsRegistry::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  OpTally t;
  for (const auto& s : slots_) t += s.tally;
  return t;
}

OpTally MetricsRegistry::phase_totals(Phase phase) const {
  const std::lock_guard<std::mutex> lock(mu_);
  OpTally t;
  for (const auto& s : slots_)
    if (s.phase == phase) t += s.tally;
  return t;
}

std::uint64_t MetricsRegistry::total(CryptoOp op) const {
  return totals()[op];
}

std::vector<MetricsBuffer::Slot> MetricsRegistry::slots() const {
  std::vector<MetricsBuffer::Slot> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = slots_;
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    return a.party < b.party;
  });
  return out;
}

LatencyHistogram MetricsRegistry::histogram(CryptoOp op) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hist_[static_cast<std::size_t>(op)];
}

bool MetricsRegistry::empty() const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : slots_)
    if (!s.tally.empty()) return false;
  for (const auto& h : hist_)
    if (h.count() != 0) return false;
  return true;
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  hist_ = {};
}

namespace {

void append_tally_json(std::string& out, const OpTally& t) {
  out += "{";
  bool first = true;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    if (t.v[i] == 0) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                  first ? "" : ", ", op_name(static_cast<CryptoOp>(i)),
                  t.v[i]);
    out += buf;
    first = false;
  }
  out += "}";
}

}  // namespace

std::string MetricsRegistry::to_json(bool include_timing) const {
  const auto sorted = slots();
  std::array<LatencyHistogram, kOpCount> hist;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    hist = hist_;
  }

  std::string out;
  out += "{\n  \"schema\": \"ppgr.metrics.v1\",\n";
  out += include_timing ? "  \"deterministic\": false,\n"
                        : "  \"deterministic\": true,\n";

  OpTally all;
  for (const auto& s : sorted) all += s.tally;
  out += "  \"totals\": ";
  append_tally_json(out, all);
  out += ",\n  \"phases\": [";

  bool first_phase = true;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    OpTally pt;
    bool any = false;
    for (const auto& s : sorted)
      if (s.phase == phase) {
        pt += s.tally;
        any = true;
      }
    if (!any) continue;
    out += first_phase ? "\n" : ",\n";
    first_phase = false;
    out += "    {\"phase\": \"";
    out += phase_name(phase);
    out += "\", \"totals\": ";
    append_tally_json(out, pt);
    out += ", \"parties\": [";
    bool first_party = true;
    for (const auto& s : sorted) {
      if (s.phase != phase) continue;
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%s\n      {\"party\": %d, \"ops\": ",
                    first_party ? "" : ",", s.party);
      out += buf;
      first_party = false;
      append_tally_json(out, s.tally);
      out += "}";
    }
    out += "\n    ]}";
  }
  out += "\n  ],\n  \"histograms\": [";

  bool first_hist = true;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const LatencyHistogram& h = hist[i];
    if (h.count() == 0) continue;
    out += first_hist ? "\n" : ",\n";
    first_hist = false;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "    {\"op\": \"%s\", \"count\": %" PRIu64,
                  op_name(static_cast<CryptoOp>(i)), h.count());
    out += buf;
    if (include_timing) {
      std::snprintf(buf, sizeof(buf), ", \"total_seconds\": %.9f, \"bins\": [",
                    h.total_seconds());
      out += buf;
      bool first_bin = true;
      for (std::size_t b = 0; b < LatencyHistogram::kBins; ++b) {
        if (h.bins()[b] == 0) continue;
        std::snprintf(buf, sizeof(buf), "%s{\"ge_ns\": %" PRIu64
                      ", \"n\": %" PRIu64 "}",
                      first_bin ? "" : ", ", LatencyHistogram::bin_floor_ns(b),
                      h.bins()[b]);
        out += buf;
        first_bin = false;
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string phase_report(const MetricsRegistry& reg,
                         const SpanRecorder* spans,
                         const CommRegistry* comm) {
  std::array<double, kPhaseCount> wall{};
  if (spans != nullptr) wall = spans->phase_wall_seconds();

  const auto fmt_row = [](const char* phase, const char* wall_s,
                          const OpTally& t) {
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "%-8s %10s %10" PRIu64 " %10" PRIu64 " %10" PRIu64 " %10" PRIu64
        " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
        " %8" PRIu64 "\n",
        phase, wall_s, t[CryptoOp::kGroupExp], t[CryptoOp::kGroupExpG],
        t[CryptoOp::kGroupDualExp], t[CryptoOp::kGroupMul],
        t[CryptoOp::kGroupInv],
        t[CryptoOp::kElGamalEncrypt], t[CryptoOp::kElGamalDecrypt],
        t[CryptoOp::kSchnorrProve] + t[CryptoOp::kSchnorrVerify],
        t[CryptoOp::kCompareCircuit], t[CryptoOp::kShuffleHop]);
    return std::string{buf};
  };

  std::string out;
  out += "per-phase crypto-op breakdown (counts summed over parties)\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%-8s %10s %10s %10s %10s %10s %8s %8s %8s %8s %8s %8s\n",
                  "phase", "wall[s]", "exp", "exp_g", "dual_exp", "mul", "inv",
                  "enc", "dec", "schnorr", "compare", "shuffle");
    out += buf;
    out += std::string(std::string_view{buf}.size() - 1, '-') + "\n";
  }
  OpTally all;
  double wall_total = 0.0;
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto phase = static_cast<Phase>(p);
    const OpTally t = reg.phase_totals(phase);
    if (t.empty() && wall[p] == 0.0) continue;
    all += t;
    wall_total += wall[p];
    char ws[32];
    if (spans != nullptr) {
      std::snprintf(ws, sizeof(ws), "%.3f", wall[p]);
    } else {
      std::snprintf(ws, sizeof(ws), "-");
    }
    out += fmt_row(phase_name(phase), ws, t);
  }
  char ws[32];
  if (spans != nullptr) {
    std::snprintf(ws, sizeof(ws), "%.3f", wall_total);
  } else {
    std::snprintf(ws, sizeof(ws), "-");
  }
  out += fmt_row("total", ws, all);

  // Latency summary for the ops that carry histograms.
  bool header_done = false;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const LatencyHistogram h = reg.histogram(static_cast<CryptoOp>(i));
    if (h.count() == 0) continue;
    if (!header_done) {
      out += "\nop latency (wall-clock, nondeterministic)\n";
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%-24s %12s %14s\n", "op", "count",
                    "mean");
      out += buf;
      header_done = true;
    }
    const double mean_us =
        h.total_seconds() / static_cast<double>(h.count()) * 1e6;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%-24s %12" PRIu64 " %11.1f us\n",
                  op_name(static_cast<CryptoOp>(i)), h.count(), mean_us);
    out += buf;
  }

  if (comm != nullptr && !comm->empty()) {
    const std::vector<CommLink> links = comm->links();
    // Per-phase summary first: messages, exact serialized bytes, and the
    // phase's virtual network time.
    out += "\ncommunication (measured on the wire, simulated network time)\n";
    {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%-8s %10s %12s %12s\n", "phase",
                    "messages", "bytes", "net[s]");
      out += buf;
      out += std::string(std::string_view{buf}.size() - 1, '-') + "\n";
    }
    std::array<std::uint64_t, kPhaseCount> msgs{};
    std::array<std::uint64_t, kPhaseCount> bytes{};
    for (const CommLink& lk : links) {
      msgs[static_cast<std::size_t>(lk.phase)] += lk.messages;
      bytes[static_cast<std::size_t>(lk.phase)] += lk.bytes;
    }
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      const auto phase = static_cast<Phase>(p);
      if (msgs[p] == 0 && comm->phase_virtual_seconds(phase) == 0.0) continue;
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%-8s %10" PRIu64 " %12" PRIu64 " %12.6f\n",
                    phase_name(phase), msgs[p], bytes[p],
                    comm->phase_virtual_seconds(phase));
      out += buf;
    }
    {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "%-8s %10zu %12" PRIu64 " %12.6f\n", "total",
                    comm->message_count(), comm->total_bytes(),
                    comm->virtual_seconds());
      out += buf;
    }

    // Per-link breakdown: utilization is the link's summed transmission
    // time over its phase's virtual duration (how busy the simulator kept
    // that direction of the link).
    out += "\nper-link breakdown (util = tx seconds / phase net seconds)\n";
    {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%-8s %9s %10s %12s %12s %8s\n",
                    "phase", "link", "messages", "bytes", "tx[s]", "util");
      out += buf;
      out += std::string(std::string_view{buf}.size() - 1, '-') + "\n";
    }
    for (const CommLink& lk : links) {
      const double phase_s = comm->phase_virtual_seconds(lk.phase);
      char link[32];
      std::snprintf(link, sizeof(link), "%zu->%zu", lk.src, lk.dst);
      char buf[160];
      if (phase_s > 0.0) {
        std::snprintf(buf, sizeof(buf),
                      "%-8s %9s %10" PRIu64 " %12" PRIu64 " %12.6f %7.1f%%\n",
                      phase_name(lk.phase), link, lk.messages, lk.bytes,
                      lk.tx_s, 100.0 * lk.tx_s / phase_s);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "%-8s %9s %10" PRIu64 " %12" PRIu64 " %12.6f %8s\n",
                      phase_name(lk.phase), link, lk.messages, lk.bytes,
                      lk.tx_s, "-");
      }
      out += buf;
    }
  }
  return out;
}

}  // namespace ppgr::runtime

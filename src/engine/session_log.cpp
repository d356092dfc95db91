#include "engine/session_log.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "runtime/json.h"

namespace ppgr::engine {

namespace {

using runtime::append_json_string;
using runtime::appendf;

std::uint64_t retry_count(const SessionResult& res) {
  // A completed faulted-plan run carries its fault report; a run that
  // aborted lost its result, but the report travelled out with the
  // exception.
  const core::FrameworkResult& run =
      res.framework == FrameworkKind::kHe ? res.he : res.ss;
  if (run.faults.has_value()) return run.faults->stats.retransmits;
  if (res.fault_report.has_value()) return res.fault_report->stats.retransmits;
  return 0;
}

}  // namespace

std::string session_wide_event_json(const SessionResult& res) {
  std::string out;
  out += "{\"schema\": \"ppgr.session.v1\"";
  appendf(out, ", \"id\": %llu", static_cast<unsigned long long>(res.id));
  appendf(out, ", \"framework\": \"%s\"", to_string(res.framework));
  out += ", \"group\": ";
  append_json_string(out, group::to_string(res.group));
  appendf(out, ", \"n\": %zu, \"k\": %zu", res.n, res.k);
  appendf(out, ", \"outcome\": \"%s\"", to_string(res.outcome));
  appendf(out, ", \"wall_seconds\": %.6f, \"setup_seconds\": %.6f",
          res.wall_seconds, res.setup_seconds);
  // Per-phase breakdown: crypto-op totals from the metrics registry,
  // message/byte totals from the comm links (both absent on faulted runs —
  // the registries unwound with the stack).
  out += ", \"phases\": [";
  const runtime::MetricsRegistry* metrics = res.metrics();
  const runtime::CommRegistry* comm = res.comm();
  std::array<std::uint64_t, runtime::kPhaseCount> msgs{};
  std::array<std::uint64_t, runtime::kPhaseCount> bytes{};
  if (comm != nullptr) {
    for (const runtime::CommLink& l : comm->links()) {
      const auto p = static_cast<std::size_t>(l.phase);
      msgs[p] += l.messages;
      bytes[p] += l.bytes;
    }
  }
  bool first = true;
  for (std::size_t p = 0; p < runtime::kPhaseCount; ++p) {
    std::uint64_t ops = 0;
    if (metrics != nullptr) {
      const runtime::OpTally t =
          metrics->phase_totals(static_cast<runtime::Phase>(p));
      for (const std::uint64_t v : t.v) ops += v;
    }
    if (ops == 0 && msgs[p] == 0 && bytes[p] == 0) continue;
    appendf(out, "%s{\"phase\": \"%s\", \"ops\": %llu, ", first ? "" : ", ",
            runtime::phase_name(static_cast<runtime::Phase>(p)),
            static_cast<unsigned long long>(ops));
    appendf(out, "\"messages\": %llu, \"bytes\": %llu}",
            static_cast<unsigned long long>(msgs[p]),
            static_cast<unsigned long long>(bytes[p]));
    first = false;
  }
  out += "]";
  appendf(out, ", \"rounds\": %zu", res.trace().rounds());
  appendf(out, ", \"retries\": %llu",
          static_cast<unsigned long long>(retry_count(res)));
  out += ", \"cache\": ";
  res.precompute.total().append_json(out);
  out += ", \"submitted_ids\": ";
  runtime::append_index_list(out, res.submitted_ids());
  if (res.audit != nullptr) {
    out += ", \"audit\": ";
    res.audit->append_summary_json(out);
  }
  if (res.fault.has_value()) {
    out += ", \"fault\": ";
    append_fault_json(out, *res.fault);
  }
  out += "}";
  return out;
}

std::string postmortem_json(const SessionResult& res,
                            const std::string& snapshot_jsonl) {
  std::string out;
  out += "{\n  \"schema\": \"ppgr.postmortem.v1\",\n";
  appendf(out, "  \"id\": %llu,\n", static_cast<unsigned long long>(res.id));
  out += "  \"what\": ";
  append_json_string(out, res.fault_what);
  out += ",\n  \"event\": ";
  out += session_wide_event_json(res);
  out += ",\n  \"fault_report\": ";
  out += res.fault_report.has_value() ? res.fault_report->to_json()
                                      : std::string("null");
  out += ",\n  \"audit\": ";
  out += res.audit != nullptr ? res.audit->to_json() : std::string("null");
  out += ",\n  \"snapshot\": ";
  if (snapshot_jsonl.empty())
    out += "null";
  else
    out += snapshot_jsonl;
  out += "\n}\n";
  return out;
}

std::string write_postmortem(const std::string& dir, const SessionResult& res,
                             const std::string& snapshot_jsonl,
                             std::string* err) {
  const std::string path =
      dir + "/session-" + std::to_string(res.id) + ".postmortem.json";
  const std::string tmp = path + ".tmp";
  const std::string doc = postmortem_json(res, snapshot_jsonl);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    if (err != nullptr)
      *err = "cannot open " + tmp + ": " + std::strerror(errno);
    return "";
  }
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (err != nullptr) *err = "cannot write " + path;
    std::remove(tmp.c_str());
    return "";
  }
  return path;
}

}  // namespace ppgr::engine

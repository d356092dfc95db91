#include "engine/session_log.h"

#include <array>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace ppgr::engine {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      appendf(out, "\\u%04x", static_cast<unsigned>(c));
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

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

std::string session_wide_event_json(const SessionResult& res,
                                    const SessionLogInfo& info) {
  std::string out;
  out += "{\"schema\": \"ppgr.session.v1\"";
  appendf(out, ", \"id\": %llu", static_cast<unsigned long long>(res.id));
  appendf(out, ", \"framework\": \"%s\"", to_string(res.framework));
  out += ", \"group\": ";
  append_escaped(out, info.group_name);
  appendf(out, ", \"n\": %zu, \"k\": %zu", info.n, info.k);
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
  const CacheCounters cache = res.precompute.total();
  appendf(out, ", \"cache\": {\"hits\": %llu, \"misses\": %llu}",
          static_cast<unsigned long long>(cache.hits),
          static_cast<unsigned long long>(cache.misses));
  out += ", \"submitted_ids\": [";
  const std::vector<std::size_t>& ids = res.submitted_ids();
  for (std::size_t i = 0; i < ids.size(); ++i)
    appendf(out, "%s%zu", i == 0 ? "" : ", ", ids[i]);
  out += "]";
  if (res.audit != nullptr)
    appendf(out,
            ", \"audit\": {\"checks\": %zu, \"findings\": %zu, "
            "\"verdict\": \"%s\"}",
            res.audit->checks, res.audit->findings.size(),
            res.audit->verdict());
  if (res.flight != nullptr)
    appendf(out, ", \"flight\": {\"recorded\": %llu, \"dropped\": %llu}",
            static_cast<unsigned long long>(res.flight->recorded()),
            static_cast<unsigned long long>(res.flight->dropped()));
  if (res.fault.has_value()) {
    const core::FaultInfo& f = *res.fault;
    appendf(out, ", \"fault\": {\"phase\": \"%s\", \"round\": %zu, ",
            runtime::phase_name(f.phase), f.round);
    appendf(out, "\"party\": %lld, \"cause\": ",
            f.party == core::kNoParty ? -1LL
                                      : static_cast<long long>(f.party));
    append_escaped(out, f.cause);
    out += "}";
  }
  out += "}";
  return out;
}

std::string postmortem_json(const SessionResult& res,
                            const SessionLogInfo& info,
                            const std::string& snapshot_jsonl) {
  std::string out;
  out += "{\n  \"schema\": \"ppgr.postmortem.v1\",\n";
  appendf(out, "  \"id\": %llu,\n", static_cast<unsigned long long>(res.id));
  out += "  \"what\": ";
  append_escaped(out, res.fault_what);
  out += ",\n  \"event\": ";
  out += session_wide_event_json(res, info);
  out += ",\n  \"flight\": ";
  out += res.flight != nullptr ? res.flight->to_json() : std::string("null");
  out += ",\n  \"fault_report\": ";
  out += res.fault_report.has_value() ? res.fault_report->to_json()
                                      : std::string("null");
  out += ",\n  \"snapshot\": ";
  if (snapshot_jsonl.empty())
    out += "null";
  else
    out += snapshot_jsonl;
  out += "\n}\n";
  return out;
}

std::string write_postmortem(const std::string& dir, const SessionResult& res,
                             const SessionLogInfo& info,
                             const std::string& snapshot_jsonl,
                             std::string* err) {
  const std::string path =
      dir + "/session-" + std::to_string(res.id) + ".postmortem.json";
  const std::string tmp = path + ".tmp";
  const std::string doc = postmortem_json(res, info, snapshot_jsonl);
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

#include "engine/introspect.h"

#include <algorithm>
#include <limits>

#include "runtime/json.h"

namespace ppgr::engine {

namespace {

using runtime::appendf;
using runtime::HealthState;
using runtime::LatencyHistogram;
using runtime::OpenMetricsBuilder;

// The JSONL latency block for one kind: histogram-derived quantiles (one
// binade of resolution — a live readout, not the deterministic rollup).
void append_kind_latency(std::string& out, const char* kind,
                         const KindLatency& lat, bool first) {
  appendf(out, "%s\"%s\": {\"completed\": %llu, ", first ? "" : ", ", kind,
          static_cast<unsigned long long>(lat.queue_wait.count()));
  appendf(out, "\"queue_wait_p50_seconds\": %.9g, ",
          runtime::latency_quantile_seconds(lat.queue_wait, 0.50));
  appendf(out, "\"queue_wait_p99_seconds\": %.9g, ",
          runtime::latency_quantile_seconds(lat.queue_wait, 0.99));
  appendf(out, "\"run_duration_p50_seconds\": %.9g, ",
          runtime::latency_quantile_seconds(lat.run_duration, 0.50));
  appendf(out, "\"run_duration_p99_seconds\": %.9g}",
          runtime::latency_quantile_seconds(lat.run_duration, 0.99));
}

}  // namespace

EngineSnapshot snapshot(SessionEngine& engine, double stall_deadline_s) {
  EngineSnapshot out;
  out.stall_deadline_s = stall_deadline_s;
  {
    const std::lock_guard<std::mutex> lock(engine.mu_);
    // Read under mu_, like every live session's start_s, so no start_s can
    // postdate `now` and running_for_s never goes negative.
    const double now = runtime::metrics_now_seconds();
    out.uptime_s = now - engine.born_s_;
    out.queued = engine.queue_.size();
    out.in_flight = engine.active_;
    out.completed = engine.summaries_.size() + engine.failed_.size();
    out.faulted = engine.faulted_done_;
    out.audit_drift = engine.audit_drift_done_;
    out.stalls_total = engine.stalls_total_;
    const CacheCounters cache = engine.totals_.total();
    out.cache_hits = cache.hits;
    out.cache_misses = cache.misses;
    for (std::size_t kind = 0; kind < 2; ++kind) {
      out.latency[kind].queue_wait = engine.queue_wait_hist_[kind];
      out.latency[kind].run_duration = engine.run_hist_[kind];
    }
    out.sessions.reserve(engine.live_.size());
    for (const auto& [sid, live] : engine.live_) {
      const runtime::ProgressCell::View v = live->progress.view();
      SessionTelemetry st;
      st.id = sid;
      st.framework = live->framework;
      st.n = live->n;
      st.k = live->k;
      st.phase = v.phase;
      st.round = v.round;
      st.queued_for_s = live->start_s - live->submit_s;
      st.running_for_s = now - live->start_s;
      st.since_advance_s = std::max(0.0, now - v.last_advance_s);
      st.stalled = st.since_advance_s >= stall_deadline_s;
      if (st.stalled) live->stalls.fetch_add(1, std::memory_order_relaxed);
      st.stalls = live->stalls.load(std::memory_order_relaxed);
      out.stalls_total += st.stalls;
      out.sessions.push_back(st);
    }
  }

  // Confirmed conformance drift is as alarming as a faulted session: the
  // engine is producing numbers its own model contradicts.
  HealthState health = out.faulted != 0 || out.audit_drift != 0
                           ? HealthState::kDegraded
                           : HealthState::kOk;
  for (const auto& st : out.sessions)
    if (st.stalled) health = runtime::worse(health, HealthState::kStalled);
  out.health = health;
  return out;
}

std::string EngineSnapshot::to_jsonl() const {
  std::string out;
  out += "{\"schema\": \"ppgr.telemetry.v1\"";
  appendf(out, ", \"uptime_seconds\": %.6f", uptime_s);
  appendf(out, ", \"health\": \"%s\"", runtime::to_string(health));
  appendf(out, ", \"queued\": %zu, \"in_flight\": %zu", queued, in_flight);
  appendf(out, ", \"completed\": %zu, \"faulted\": %zu", completed, faulted);
  appendf(out, ", \"audit_drift\": %zu", audit_drift);
  appendf(out, ", \"stalls\": %llu",
          static_cast<unsigned long long>(stalls_total));
  out += ", \"cache\": ";
  CacheCounters{cache_hits, cache_misses}.append_json(out);
  out += ", \"latency\": {";
  bool first = true;
  for (std::size_t kind = 0; kind < 2; ++kind) {
    if (latency[kind].queue_wait.count() == 0) continue;
    append_kind_latency(out, to_string(static_cast<FrameworkKind>(kind)),
                        latency[kind], first);
    first = false;
  }
  out += "}, \"sessions\": [";
  first = true;
  for (const auto& st : sessions) {
    appendf(out, "%s{\"id\": %llu, \"framework\": \"%s\", \"n\": %zu, "
                 "\"k\": %zu",
            first ? "" : ", ", static_cast<unsigned long long>(st.id),
            to_string(st.framework), st.n, st.k);
    appendf(out, ", \"phase\": \"%s\", \"round\": %zu",
            runtime::phase_name(st.phase), st.round);
    appendf(out, ", \"queued_seconds\": %.6f, \"running_seconds\": %.6f",
            st.queued_for_s, st.running_for_s);
    appendf(out, ", \"since_advance_seconds\": %.6f, \"stalled\": %s, "
                 "\"stalls\": %llu}",
            st.since_advance_s, st.stalled ? "true" : "false",
            static_cast<unsigned long long>(st.stalls));
    first = false;
  }
  out += "]}";
  return out;
}

std::string EngineSnapshot::to_openmetrics() const {
  OpenMetricsBuilder om;
  om.family("ppgr_engine_uptime_seconds", "gauge",
            "Seconds since the engine was constructed");
  om.sample("ppgr_engine_uptime_seconds", "", uptime_s);
  om.family("ppgr_engine_health", "gauge",
            "Watchdog verdict: 0=ok 1=degraded 2=stalled");
  om.sample("ppgr_engine_health", "",
            static_cast<std::uint64_t>(static_cast<std::uint8_t>(health)));
  om.family("ppgr_engine_sessions", "gauge",
            "Sessions by lifecycle state");
  om.sample("ppgr_engine_sessions", "state=\"queued\"",
            static_cast<std::uint64_t>(queued));
  om.sample("ppgr_engine_sessions", "state=\"in_flight\"",
            static_cast<std::uint64_t>(in_flight));
  om.family("ppgr_engine_sessions_completed_total", "counter",
            "Completed sessions by outcome");
  om.sample("ppgr_engine_sessions_completed_total", "outcome=\"ok\"",
            static_cast<std::uint64_t>(completed - faulted));
  om.sample("ppgr_engine_sessions_completed_total", "outcome=\"fault\"",
            static_cast<std::uint64_t>(faulted));
  om.family("ppgr_engine_precompute_total", "counter",
            "Shared precompute cache interactions");
  om.sample("ppgr_engine_precompute_total", "result=\"hit\"", cache_hits);
  om.sample("ppgr_engine_precompute_total", "result=\"miss\"", cache_misses);
  om.family("ppgr_engine_stalls_total", "counter",
            "Watchdog stall observations across all sessions");
  om.sample("ppgr_engine_stalls_total", "", stalls_total);
  // OpenMetrics requires every family's samples to be contiguous after its
  // TYPE line — one loop per family, never interleaved.
  const auto kind_label = [](std::size_t kind) {
    return std::string("kind=\"") +
           to_string(static_cast<FrameworkKind>(kind)) + "\"";
  };
  om.family("ppgr_engine_queue_wait_seconds", "histogram",
            "Submit-to-claim wait of completed sessions");
  for (std::size_t kind = 0; kind < 2; ++kind)
    if (latency[kind].queue_wait.count() != 0)
      om.histogram("ppgr_engine_queue_wait_seconds", kind_label(kind),
                   latency[kind].queue_wait);
  om.family("ppgr_engine_run_duration_seconds", "histogram",
            "Claim-to-completion duration of completed sessions");
  for (std::size_t kind = 0; kind < 2; ++kind)
    if (latency[kind].run_duration.count() != 0)
      om.histogram("ppgr_engine_run_duration_seconds", kind_label(kind),
                   latency[kind].run_duration);
  if (!sessions.empty()) {
    const auto session_label = [](const SessionTelemetry& st) {
      return "session=\"" + std::to_string(st.id) + "\",kind=\"" +
             to_string(st.framework) + "\"";
    };
    om.family("ppgr_session_round", "gauge",
              "Closed protocol rounds of an in-flight session");
    for (const auto& st : sessions)
      om.sample("ppgr_session_round",
                session_label(st) + ",phase=\"" +
                    runtime::phase_name(st.phase) + "\"",
                static_cast<std::uint64_t>(st.round));
    om.family("ppgr_session_since_advance_seconds", "gauge",
              "Seconds since an in-flight session last advanced");
    for (const auto& st : sessions)
      om.sample("ppgr_session_since_advance_seconds", session_label(st),
                st.since_advance_s);
    om.family("ppgr_session_stalled", "gauge",
              "1 when the watchdog flags the session as stalled");
    for (const auto& st : sessions)
      om.sample("ppgr_session_stalled", session_label(st),
                static_cast<std::uint64_t>(st.stalled ? 1 : 0));
  }
  return om.render();
}

std::string stitched_trace_json(
    const std::vector<const SessionResult*>& results) {
  // All sessions stamp spans with the same steady clock
  // (runtime::metrics_now_seconds), so one shared origin — the earliest
  // event anywhere — aligns the timelines exactly.
  double t0 = std::numeric_limits<double>::infinity();
  for (const SessionResult* r : results) {
    if (r == nullptr) continue;
    const runtime::SpanRecorder* spans = r->spans();
    if (spans == nullptr) continue;
    for (const auto& ev : spans->events()) t0 = std::min(t0, ev.t_wall);
  }

  std::string out = "[\n";
  bool first = true;
  for (const SessionResult* r : results) {
    if (r == nullptr) continue;
    const runtime::SpanRecorder* spans = r->spans();
    if (spans == nullptr || spans->events().empty()) continue;
    const auto pid = static_cast<unsigned long long>(r->id);

    appendf(out,
            "%s  {\"ph\": \"M\", \"pid\": %llu, \"tid\": 0, \"name\": "
            "\"process_name\", \"args\": {\"name\": \"session %llu (%s)\"}}",
            first ? "" : ",\n", pid, pid, to_string(r->framework));
    first = false;

    // One lane per party: tid 0 = orchestrator, tid p+1 = party p.
    std::int32_t max_party = -1;
    for (const auto& ev : spans->events())
      max_party = std::max(max_party, ev.party);
    appendf(out,
            ",\n  {\"ph\": \"M\", \"pid\": %llu, \"tid\": 0, \"name\": "
            "\"thread_name\", \"args\": {\"name\": \"orchestrator\"}}",
            pid);
    for (std::int32_t p = 0; p <= max_party; ++p)
      appendf(out,
              ",\n  {\"ph\": \"M\", \"pid\": %llu, \"tid\": %d, \"name\": "
              "\"thread_name\", \"args\": {\"name\": \"P%d\"}}",
              pid, p + 1, p);

    for (const auto& ev : spans->events()) {
      const int tid = ev.party < 0 ? 0 : ev.party + 1;
      const double ts_us = (ev.t_wall - t0) * 1e6;
      if (ev.begin) {
        appendf(out,
                ",\n  {\"ph\": \"B\", \"pid\": %llu, \"tid\": %d, "
                "\"ts\": %.3f, \"name\": \"%s\", \"args\": {\"phase\": "
                "\"%s\", \"index\": %llu}}",
                pid, tid, ts_us, ev.name, runtime::phase_name(ev.phase),
                static_cast<unsigned long long>(ev.index));
      } else {
        appendf(out,
                ",\n  {\"ph\": \"E\", \"pid\": %llu, \"tid\": %d, "
                "\"ts\": %.3f, \"name\": \"%s\"}",
                pid, tid, ts_us, ev.name);
      }
    }
  }
  out += "\n]\n";
  return out;
}

EngineSampler::EngineSampler(SessionEngine& engine, Config cfg)
    : sampler_(
          runtime::TelemetrySampler::Config{cfg.period_s, cfg.jsonl_path,
                                            cfg.openmetrics_path},
          [&engine, deadline = cfg.stall_deadline_s] {
            const EngineSnapshot s = snapshot(engine, deadline);
            return runtime::TelemetrySample{s.to_jsonl(), s.to_openmetrics()};
          }) {}

}  // namespace ppgr::engine

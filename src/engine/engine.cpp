#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>
#include <vector>

namespace ppgr::engine {

namespace {

using runtime::CryptoOp;
using runtime::Phase;

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void append_index_list(std::string& out, const std::vector<std::size_t>& v) {
  out.push_back('[');
  for (std::size_t i = 0; i < v.size(); ++i)
    appendf(out, "%s%zu", i == 0 ? "" : ", ", v[i]);
  out.push_back(']');
}

// Nonzero ops only, like MetricsRegistry::to_json — adding CryptoOp values
// later cannot disturb existing goldens.
void append_ops(std::string& out, const runtime::OpTally& t) {
  out.push_back('{');
  bool first = true;
  for (std::size_t i = 0; i < runtime::kOpCount; ++i) {
    if (t.v[i] == 0) continue;
    appendf(out, "%s\"%s\": %llu", first ? "" : ", ",
            runtime::op_name(static_cast<CryptoOp>(i)),
            static_cast<unsigned long long>(t.v[i]));
    first = false;
  }
  out.push_back('}');
}

void append_counters(std::string& out, const CacheCounters& c) {
  appendf(out, "{\"hits\": %llu, \"misses\": %llu}",
          static_cast<unsigned long long>(c.hits),
          static_cast<unsigned long long>(c.misses));
}

// Nearest-rank quantile over an unsorted sample set (sorts in place; the
// estimator itself is the shared one in runtime/histogram.h).
double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  return runtime::sample_quantile_seconds(v, q);
}

// Fault causes embed channel-error text; escape the JSON specials so the
// rollup stays well-formed whatever the message contains.
void append_json_string(std::string& out, const std::string& s) {
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

// Per-session PrecomputeSource: forwards run_framework's generator-table
// request to the engine's cache, accounting this session's hit or miss and
// the wall time spent fetching or building.
class SessionSource final : public core::PrecomputeSource {
 public:
  explicit SessionSource(PrecomputeCache& cache) : cache_(cache) {}

  [[nodiscard]] std::shared_ptr<const group::FixedBaseTable> generator_table(
      const group::Group& base) override {
    const double t0 = runtime::metrics_now_seconds();
    auto r = cache_.generator_table(base);
    ++(r.built ? stats_.generator_table.misses : stats_.generator_table.hits);
    setup_seconds_ += runtime::metrics_now_seconds() - t0;
    return r.table;
  }

  [[nodiscard]] const PrecomputeStats& stats() const { return stats_; }
  [[nodiscard]] double setup_seconds() const { return setup_seconds_; }

 private:
  PrecomputeCache& cache_;
  PrecomputeStats stats_;
  double setup_seconds_ = 0.0;
};

}  // namespace

const char* to_string(FrameworkKind kind) {
  return kind == FrameworkKind::kHe ? "he" : "ss";
}

const char* to_string(SessionOutcome outcome) {
  return outcome == SessionOutcome::kOk ? "ok" : "fault";
}

const char* to_string(EngineErrorCode code) {
  switch (code) {
    case EngineErrorCode::kInvalidSpec: return "invalid_spec";
    case EngineErrorCode::kInvalidTopology: return "invalid_topology";
    case EngineErrorCode::kInvalidInput: return "invalid_input";
    case EngineErrorCode::kInvalidThreshold: return "invalid_threshold";
    case EngineErrorCode::kDuplicateSession: return "duplicate_session";
    case EngineErrorCode::kUnknownSession: return "unknown_session";
  }
  return "?";
}

SessionEngine::SessionEngine(EngineConfig cfg)
    : cfg_(cfg),
      cache_(cfg_.cache != nullptr ? *cfg_.cache : process_precompute_cache()),
      root_(cfg_.seed),
      session_family_(root_),
      pool_(cfg_.parallelism) {
  if (cfg_.max_in_flight < 1)
    throw std::invalid_argument("SessionEngine: max_in_flight must be >= 1");
  drivers_.reserve(cfg_.max_in_flight);
  for (std::size_t i = 0; i < cfg_.max_in_flight; ++i)
    drivers_.emplace_back([this] { driver_loop(); });
}

SessionEngine::~SessionEngine() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : drivers_) t.join();
}

void SessionEngine::validate(const RankingRequest& req) const {
  // Every rejection names the session so batch callers can attribute it.
  const std::string who = "session " + std::to_string(req.session_id);
  try {
    req.spec.validate();
  } catch (const std::exception& e) {
    throw EngineError(EngineErrorCode::kInvalidSpec, who + ": " + e.what());
  }
  const std::size_t n = req.infos.size();
  if (n < 2)
    throw EngineError(EngineErrorCode::kInvalidTopology,
                      "session " + std::to_string(req.session_id) +
                          ": need n >= 2 participants, got " +
                          std::to_string(n));
  if (req.k < 1 || req.k > n)
    throw EngineError(EngineErrorCode::kInvalidTopology,
                      "session " + std::to_string(req.session_id) + ": k=" +
                          std::to_string(req.k) + " outside [1, n=" +
                          std::to_string(n) + "]");
  try {
    req.spec.check_attributes(req.v0);
    req.spec.check_weights(req.w);
    for (const auto& v : req.infos) req.spec.check_attributes(v);
  } catch (const std::exception& e) {
    throw EngineError(EngineErrorCode::kInvalidInput, who + ": " + e.what());
  }
  if (req.spec.beta_bits() + 2 > core::default_dot_field().bits())
    throw EngineError(
        EngineErrorCode::kInvalidSpec,
        who + ": spec beta range exceeds the phase-1 dot-product field");
  if (req.framework == FrameworkKind::kSs) {
    const std::size_t t =
        req.ss_threshold != 0 ? req.ss_threshold : (n >= 3 ? (n - 1) / 2 : 0);
    if (t < 1 || n < 2 * t + 1)
      throw EngineError(EngineErrorCode::kInvalidThreshold,
                        "session " + std::to_string(req.session_id) +
                            ": SS threshold t=" + std::to_string(t) +
                            " needs n >= 2t+1 (n=" + std::to_string(n) + ")");
  }
}

std::uint64_t SessionEngine::submit(RankingRequest req) {
  validate(req);
  const std::uint64_t sid = req.session_id;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_)
      throw std::logic_error("SessionEngine: submit after shutdown");
    if (!known_ids_.insert(sid).second)
      throw EngineError(EngineErrorCode::kDuplicateSession,
                        "session " + std::to_string(sid) +
                            ": duplicate session id");
    if (req.fault_plan.enabled() || req.degrade_on_dropout)
      fault_aware_ = true;
    queue_.push_back(Queued{std::move(req), runtime::metrics_now_seconds()});
  }
  work_cv_.notify_one();
  return sid;
}

void SessionEngine::driver_loop() {
  for (;;) {
    RankingRequest req;
    LiveSession* live = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;  // queued-but-unstarted work is discarded
      Queued q = std::move(queue_.front());
      queue_.pop_front();
      req = std::move(q.req);
      ++active_;
      peak_ = std::max(peak_, active_);
      auto ls = std::make_unique<LiveSession>();
      ls->id = req.session_id;
      ls->framework = req.framework;
      ls->n = req.infos.size();
      ls->k = req.k;
      ls->submit_s = q.submit_s;
      ls->start_s = runtime::metrics_now_seconds();
      live = ls.get();
      live_.emplace(req.session_id, std::move(ls));
    }
    const double queue_wait_s = live->start_s - live->submit_s;
    SessionResult res;
    std::exception_ptr err;
    try {
      res = execute(req, &live->progress);
    } catch (...) {
      err = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const std::uint64_t stalls =
          live->stalls.load(std::memory_order_relaxed);
      stalls_total_ += stalls;
      live_.erase(req.session_id);
      const auto kind = static_cast<std::size_t>(req.framework);
      queue_wait_hist_[kind].add_seconds(queue_wait_s);
      if (err != nullptr) {
        ++faulted_done_;
        failed_.emplace(req.session_id, err);
      } else {
        run_hist_[kind].add_seconds(res.wall_seconds);
        if (res.outcome == SessionOutcome::kFault) ++faulted_done_;
        Summary s;
        s.framework = res.framework;
        s.group_name = group::to_string(req.group);
        s.n = req.infos.size();
        s.k = req.k;
        s.beta_bits = req.spec.beta_bits();
        s.ranks = res.ranks();
        s.submitted_ids = res.submitted_ids();
        s.trace_messages = res.trace().message_count();
        s.trace_rounds = res.trace().rounds();
        s.trace_bytes = res.trace().total_bytes();
        if (const runtime::MetricsRegistry* m = res.metrics()) {
          s.has_ops = true;
          s.ops = m->totals();
        }
        s.outcome = res.outcome;
        s.fault = res.fault;
        s.queue_wait_s = queue_wait_s;
        s.run_s = res.wall_seconds;
        s.stalls = stalls;
        if (res.audit != nullptr) {
          s.has_audit = true;
          s.audit_checks = res.audit->checks;
          s.audit_findings = res.audit->findings.size();
          s.audit_verdict = res.audit->verdict();
          if (!res.audit->clean()) ++audit_drift_done_;
        }
        summaries_.emplace(req.session_id, std::move(s));
        totals_ += res.precompute;
        const CacheCounters t = res.precompute.total();
        if (t.hits != 0)
          metrics_.add(Phase::kSetup, runtime::kOrchestratorParty,
                       CryptoOp::kPrecomputeHit, t.hits);
        if (t.misses != 0)
          metrics_.add(Phase::kSetup, runtime::kOrchestratorParty,
                       CryptoOp::kPrecomputeMiss, t.misses);
        done_.emplace(req.session_id, std::move(res));
      }
      --active_;
    }
    done_cv_.notify_all();
  }
}

SessionResult SessionEngine::execute(const RankingRequest& req,
                                     runtime::ProgressCell* progress) {
  const double t0 = runtime::metrics_now_seconds();
  SessionResult out;
  out.id = req.session_id;
  out.framework = req.framework;

  // The determinism anchor: everything this session draws comes from
  // (engine seed, session id) — never from engine state that concurrent
  // sessions could perturb.
  mpz::ChaChaRng rng = session_family_.stream(req.session_id);

  core::FrameworkConfig fcfg;
  fcfg.spec = req.spec;
  fcfg.n = req.infos.size();
  fcfg.k = req.k;
  fcfg.group = &group_instance(req.group);
  fcfg.dot_field = &core::default_dot_field();
  fcfg.metrics = cfg_.metrics;
  // Progress reporting is observation only — the cell never feeds back into
  // the protocol, so outputs are identical with or without it.
  fcfg.progress = progress;

  // Fault isolation: a ProtocolFault is a *result* (outcome = kFault), not a
  // driver-thread exception — the session slot frees normally and nothing
  // shared (pool, caches, groups) holds session state that could leak.
  net::FaultPlan plan{req.fault_plan};
  if (plan.enabled()) fcfg.fault_plan = &plan;
  fcfg.degrade_on_dropout = req.degrade_on_dropout;
  const auto note_fault = [&out, &req](const core::ProtocolFault& pf) {
    out.outcome = SessionOutcome::kFault;
    out.fault = pf.info();
    out.fault_what =
        "session " + std::to_string(req.session_id) + ": " + pf.what();
    out.fault_report = pf.report();
  };

  // Forensic flight recorder: always-on ring when configured, dumped only
  // on demand. Observation-only, so outputs are identical either way.
  if (cfg_.flight_events > 0) {
    out.flight = std::make_shared<runtime::FlightRecorder>(cfg_.flight_events);
    fcfg.flight = out.flight.get();
  }
  // Live conformance audit: the auditor runs phase 1 alone on the session's
  // stream (a second identical family draw) and predicts the rest from
  // closed forms, then rides the run's phase boundaries. Needs the
  // registries, hence metrics.
  std::optional<ConformanceAuditor> auditor;
  if (cfg_.audit && cfg_.metrics) {
    ConformanceAuditor::Config acfg;
    acfg.ss = req.framework == FrameworkKind::kSs;
    acfg.spec = req.spec;
    acfg.n = req.infos.size();
    acfg.k = req.k;
    acfg.group = fcfg.group;
    acfg.dot_field = fcfg.dot_field;
    acfg.dot_s = fcfg.dot_s;
    acfg.fault_plan = plan.enabled();
    acfg.flight = fcfg.flight;
    auditor.emplace(std::move(acfg), req.v0, req.w, req.infos,
                    session_family_.stream(req.session_id));
    fcfg.audit = &*auditor;
  }

  if (req.framework == FrameworkKind::kHe) {
    fcfg.shared_pool = &pool_;
    SessionSource source{cache_};
    fcfg.precompute = &source;
    try {
      out.he = core::run_framework(fcfg, req.v0, req.w, req.infos, rng);
    } catch (const core::ProtocolFault& pf) {
      note_fault(pf);
    }
    out.setup_seconds = source.setup_seconds();
    out.precompute = source.stats();
  } else {
    core::SsFrameworkConfig scfg;
    scfg.base = fcfg;  // serial baseline: no shared pool, no precompute
    scfg.threshold = req.ss_threshold != 0 ? req.ss_threshold
                                           : (req.infos.size() - 1) / 2;
    try {
      out.ss = core::run_ss_framework(scfg, req.v0, req.w, req.infos, rng);
    } catch (const core::ProtocolFault& pf) {
      note_fault(pf);
    }
  }
  if (auditor.has_value()) out.audit = auditor->take_report();
  out.wall_seconds = runtime::metrics_now_seconds() - t0;
  return out;
}

const group::Group& SessionEngine::group_instance(group::GroupId id) {
  const std::lock_guard<std::mutex> lock(group_mu_);
  auto it = groups_.find(id);
  if (it == groups_.end())
    it = groups_.emplace(id, group::make_group(id)).first;
  return *it->second;
}

SessionResult SessionEngine::take(std::uint64_t session_id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (known_ids_.find(session_id) == known_ids_.end())
    throw EngineError(EngineErrorCode::kUnknownSession,
                      "session " + std::to_string(session_id) +
                          " was never submitted");
  done_cv_.wait(lock, [&] {
    return done_.find(session_id) != done_.end() ||
           failed_.find(session_id) != failed_.end();
  });
  if (auto it = failed_.find(session_id); it != failed_.end()) {
    std::exception_ptr err = it->second;
    failed_.erase(it);
    std::rethrow_exception(err);
  }
  auto node = done_.extract(session_id);
  return std::move(node.mapped());
}

std::vector<SessionResult> SessionEngine::run_batch(
    std::vector<RankingRequest> requests) {
  std::vector<std::uint64_t> ids;
  ids.reserve(requests.size());
  for (auto& req : requests) ids.push_back(submit(std::move(req)));
  std::vector<SessionResult> results;
  results.reserve(ids.size());
  for (const std::uint64_t sid : ids) results.push_back(take(sid));
  return results;
}

void SessionEngine::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::size_t SessionEngine::peak_in_flight() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

PrecomputeStats SessionEngine::precompute_stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::string SessionEngine::rollup_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out += "{\n  \"schema\": \"ppgr.engine.v1\",\n";
  appendf(out, "  \"engine_seed\": %llu,\n",
          static_cast<unsigned long long>(cfg_.seed));
  appendf(out, "  \"metrics\": %s,\n", cfg_.metrics ? "true" : "false");
  appendf(out, "  \"sessions_completed\": %zu,\n", summaries_.size());
  if (fault_aware_) {
    std::size_t ok = 0;
    std::size_t faulted = 0;
    for (const auto& [sid, s] : summaries_)
      ++(s.outcome == SessionOutcome::kOk ? ok : faulted);
    appendf(out, "  \"outcomes\": {\"ok\": %zu, \"fault\": %zu},\n", ok,
            faulted);
  }
  if (cfg_.telemetry) {
    // Live-telemetry sections (EngineConfig::telemetry): wall-clock-derived
    // latency quantiles per session kind and the end-of-run health verdict.
    // Nondeterministic by nature — scripts/bench_compare.py treats the
    // *_seconds keys as noisy, and the golden rollup pins telemetry=false.
    out += "  \"latency\": {";
    bool first_kind = true;
    for (std::size_t kind = 0; kind < 2; ++kind) {
      std::vector<double> waits;
      std::vector<double> runs;
      for (const auto& [sid, s] : summaries_) {
        if (static_cast<std::size_t>(s.framework) != kind) continue;
        waits.push_back(s.queue_wait_s);
        runs.push_back(s.run_s);
      }
      if (waits.empty()) continue;
      appendf(out, "%s\n    \"%s\": {\"sessions\": %zu,\n     ",
              first_kind ? "" : ",", to_string(static_cast<FrameworkKind>(kind)),
              waits.size());
      appendf(out, "\"queue_wait_p50_seconds\": %.9f, ", quantile(waits, 0.50));
      appendf(out, "\"queue_wait_p99_seconds\": %.9f,\n     ",
              quantile(waits, 0.99));
      appendf(out, "\"run_duration_p50_seconds\": %.9f, ",
              quantile(runs, 0.50));
      appendf(out, "\"run_duration_p99_seconds\": %.9f}",
              quantile(runs, 0.99));
      first_kind = false;
    }
    out += "\n  },\n";
    // A drained engine cannot be stalled: health reduces to the outcome
    // counts, which *are* deterministic. The stall tally is the watchdog's
    // observation count and is not. Confirmed model drift (audit findings)
    // degrades health exactly like a faulted session.
    std::size_t faulted = 0;
    for (const auto& [sid, s] : summaries_)
      if (s.outcome == SessionOutcome::kFault) ++faulted;
    appendf(out, "  \"health\": {\"state\": \"%s\", \"stalls\": %llu},\n",
            runtime::to_string(faulted != 0 || audit_drift_done_ != 0
                                   ? runtime::HealthState::kDegraded
                                   : runtime::HealthState::kOk),
            static_cast<unsigned long long>(stalls_total_));
  }
  if (cfg_.audit) {
    // Deterministic audit rollup: counts of comparisons and confirmed
    // divergences (pure functions of the request set + fault schedules).
    std::size_t audited = 0;
    std::size_t checks = 0;
    std::size_t findings = 0;
    for (const auto& [sid, s] : summaries_) {
      if (!s.has_audit) continue;
      ++audited;
      checks += s.audit_checks;
      findings += s.audit_findings;
    }
    appendf(out,
            "  \"audit\": {\"sessions\": %zu, \"checks\": %zu, "
            "\"findings\": %zu, \"drifted\": %zu},\n",
            audited, checks, findings, audit_drift_done_);
  }
  out += "  \"cache\": {\n    \"generator_tables\": ";
  append_counters(out, totals_.generator_table);
  out += "\n  },\n  \"sessions\": [";
  bool first = true;
  for (const auto& [sid, s] : summaries_) {
    appendf(out, "%s\n    {\"id\": %llu, \"framework\": \"%s\", ",
            first ? "" : ",", static_cast<unsigned long long>(sid),
            to_string(s.framework));
    appendf(out, "\"group\": \"%s\", \"n\": %zu, \"k\": %zu, ",
            s.group_name.c_str(), s.n, s.k);
    appendf(out, "\"beta_bits\": %zu,\n     \"ranks\": ", s.beta_bits);
    append_index_list(out, s.ranks);
    out += ", \"submitted_ids\": ";
    append_index_list(out, s.submitted_ids);
    appendf(out,
            ",\n     \"trace\": {\"messages\": %zu, \"bytes\": %llu, "
            "\"rounds\": %zu}",
            s.trace_messages, static_cast<unsigned long long>(s.trace_bytes),
            s.trace_rounds);
    if (s.has_ops) {
      out += ",\n     \"ops\": ";
      append_ops(out, s.ops);
    }
    if (s.has_audit) {
      appendf(out,
              ",\n     \"audit\": {\"checks\": %zu, \"findings\": %zu, "
              "\"verdict\": \"%s\"}",
              s.audit_checks, s.audit_findings, s.audit_verdict.c_str());
    }
    if (fault_aware_) {
      appendf(out, ",\n     \"outcome\": \"%s\"", to_string(s.outcome));
      if (s.fault.has_value()) {
        const core::FaultInfo& f = *s.fault;
        appendf(out, ", \"fault\": {\"phase\": \"%s\", \"round\": %zu, ",
                runtime::phase_name(f.phase), f.round);
        appendf(out, "\"party\": %lld, \"cause\": ",
                f.party == core::kNoParty ? -1LL
                                          : static_cast<long long>(f.party));
        append_json_string(out, f.cause);
        out += "}";
      }
    }
    out += "}";
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace ppgr::engine

#include "engine/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "runtime/json.h"

namespace ppgr::engine {

namespace {

using runtime::append_index_list;
using runtime::appendf;

// Nearest-rank quantile over an unsorted sample set (sorts in place; the
// estimator itself is the shared one in runtime/histogram.h).
double quantile(std::vector<double>& v, double q) {
  std::sort(v.begin(), v.end());
  return runtime::sample_quantile_seconds(v, q);
}

}  // namespace

void CacheCounters::append_json(std::string& out) const {
  appendf(out, "{\"hits\": %llu, \"misses\": %llu}",
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(misses));
}

void append_fault_json(std::string& out, const core::FaultInfo& f) {
  appendf(out, "{\"phase\": \"%s\", \"round\": %zu, \"party\": %lld, ",
          runtime::phase_name(f.phase), f.round,
          f.party == core::kNoParty ? -1LL : static_cast<long long>(f.party));
  out += "\"cause\": ";
  runtime::append_json_string(out, f.cause);
  out += "}";
}

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
      if (cfg_.on_progress)
        ls->progress.set_hook([hook = cfg_.on_progress, id = ls->id](
                                  runtime::Phase phase, std::size_t round) {
          hook(id, phase, round);
        });
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
        s.group = res.group;
        s.n = res.n;
        s.k = res.k;
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
        s.audit = res.audit;
        if (s.audit != nullptr && !s.audit->clean()) ++audit_drift_done_;
        summaries_.emplace(req.session_id, std::move(s));
        totals_ += res.precompute;
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
  out.group = req.group;
  out.n = req.infos.size();
  out.k = req.k;

  // The determinism anchor: everything this session draws comes from
  // (engine seed, session id) — never from engine state that concurrent
  // sessions could perturb.
  mpz::ChaChaRng rng = session_family_.stream(req.session_id);

  // Every session, HE or SS, runs on the cache's instance of its group: one
  // counted lookup, a miss iff it built the instance.
  const double setup_t0 = runtime::metrics_now_seconds();
  const PrecomputeCache::Lookup group = cache_.instance(req.group);
  out.setup_seconds = runtime::metrics_now_seconds() - setup_t0;
  ++(group.built ? out.precompute.generator_table.misses
                 : out.precompute.generator_table.hits);

  core::FrameworkConfig fcfg;
  fcfg.spec = req.spec;
  fcfg.n = req.infos.size();
  fcfg.k = req.k;
  fcfg.group = group.group;
  fcfg.dot_field = &core::default_dot_field();
  // Sessions always run with observability: the rollup, the session log
  // and the audit read the run's registries.
  fcfg.metrics = true;
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

  // Live conformance audit: the auditor runs phase 1 alone on the session's
  // stream (a second identical family draw) and predicts the rest from
  // closed forms, then rides the run's phase boundaries.
  std::optional<ConformanceAuditor> auditor;
  if (cfg_.audit) {
    ConformanceAuditor::Config acfg;
    acfg.ss = req.framework == FrameworkKind::kSs;
    acfg.spec = req.spec;
    acfg.n = req.infos.size();
    acfg.k = req.k;
    acfg.group = fcfg.group;
    acfg.dot_field = fcfg.dot_field;
    acfg.fault_plan = plan.enabled();
    auditor.emplace(std::move(acfg), req.v0, req.w, req.infos,
                    session_family_.stream(req.session_id));
    fcfg.audit = &*auditor;
  }

  if (req.framework == FrameworkKind::kHe) {
    fcfg.shared_pool = &pool_;
    try {
      out.he = core::run_framework(fcfg, req.v0, req.w, req.infos, rng);
    } catch (const core::ProtocolFault& pf) {
      note_fault(pf);
    }
  } else {
    core::SsFrameworkConfig scfg;
    scfg.base = fcfg;  // serial baseline: no shared pool
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
  appendf(out, "  \"sessions_completed\": %zu,\n", summaries_.size());
  std::size_t faulted = 0;
  for (const auto& [sid, s] : summaries_)
    if (s.outcome == SessionOutcome::kFault) ++faulted;
  appendf(out, "  \"outcomes\": {\"ok\": %zu, \"fault\": %zu},\n",
          summaries_.size() - faulted, faulted);
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
      if (s.audit == nullptr) continue;
      ++audited;
      checks += s.audit->checks;
      findings += s.audit->findings.size();
    }
    appendf(out,
            "  \"audit\": {\"sessions\": %zu, \"checks\": %zu, "
            "\"findings\": %zu, \"drifted\": %zu},\n",
            audited, checks, findings, audit_drift_done_);
  }
  out += "  \"cache\": {\n    \"generator_tables\": ";
  totals_.generator_table.append_json(out);
  out += "\n  },\n  \"sessions\": [";
  bool first = true;
  for (const auto& [sid, s] : summaries_) {
    appendf(out, "%s\n    {\"id\": %llu, \"framework\": \"%s\", ",
            first ? "" : ",", static_cast<unsigned long long>(sid),
            to_string(s.framework));
    appendf(out, "\"group\": \"%s\", \"n\": %zu, \"k\": %zu, ",
            group::to_string(s.group).c_str(), s.n, s.k);
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
      runtime::append_tally_json(out, s.ops);
    }
    if (s.audit != nullptr) {
      out += ",\n     \"audit\": ";
      s.audit->append_summary_json(out);
    }
    appendf(out, ",\n     \"outcome\": \"%s\"", to_string(s.outcome));
    if (s.fault.has_value()) {
      out += ", \"fault\": ";
      append_fault_json(out, *s.fault);
    }
    out += "}";
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace ppgr::engine

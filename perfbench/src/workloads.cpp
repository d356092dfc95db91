#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "engine/precompute.h"
#include "group/group.h"
#include "mpz/fp.h"

namespace perfbench {

namespace {

using ppgr::core::FrameworkConfig;
using ppgr::engine::EngineConfig;
using ppgr::engine::FrameworkKind;
using ppgr::engine::PrecomputeCache;
using ppgr::engine::RankingRequest;
using ppgr::engine::SessionEngine;
using ppgr::engine::SessionOutcome;
using ppgr::engine::SessionResult;
using ppgr::group::GroupId;
using ppgr::mpz::ChaChaRng;
using ppgr::mpz::StreamFamily;

// One kind of engine-mix session. Every block of kMixBlock schedule slots
// is a seeded permutation of the kinds' `per_block` counts.
struct MixKind {
  ppgr::engine::FrameworkKind framework;
  ppgr::group::GroupId group;
  std::size_t n;
  std::size_t k;
  bool faults;  // runs under a recoverable drop/duplicate/reorder plan
  std::size_t per_block;
};

constexpr std::size_t kSetupReps = 21;  // reported set-up time is the median
constexpr double kSetupBatchS = 0.2;    // back-to-back set-ups per repetition
constexpr std::size_t kHeParallelism = 4;

constexpr std::size_t kMixBlock = 20;
constexpr std::size_t kMixDrivers = 4;      // EngineConfig::max_in_flight
constexpr std::size_t kMixOutstanding = 8;  // closed-loop client slots

// Serial cost per session: HE n=4 ~0.25 s, n=8 ~2.8 s, ecc-p256 n=4 ~2.3 s,
// SS n=5 ~0.12 s, n=7 ~0.76 s — mostly cheap HE sessions by count, with the
// long ones holding drivers while the queue backs up behind them.
const std::vector<MixKind> kMix = {
    // framework, group, n, k, faults, per block
    {FrameworkKind::kHe, GroupId::kDlTest256, 4, 2, false, 10},
    {FrameworkKind::kHe, GroupId::kDlTest256, 8, 3, false, 2},
    {FrameworkKind::kHe, GroupId::kEcP256, 4, 2, false, 2},
    {FrameworkKind::kSs, GroupId::kDlTest256, 5, 2, false, 2},
    {FrameworkKind::kSs, GroupId::kDlTest256, 7, 3, false, 1},
    {FrameworkKind::kHe, GroupId::kDlTest256, 4, 2, true, 3},
};

struct Family {
  explicit Family(std::uint64_t seed) : root(seed), streams(root) {}
  ChaChaRng root;
  StreamFamily streams;
};

void fail(SessionRecord& rec, const char* what) {
  rec.failed = true;
  rec.error = what;
}

// Mean time of `setup` run back to back for about `seconds`. What `setup`
// builds is torn down outside the timed intervals.
template <typename Setup>
double mean_setup_s(const Setup& setup, double seconds) {
  double busy = 0.0;
  std::size_t count = 0;
  for (const double until = now_s() + seconds; count == 0 || now_s() < until;
       ++count) {
    const double t0 = now_s();
    const auto built = setup();
    busy += now_s() - t0;
  }
  return busy / static_cast<double>(count);
}

// Set-up is timed after the sessions, once caches and the allocator are warm.
// One set-up takes 0.2 ms (he-n16) to 3 ms (engine-mix), too short to time
// steadily on its own, and on shared virtual machines the single-thread speed
// of the vCPUs differs by up to 40% and shifts over seconds. So each of the
// kSetupReps repetitions runs set-ups back to back for kSetupBatchS, split
// evenly over the CPUs the process may use, pinned to each in turn, and
// yields their mean; the reported figure is the median over repetitions.
template <typename Setup>
std::vector<double> time_setup(const Setup& setup) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  std::vector<double> reps;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (cpus.empty()) {
      reps.push_back(mean_setup_s(setup, kSetupBatchS));
      continue;
    }
    double sum = 0.0;
    for (const int c : cpus) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(c, &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
      sum += mean_setup_s(setup, kSetupBatchS / static_cast<double>(cpus.size()));
    }
    reps.push_back(sum / static_cast<double>(cpus.size()));
  }
  if (!cpus.empty()) (void)sched_setaffinity(0, sizeof(allowed), &allowed);
  return reps;
}

double window_of(const std::vector<SessionRecord>& recs) {
  double first = recs.front().call.t0;
  double last = recs.front().call.t1;
  for (const auto& r : recs) {
    first = std::min(first, r.call.t0);
    last = std::max(last, r.call.t1);
  }
  return last - first;
}

// -------------------------------------------------------------- he-n16

// One HE session at a time through run_framework at parallelism 4, as
// ppgr_cli runs it. The traced form wraps the group in the TimedGroup
// decorator and turns on FrameworkConfig::metrics.
RunResult run_he(const Options& opt, GroupId group_id, std::size_t n,
                 std::size_t k) {
  RunResult out;
  out.comm_sessions = 1;
  out.threads = kHeParallelism;
  const ProblemSpec spec = fig2a_spec();
  const Family fam{opt.seed};

  // Set-up: group and phase-1 field construction plus the generator comb
  // table (SchnorrGroup builds it on the first exp_g).
  struct Env {
    std::unique_ptr<ppgr::group::Group> group;
    std::unique_ptr<ppgr::mpz::FpCtx> field;
  };
  const ppgr::mpz::Nat field_p = ppgr::core::default_dot_field().p();
  const auto setup = [group_id, &field_p] {
    Env env{ppgr::group::make_group(group_id),
            std::make_unique<ppgr::mpz::FpCtx>(field_p)};
    (void)env.group->exp_g(ppgr::mpz::Nat{1});
    return env;
  };
  const Env env = setup();

  const auto run_one = [&](std::uint64_t i, bool traced) {
    SessionRecord rec;
    rec.index = i;
    rec.session = Interval{"session", now_s(), 0.0};
    const Instance inst = make_instance(fam.streams, i, n, spec);
    std::optional<TimedGroup> timed;
    if (traced) timed.emplace(*env.group);
    FrameworkConfig cfg;
    cfg.spec = spec;
    cfg.n = n;
    cfg.k = k;
    cfg.group = traced ? &*timed : env.group.get();
    cfg.dot_field = env.field.get();
    cfg.parallelism = kHeParallelism;
    cfg.metrics = traced;
    ChaChaRng rng = stream(fam.streams, Stream::kProtocol, i);
    rec.call = Interval{"run_framework", now_s(), 0.0};
    try {
      const auto res =
          ppgr::core::run_framework(cfg, inst.v0, inst.w, inst.infos, rng);
      rec.call.t1 = now_s();
      observe(res, rec);
      rec.mismatch =
          !ranks_agree(spec, inst, k, res.ranks, res.submitted_ids);
    } catch (const std::exception& e) {
      rec.call.t1 = now_s();
      fail(rec, e.what());
    }
    rec.run_s = rec.call.t1 - rec.call.t0;
    if (timed.has_value()) {
      rec.timed_group = true;
      rec.group = timed->totals();
    }
    rec.session.t1 = now_s();
    return rec;
  };

  // Closed loop: the next session starts when the previous one returns, and
  // only if the last session's duration still fits before the deadline.
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const double deadline = now_s() + budget;
  double last = 0.0;
  for (std::uint64_t i = 0; i == 0 || now_s() + last <= deadline; ++i) {
    out.untraced.push_back(run_one(i, false));
    last = out.untraced.back().session.t1 - out.untraced.back().session.t0;
  }
  out.window_s = window_of(out.untraced);
  if (opt.trace)
    for (std::uint64_t i = 0; i < out.untraced.size(); ++i)
      out.traced.push_back(run_one(i, true));
  out.setup_s = time_setup(setup);
  return out;
}

// ---------------------------------------------------------- engine-mix

// Kind of schedule slot `idx`: block idx / kMixBlock is a seeded
// Fisher–Yates permutation of the per-block kind counts.
std::size_t mix_kind(const StreamFamily& fam, std::uint64_t idx) {
  std::vector<std::size_t> block;
  for (std::size_t k = 0; k < kMix.size(); ++k)
    block.insert(block.end(), kMix[k].per_block, k);
  ChaChaRng rng = stream(fam, Stream::kSchedule, idx / kMixBlock);
  for (std::size_t i = block.size(); i-- > 1;)
    std::swap(block[i], block[rng.below_u64(i + 1)]);
  return block[idx % kMixBlock];
}

// Recoverable channel faults: every dropped or duplicated frame is healed
// by the Router's retransmit ladder; eight retries at a 3% drop rate make a
// give-up (0.03^9 per message) negligible.
ppgr::net::FaultPlanConfig recoverable_faults(std::uint64_t seed) {
  ppgr::net::FaultPlanConfig plan;
  plan.seed = seed;
  plan.drop = 0.03;
  plan.duplicate = 0.03;
  plan.reorder = 0.03;
  plan.max_retries = 8;
  return plan;
}

struct Engine {
  std::unique_ptr<PrecomputeCache> cache;
  std::unique_ptr<SessionEngine> engine;  // declared last: joins first
};

// Set-up for engine-mix: a fresh cache whose generator tables are warmed
// for both groups the mix uses, and the engine with its driver threads.
Engine make_engine(std::uint64_t seed) {
  Engine e;
  e.cache = std::make_unique<PrecomputeCache>();
  for (const GroupId id : {GroupId::kDlTest256, GroupId::kEcP256})
    (void)e.cache->generator_table(*ppgr::group::make_group(id));
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.max_in_flight = kMixDrivers;
  cfg.parallelism = 1;
  cfg.cache = e.cache.get();
  e.engine = std::make_unique<SessionEngine>(cfg);
  return e;
}

SessionRecord run_mix_session(SessionEngine& eng, const StreamFamily& fam,
                              std::uint64_t idx) {
  const ProblemSpec spec = fig2a_spec();
  SessionRecord rec;
  rec.index = idx;
  const MixKind& kind = kMix[mix_kind(fam, idx)];
  rec.session = Interval{"session", now_s(), 0.0};
  const Instance inst = make_instance(fam, idx, kind.n, spec);
  RankingRequest req;
  req.session_id = idx + 1;
  req.framework = kind.framework;
  req.group = kind.group;
  req.spec = spec;
  req.k = kind.k;
  req.v0 = inst.v0;
  req.w = inst.w;
  req.infos = inst.infos;
  rec.fault_plan = kind.faults;
  if (kind.faults)
    req.fault_plan =
        recoverable_faults(stream(fam, Stream::kFaults, idx).next_u64());
  rec.call = Interval{"submit_take", now_s(), 0.0};
  try {
    const std::uint64_t sid = eng.submit(std::move(req));
    const SessionResult res = eng.take(sid);
    rec.call.t1 = now_s();
    rec.run_s = res.wall_seconds;
    rec.engine_setup_s = res.setup_seconds;
    if (res.outcome == SessionOutcome::kFault) {
      fail(rec, res.fault_what.c_str());
    } else {
      if (res.framework == FrameworkKind::kHe)
        observe(res.he, rec);
      else
        observe(res.ss, rec);
      rec.mismatch = !ranks_agree(spec, inst, kind.k, res.ranks(),
                                  res.submitted_ids());
    }
  } catch (const std::exception& e) {
    rec.call.t1 = now_s();
    fail(rec, e.what());
  }
  rec.session.t1 = now_s();
  return rec;
}

// kMixOutstanding closed-loop client slots share one seeded schedule: each
// claims the next slot index, submits it, blocks in take() and records the
// result. Claims stop at the deadline (or after `limit` slots), so the
// sessions run are always the indices 0..N-1, with N >= 1.
std::vector<SessionRecord> drive_mix(SessionEngine& eng,
                                     const StreamFamily& fam, double deadline,
                                     std::optional<std::uint64_t> limit) {
  std::mutex mu;
  std::uint64_t next = 0;
  std::vector<SessionRecord> records;
  const auto client = [&] {
    for (;;) {
      std::uint64_t idx = 0;
      {
        const std::lock_guard<std::mutex> lock(mu);
        if (limit.has_value() ? next >= *limit
                              : next > 0 && now_s() >= deadline)
          return;
        idx = next++;
      }
      SessionRecord rec = run_mix_session(eng, fam, idx);
      const std::lock_guard<std::mutex> lock(mu);
      records.push_back(std::move(rec));
    }
  };
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kMixOutstanding; ++c) clients.emplace_back(client);
  for (auto& t : clients) t.join();
  std::sort(records.begin(), records.end(),
            [](const SessionRecord& a, const SessionRecord& b) {
              return a.index < b.index;
            });
  return records;
}

RunResult run_engine_mix(const Options& opt) {
  RunResult out;
  out.comm_sessions = kMixBlock;
  out.threads = 1;
  const Family fam{opt.seed};
  const std::uint64_t engine_seed =
      stream(fam.streams, Stream::kEngine, 0).next_u64();

  std::optional<Engine> eng;
  eng.emplace(make_engine(engine_seed));

  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  out.untraced =
      drive_mix(*eng->engine, fam.streams, now_s() + budget, std::nullopt);
  out.window_s = window_of(out.untraced);
  if (opt.trace) {
    // Same engine seed and session ids on a fresh engine and cache: a
    // bit-for-bit replay of the first half.
    eng.reset();
    eng.emplace(make_engine(engine_seed));
    out.traced = drive_mix(*eng->engine, fam.streams, 0.0,
                           static_cast<std::uint64_t>(out.untraced.size()));
  }
  out.cache = eng->engine->precompute_stats();
  out.peak_in_flight = eng->engine->peak_in_flight();
  out.setup_s = time_setup([engine_seed] { return make_engine(engine_seed); });
  return out;
}

}  // namespace

bool is_workload(const std::string& name) {
  return name == "he-n16" || name == "engine-mix";
}

RunResult run_workload(const Options& opt) {
  if (opt.workload == "he-n16")
    return run_he(opt, GroupId::kDlTest256, 16, 3);
  if (opt.workload == "engine-mix") return run_engine_mix(opt);
  throw std::invalid_argument("unknown workload " + opt.workload);
}

}  // namespace perfbench

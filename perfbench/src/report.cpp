#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "group/ec_group.h"
#include "group/schnorr_group.h"
#include "mpz/mont.h"

namespace perfbench {

namespace {

using ppgr::group::GroupId;
using ppgr::mpz::Nat;
using ppgr::runtime::CryptoOp;
using Records = std::vector<const SessionRecord*>;

// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Records completed(const std::vector<SessionRecord>& recs,
                  const std::function<bool(const SessionRecord&)>& keep) {
  Records out;
  for (const auto& r : recs)
    if (!r.failed && keep(r)) out.push_back(&r);
  return out;
}

double mean(const Records& recs,
            const std::function<double(const SessionRecord&)>& f) {
  if (recs.empty()) return 0.0;
  double s = 0.0;
  for (const SessionRecord* r : recs) s += f(*r);
  return s / static_cast<double>(recs.size());
}

std::vector<double> sample(
    const Records& recs, const std::function<double(const SessionRecord&)>& f) {
  std::vector<double> v;
  for (const SessionRecord* r : recs) v.push_back(f(*r));
  return v;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Mean over the fault-free HE sessions among the schedule's first
// run.comm_sessions, whose wire size depends only on the session's shape.
// Left out: faulted sessions, whose retransmitted frames depend on the fault
// draw (net.retransmits reports them), and SS sessions, whose sort redraws
// rejected random bits a random number of times (sss.* reports the sort).
double leading_mean(const RunResult& run,
                    const std::function<double(const SessionRecord&)>& f) {
  return mean(completed(run.untraced,
                        [&run](const SessionRecord& r) {
                          return r.index < run.comm_sessions &&
                                 !r.fault_plan && !r.ss;
                        }),
              f);
}

// ---- mpz layer: kernel calibration through the public API

volatile std::size_t g_sink = 0;  // keeps the timed chains observable

// Median over 7 repetitions of a dependent chain of `iters` products.
template <typename Mul>
double ns_per_mul(Mul&& mul, Nat x, const Nat& y, std::size_t iters) {
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < iters; ++i) x = mul(x, y);
    reps.push_back((now_s() - t0) / static_cast<double>(iters) * 1e9);
  }
  g_sink = g_sink + x.bit_length();
  return median(std::move(reps));
}

double mont_mul_ns(GroupId id, std::size_t iters) {
  const auto g = ppgr::group::make_group(id);
  const ppgr::mpz::MontCtx ctx{
      dynamic_cast<const ppgr::group::SchnorrGroup&>(*g).modulus()};
  ppgr::mpz::ChaChaRng rng{1};
  const Nat x = ctx.to_mont(rng.below(ctx.modulus()));
  const Nat y = ctx.to_mont(rng.below(ctx.modulus()));
  return ns_per_mul([&ctx](const Nat& a, const Nat& b) { return ctx.mul(a, b); },
                    x, y, iters);
}

double p256_mul_ns(std::size_t iters) {
  const auto g = ppgr::group::make_group(GroupId::kEcP256);
  const ppgr::mpz::FpCtx& f =
      dynamic_cast<const ppgr::group::EcGroup&>(*g).field();
  ppgr::mpz::ChaChaRng rng{2};
  const Nat x = f.random(rng);
  const Nat y = f.random(rng);
  return ns_per_mul([&f](const Nat& a, const Nat& b) { return f.mul(a, b); },
                    x, y, iters);
}

constexpr std::size_t kGroupOpOf[TimedGroup::kOps] = {
    static_cast<std::size_t>(CryptoOp::kGroupExp),
    ppgr::runtime::kOpCount,  // dual_exp: no logical counter
    static_cast<std::size_t>(CryptoOp::kGroupExpG),
    static_cast<std::size_t>(CryptoOp::kGroupMul),
    static_cast<std::size_t>(CryptoOp::kGroupInv),
    static_cast<std::size_t>(CryptoOp::kGroupSerialize),
    static_cast<std::size_t>(CryptoOp::kGroupDeserialize),
};

struct CryptoMetric {
  const char* name;
  CryptoOp op;
};
constexpr CryptoMetric kCryptoOps[] = {
    {"shuffle_hop", CryptoOp::kShuffleHop},
    {"compare_circuit", CryptoOp::kCompareCircuit},
    {"elgamal_encrypt", CryptoOp::kElGamalEncrypt},
    {"elgamal_decrypt", CryptoOp::kElGamalDecrypt},
    {"elgamal_rerandomize", CryptoOp::kElGamalRerandomize},
    {"schnorr_verify", CryptoOp::kSchnorrVerify},
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

}  // namespace

Verdict check(const RunResult& run) {
  Verdict v;
  const auto tally = [&v](const SessionRecord& r, const char* half) {
    ++v.attempted;
    if (r.failed) {
      ++v.failed;
      v.problems.push_back(std::string(half) + " session " +
                           std::to_string(r.index) + " failed: " + r.error);
    }
    if (r.mismatch) {
      v.correct = false;
      v.problems.push_back(std::string(half) + " session " +
                           std::to_string(r.index) +
                           ": ranks disagree with core::reference_ranks");
    }
  };
  for (const auto& r : run.untraced) tally(r, "untraced");
  for (const auto& r : run.traced) tally(r, "traced");
  for (std::size_t i = 0; i < run.traced.size(); ++i) {
    const SessionRecord& a = run.untraced.at(i);
    const SessionRecord& b = run.traced[i];
    if (a.failed || b.failed) continue;
    if (a.index != b.index || a.ranks != b.ranks || a.betas != b.betas ||
        a.bytes != b.bytes) {
      v.correct = false;
      v.problems.push_back("session " + std::to_string(a.index) +
                           ": traced ranks, beta or wire bytes differ from "
                           "the untraced run");
    }
  }
  return v;
}

std::vector<Metric> end_to_end_metrics(const RunResult& run,
                                       const Verdict& verdict) {
  const Records ok =
      completed(run.untraced, [](const SessionRecord&) { return true; });
  const std::vector<double> latency =
      sample(ok, [](const SessionRecord& r) { return r.latency_s(); });
  const double ok_frac =
      verdict.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(verdict.failed) /
                      static_cast<double>(verdict.attempted);
  return {
      {"session_s.p50", quantile(latency, 0.5), "s"},
      {"session_s.p90", quantile(latency, 0.9), "s"},
      {"sessions_per_s",
       run.window_s > 0.0 ? static_cast<double>(ok.size()) / run.window_s : 0.0,
       "1/s"},
      {"party_compute_s.max",
       median(sample(ok,
                     [](const SessionRecord& r) { return r.party_compute_max_s; })),
       "s"},
      {"setup_s", median(run.setup_s), "s"},
      {"comm_bytes_per_session",
       leading_mean(run,
                    [](const SessionRecord& r) {
                      return static_cast<double>(r.bytes);
                    }),
       "B"},
      {"comm_rounds_per_session",
       leading_mean(run,
                    [](const SessionRecord& r) {
                      return static_cast<double>(r.rounds);
                    }),
       "rounds"},
      {"sessions_ok_frac", ok_frac, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const RunResult& run) {
  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back(Metric{std::move(name), value, unit});
  };
  const Records all =
      completed(run.traced, [](const SessionRecord&) { return true; });
  const Records he =
      completed(run.traced, [](const SessionRecord& r) { return !r.ss; });
  const Records ss =
      completed(run.traced, [](const SessionRecord& r) { return r.ss; });

  // mpz: kernel products timed directly, outside any session.
  add("mpz.mont_mul_ns.256", mont_mul_ns(GroupId::kDlTest256, 200000), "ns");
  add("mpz.mont_mul_ns.1024", mont_mul_ns(GroupId::kDl1024, 40000), "ns");
  add("mpz.fp_mul_ns.p256", p256_mul_ns(200000), "ns");

  // group: executed calls and busy seconds from the TimedGroup decorator on
  // he-n16; on engine-mix (whose engine builds its own groups) the session
  // registry's logical counts, with no seconds.
  const bool timed = !he.empty() && he.front()->timed_group;
  for (std::size_t op = 0; op < TimedGroup::kOps; ++op) {
    const std::string base = std::string("group.") + TimedGroup::kOpNames[op];
    const std::size_t logical = kGroupOpOf[op];
    add(base + ".calls", mean(he, [&](const SessionRecord& r) {
          if (timed) return static_cast<double>(r.group.calls[op]);
          return logical < ppgr::runtime::kOpCount
                     ? static_cast<double>(r.ops.v[logical])
                     : 0.0;
        }),
        "count");
    add(base + ".s", mean(he, [op](const SessionRecord& r) {
          return r.group.seconds[op];
        }),
        "s");
  }
  add("group.busy_s",
      mean(he, [](const SessionRecord& r) { return r.group.busy_seconds(); }),
      "s");

  // crypto: the session MetricsRegistry's op counters and timer totals.
  for (const CryptoMetric& c : kCryptoOps) {
    const auto op = static_cast<std::size_t>(c.op);
    add(std::string("crypto.") + c.name + ".calls",
        mean(he, [op](const SessionRecord& r) {
          return static_cast<double>(r.ops.v[op]);
        }),
        "count");
    add(std::string("crypto.") + c.name + ".s",
        mean(he, [op](const SessionRecord& r) { return r.op_seconds[op]; }),
        "s");
  }

  // core (+dotprod in phase 1): the program's phase and step spans.
  add("core.phase1_s",
      mean(he, [](const SessionRecord& r) { return r.phase_s[1]; }), "s");
  add("core.phase2_s",
      mean(he, [](const SessionRecord& r) { return r.phase_s[2]; }), "s");
  add("core.phase3_s",
      mean(he, [](const SessionRecord& r) { return r.phase_s[3]; }), "s");
  add("core.p2.compare_s",
      mean(he, [](const SessionRecord& r) { return r.compare_s; }), "s");
  add("core.p2.shuffle_s",
      mean(he, [](const SessionRecord& r) { return r.shuffle_s; }), "s");
  add("core.serial_s",
      mean(he, [](const SessionRecord& r) { return r.serial_s; }), "s");

  // runtime: task-span seconds over the pool's thread-seconds.
  const double task_s =
      mean(he, [](const SessionRecord& r) { return r.task_s; });
  const double wall_s =
      mean(he, [](const SessionRecord& r) { return r.framework_s; });
  add("runtime.pool.utilisation",
      wall_s > 0.0 ? task_s / (wall_s * static_cast<double>(run.threads)) : 0.0,
      "ratio");

  // net: router byte accounting, CommRegistry virtual time, fault stats.
  add("net.messages", mean(all, [](const SessionRecord& r) {
        return static_cast<double>(r.messages);
      }),
      "count");
  add("net.bytes", mean(all, [](const SessionRecord& r) {
        return static_cast<double>(r.bytes);
      }),
      "B");
  add("net.rounds", mean(all, [](const SessionRecord& r) {
        return static_cast<double>(r.rounds);
      }),
      "rounds");
  add("net.virtual_s",
      mean(all, [](const SessionRecord& r) { return r.virtual_s; }), "s");
  add("net.retransmits", mean(all, [](const SessionRecord& r) {
        return static_cast<double>(r.retransmits);
      }),
      "count");
  add("net.frames_dropped", mean(all, [](const SessionRecord& r) {
        return static_cast<double>(r.frames_dropped);
      }),
      "count");

  // sss: the SS baseline's metered sort (engine-mix only).
  add("sss.mults", mean(ss, [](const SessionRecord& r) {
        return static_cast<double>(r.sort_costs.mults);
      }),
      "count");
  add("sss.opens", mean(ss, [](const SessionRecord& r) {
        return static_cast<double>(r.sort_costs.opens);
      }),
      "count");
  add("sss.parallel_rounds", mean(ss, [](const SessionRecord& r) {
        return static_cast<double>(r.parallel_rounds);
      }),
      "rounds");
  add("sss.comparators", mean(ss, [](const SessionRecord& r) {
        return static_cast<double>(r.comparators);
      }),
      "count");
  add("sss.sort_s", mean(ss, [](const SessionRecord& r) { return r.phase_s[2]; }),
      "s");

  // engine: queueing, execution and the precompute cache (engine-mix only).
  const bool engine = run.peak_in_flight > 0;
  add("engine.queue_wait_s.p50",
      engine ? median(sample(all,
                             [](const SessionRecord& r) {
                               return r.latency_s() - r.run_s;
                             }))
             : 0.0,
      "s");
  add("engine.run_s.p50",
      engine ? median(sample(all, [](const SessionRecord& r) { return r.run_s; }))
             : 0.0,
      "s");
  add("engine.precompute_s",
      mean(he, [](const SessionRecord& r) { return r.engine_setup_s; }), "s");
  const auto cache = [&add](const char* name,
                            const ppgr::engine::CacheCounters& c) {
    add(std::string("engine.cache.") + name + ".hits",
        static_cast<double>(c.hits), "count");
    add(std::string("engine.cache.") + name + ".misses",
        static_cast<double>(c.misses), "count");
  };
  cache("generator", run.cache.generator_table);
  cache("key_table", run.cache.key_table);
  cache("zero_pool", run.cache.zero_pool);
  add("engine.peak_in_flight", static_cast<double>(run.peak_in_flight),
      "count");

  // Tracing overhead: traced minus untraced median latency, same sessions.
  const Records base =
      completed(run.untraced, [](const SessionRecord&) { return true; });
  add("trace.overhead_s",
      median(sample(all, [](const SessionRecord& r) { return r.latency_s(); })) -
          median(sample(base,
                        [](const SessionRecord& r) { return r.latency_s(); })),
      "s");
  return m;
}

void write_spans(const std::string& path, const RunResult& run) {
  double origin = 1e300;
  for (const auto* half : {&run.untraced, &run.traced})
    for (const auto& r : *half) origin = std::min(origin, r.session.t0);
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto emit = [&](const Interval& iv, int pid, const SessionRecord& r,
                        int level) {
    if (!first) out += ",\n";
    first = false;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %d, \"tid\": "
                  "%llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"session\": %llu, \"level\": %d}}",
                  iv.name, pid, static_cast<unsigned long long>(r.index + 1),
                  (iv.t0 - origin) * 1e6, (iv.t1 - iv.t0) * 1e6,
                  static_cast<unsigned long long>(r.index), level);
    out += buf;
  };
  // pid 1: untraced sessions, pid 2: their traced replays.
  for (int pid = 1; pid <= 2; ++pid) {
    for (const auto& r : pid == 1 ? run.untraced : run.traced) {
      emit(r.session, pid, r, 0);
      emit(r.call, pid, r, 1);
      for (const Interval& p : r.phases) emit(p, pid, r, 2);
    }
  }
  out += "\n]}\n";
  std::ofstream f{path};
  if (!f) throw std::runtime_error("cannot write span file " + path);
  f << out;
}

std::string result_json(const Verdict& verdict,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += verdict.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(verdict.attempted);
  out += ", \"failed\": " + std::to_string(verdict.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

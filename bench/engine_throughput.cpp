// Open-loop throughput of the multi-session ranking engine: for each preset
// a burst of S sessions is submitted at once and driven through a shared
// thread pool at a fixed admission cap (default load 16), twice —
//
//   cold: a fresh PrecomputeCache (the group instance, generator table
//         included, is built by whichever session asks first)
//   warm: a second engine with the same seed and requests over the same
//         cache — the instance is already resident and setup collapses to
//         cache lookups. Every session still builds its own joint-key
//         table and draws its own encryptions of zero, so those costs sit
//         in both passes' session latencies, not in the setup time
//
// — and BENCH_engine.json records sessions/sec and p50/p95 session latency
// per pass, alongside the deterministic leaves (cache hit/miss counts,
// outputs_identical) that the bench-regress CI leg gates exactly. Each
// preset runs its cold-warm pair kPassReps times, every pair on a fresh
// cache, and the wall, throughput and latency leaves are the medians over
// the repeats: a single few-millisecond pass swings by more than the
// bench-regress tolerance from one run to the next.
//
// Each preset also records the set-up a session pays for its group
// instance, measured outside the passes: in a pass the sessions that ask
// while the first one builds wait for it, so a pass's set-up total swings
// several-fold with scheduling. cold_setup_wall_seconds is one instance
// build into a fresh cache and warm_setup_wall_seconds one lookup of the
// resident instance (the mean of kWarmLookups), each the median of
// kSetupReps repetitions; setup_speedup_cold_vs_warm is their ratio.
//
// The "small" preset additionally runs a third (warm) pass with a live
// telemetry sampler attached at the operator-default 100 ms period. The
// recorded "telemetry" block gates the sampler overhead: the fraction of the
// pass spent inside sampler callbacks (snapshot + JSONL + OpenMetrics
// rendering) must stay under 1%, and the observed pass must stay
// bit-identical to the unobserved ones (the non-perturbation invariant at
// bench scale). The busy-fraction measure is used instead of a wall-clock
// A/B delta because the latter is scheduler noise on 1-core CI boxes.
//
// The final "tcp_loopback" block measures the real-socket transport
// (net::tcp, DESIGN.md §5f): framed round trips over a loopback
// TcpTransport pair — p50/p95 round-trip latency for a protocol-sized
// payload, each the median over kTcpReps measurements. Frame and byte
// counts (of one measurement) are exact leaves; the latencies are
// wall-clock and classified noisy by bench_compare.
//
// Usage: engine_throughput [--load N] [--parallelism N] [--seed S]
//                          [--out FILE]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/introspect.h"
#include "net/tcp/transport.h"
#include "runtime/metrics.h"

namespace {

using namespace ppgr;
using engine::EngineConfig;
using engine::FrameworkKind;
using engine::PrecomputeCache;
using engine::PrecomputeStats;
using engine::RankingRequest;
using engine::SessionEngine;
using engine::SessionResult;

constexpr auto now_s = ppgr::runtime::metrics_now_seconds;

struct Preset {
  const char* name;
  std::size_t n;
  std::size_t k;
  std::size_t sessions;
};

// Paper-scale spec (the fig2a default: m=4, t=2, d1=8, d2=6, h=8 → l=35)
// at three group sizes; session counts keep each preset in seconds.
constexpr Preset kPresets[] = {
    {"small", 4, 2, 12},
    {"fig2a", 8, 3, 8},
    {"wide", 12, 3, 4},
};

std::vector<RankingRequest> make_requests(const Preset& preset) {
  std::vector<RankingRequest> reqs;
  for (std::uint64_t sid = 1; sid <= preset.sessions; ++sid) {
    RankingRequest req;
    req.session_id = sid;
    req.spec = core::ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8};
    req.k = preset.k;
    mpz::ChaChaRng rng{4242 + sid};
    req.v0.resize(req.spec.m);
    req.w.resize(req.spec.m);
    for (auto& x : req.v0) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
    for (auto& x : req.w) x = rng.below_u64(std::uint64_t{1} << req.spec.d2);
    for (std::size_t j = 0; j < preset.n; ++j) {
      core::AttrVec v(req.spec.m);
      for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << req.spec.d1);
      req.infos.push_back(std::move(v));
    }
    reqs.push_back(std::move(req));
  }
  return reqs;
}

struct PassStats {
  double wall_seconds = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  std::uint64_t samples = 0;        // telemetry pass only
  double sampler_busy_seconds = 0.0;  // total time inside sampler callbacks
  PrecomputeStats cache;
  std::vector<SessionResult> results;
};

constexpr double kTelemetryPeriodS = 0.1;  // operator default (100 ms)
constexpr std::size_t kPassReps = 5;        // cold-warm pairs per preset

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// A pass's wall time and latency quantiles, collected over the repeats.
struct PassTimes {
  std::vector<double> wall, p50, p95;
  void add(const PassStats& s) {
    wall.push_back(s.wall_seconds);
    p50.push_back(s.p50);
    p95.push_back(s.p95);
  }
};

PassStats run_pass(const Preset& preset, PrecomputeCache& cache,
                   std::size_t load, std::size_t parallelism,
                   std::uint64_t seed, bool with_telemetry = false) {
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.max_in_flight = load;
  cfg.parallelism = parallelism;
  cfg.cache = &cache;
  SessionEngine eng{cfg};

  PassStats stats;
  // The same composition EngineSampler runs (snapshot -> JSONL + OpenMetrics
  // page), with the callback timed so the overhead gate measures the real
  // per-sample cost rather than a noisy wall-clock A/B difference.
  std::atomic<std::uint64_t> busy_ns{0};
  runtime::TelemetrySampler sampler{
      runtime::TelemetrySampler::Config{kTelemetryPeriodS, "", ""},
      [&eng, &busy_ns] {
        const double a = now_s();
        const engine::EngineSnapshot s =
            engine::snapshot(eng, /*stall_deadline_s=*/5.0);
        runtime::TelemetrySample out{s.to_jsonl(), s.to_openmetrics()};
        busy_ns.fetch_add(static_cast<std::uint64_t>((now_s() - a) * 1e9),
                          std::memory_order_relaxed);
        return out;
      }};
  if (with_telemetry) sampler.start();

  const double t0 = now_s();
  stats.results = eng.run_batch(make_requests(preset));
  stats.wall_seconds = now_s() - t0;
  if (with_telemetry) {
    sampler.stop();
    stats.samples = sampler.samples();
    stats.sampler_busy_seconds =
        static_cast<double>(busy_ns.load()) * 1e-9;
  }
  std::vector<double> latencies;
  for (const auto& res : stats.results) latencies.push_back(res.wall_seconds);
  std::sort(latencies.begin(), latencies.end());
  stats.p50 = latencies[latencies.size() / 2];
  stats.p95 =
      latencies[std::min(latencies.size() - 1, latencies.size() * 95 / 100)];
  stats.cache = eng.precompute_stats();
  return stats;
}

constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kWarmLookups = 1000;

struct SetupStats {
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
};

// The set-up of the sessions' group instance (see the header comment).
SetupStats measure_setup() {
  const group::GroupId id = RankingRequest{}.group;
  std::vector<double> cold, warm;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    PrecomputeCache cache;
    double t0 = now_s();
    (void)cache.instance(id);
    cold.push_back(now_s() - t0);
    t0 = now_s();
    for (std::size_t i = 0; i < kWarmLookups; ++i) (void)cache.instance(id);
    warm.push_back((now_s() - t0) / kWarmLookups);
  }
  return {median(cold), median(warm)};
}

bool passes_identical(const PassStats& a, const PassStats& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const SessionResult& x = a.results[i];
    const SessionResult& y = b.results[i];
    if (x.ranks() != y.ranks() || x.submitted_ids() != y.submitted_ids() ||
        x.he.betas != y.he.betas ||
        x.trace().total_bytes() != y.trace().total_bytes() ||
        x.metrics()->to_json(/*include_timing=*/false) !=
            y.metrics()->to_json(/*include_timing=*/false))
      return false;
  }
  return true;
}

// Round trips of a protocol-sized framed payload over a real loopback
// TcpTransport pair (kernel-assigned ports): party 1 echoes every frame
// back, party 0 measures send->receive round-trip time per frame.
struct TcpLoopbackStats {
  std::uint64_t frames = 0;       // frames on the wire (2 per round trip)
  std::size_t payload_bytes = 0;  // per-frame payload size
  double p50 = 0.0, p95 = 0.0, wall = 0.0;  // medians over kTcpReps
};

TcpLoopbackStats measure_tcp_loopback() {
  using net::tcp::Endpoint;
  using net::tcp::TcpTransport;
  using net::tcp::TcpTransportConfig;
  constexpr std::size_t kRoundTrips = 256;  // per measurement
  constexpr std::size_t kPayloadBytes = 4096;
  constexpr std::size_t kTcpReps = 5;

  std::vector<std::unique_ptr<TcpTransport>> mesh;
  for (std::size_t p = 0; p < 2; ++p) {
    TcpTransportConfig cfg;
    cfg.party = p;
    cfg.parties = 2;
    cfg.listen = Endpoint{"127.0.0.1", 0};
    cfg.peers.resize(2);
    cfg.session = 0xBE7CBE7C;
    mesh.push_back(std::make_unique<TcpTransport>(std::move(cfg)));
  }
  mesh[0]->set_peer(1, Endpoint{"127.0.0.1", mesh[1]->listen_port()});
  mesh[1]->set_peer(0, Endpoint{"127.0.0.1", mesh[0]->listen_port()});
  std::thread dial{[&] { mesh[1]->connect(); }};
  mesh[0]->connect();
  dial.join();

  std::thread echo{[&] {
    for (std::size_t i = 0; i < kTcpReps * kRoundTrips; ++i)
      mesh[1]->send(1, 0, mesh[1]->receive(0, 1));
  }};
  const std::vector<std::uint8_t> payload(kPayloadBytes, 0xA5);
  std::vector<double> walls, p50s, p95s;
  for (std::size_t rep = 0; rep < kTcpReps; ++rep) {
    std::vector<double> latencies;
    latencies.reserve(kRoundTrips);
    const double wall0 = now_s();
    for (std::size_t i = 0; i < kRoundTrips; ++i) {
      const double t0 = now_s();
      mesh[0]->send(0, 1, payload);
      (void)mesh[0]->receive(1, 0);
      latencies.push_back(now_s() - t0);
    }
    walls.push_back(now_s() - wall0);
    std::sort(latencies.begin(), latencies.end());
    p50s.push_back(latencies[latencies.size() / 2]);
    p95s.push_back(latencies[latencies.size() * 95 / 100]);
  }
  echo.join();
  TcpLoopbackStats stats;
  stats.frames = 2 * kRoundTrips;
  stats.payload_bytes = kPayloadBytes;
  stats.p50 = median(p50s);
  stats.p95 = median(p95s);
  stats.wall = median(walls);
  return stats;
}

void print_counters(std::FILE* out, const char* label,
                    const PrecomputeStats& s) {
  std::fprintf(out,
               "     \"%s\": {\"generator_tables\": {\"hits\": %llu, "
               "\"misses\": %llu}}",
               label,
               static_cast<unsigned long long>(s.generator_table.hits),
               static_cast<unsigned long long>(s.generator_table.misses));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t load = 16;
  std::size_t parallelism = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 20250807;
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--load") == 0) load = std::stoul(argv[i + 1]);
    else if (std::strcmp(argv[i], "--parallelism") == 0)
      parallelism = std::stoul(argv[i + 1]);
    else if (std::strcmp(argv[i], "--seed") == 0)
      seed = std::stoull(argv[i + 1]);
    else if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("engine_throughput: load=%zu, parallelism=%zu (0=hw), "
              "hardware_concurrency=%u\n\n",
              load, parallelism, std::thread::hardware_concurrency());
  std::printf("%8s %4s %9s  %12s %12s %14s %10s\n", "preset", "n", "sessions",
              "cold[s/s]", "warm[s/s]", "setup-speedup", "identical");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"engine_throughput\",\n"
               "  \"group\": \"dl-test-256\",\n"
               "  \"load\": %zu,\n"
               "  \"engine_seed\": %llu,\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"presets\": [\n",
               load, static_cast<unsigned long long>(seed),
               std::thread::hardware_concurrency());

  bool all_identical = true;
  bool telemetry_gate_ok = true;
  double tele_overhead = 0.0, tele_wall = 0.0, tele_busy = 0.0;
  std::uint64_t tele_samples = 0;
  for (std::size_t pi = 0; pi < std::size(kPresets); ++pi) {
    const Preset& preset = kPresets[pi];
    // Each repeat is a fresh cache's cold pass and the warm pass after it;
    // the first cold pass's outputs are every other pass's reference.
    PassStats cold;
    PrecomputeStats warm_cache;
    PassTimes cold_times, warm_times;
    bool identical = true;
    auto cache = std::make_unique<PrecomputeCache>();
    for (std::size_t rep = 0; rep < kPassReps; ++rep) {
      if (rep > 0) cache = std::make_unique<PrecomputeCache>();
      PassStats c = run_pass(preset, *cache, load, parallelism, seed);
      const PassStats w = run_pass(preset, *cache, load, parallelism, seed);
      cold_times.add(c);
      warm_times.add(w);
      if (rep == 0) {
        cold = std::move(c);
        warm_cache = w.cache;
      } else {
        identical = identical && passes_identical(cold, c);
      }
      identical = identical && passes_identical(cold, w);
    }

    if (pi == 0) {
      // Sampler overhead gate on the small preset: a third warm pass with
      // the 100 ms sampler attached must stay bit-identical and spend <1%
      // of the pass inside sampler callbacks.
      const PassStats tele =
          run_pass(preset, *cache, load, parallelism, seed,
                   /*with_telemetry=*/true);
      identical = identical && passes_identical(cold, tele);
      tele_wall = tele.wall_seconds;
      tele_busy = tele.sampler_busy_seconds;
      tele_samples = tele.samples;
      tele_overhead =
          tele.wall_seconds > 0.0 ? tele_busy / tele.wall_seconds : 0.0;
      telemetry_gate_ok = tele_overhead < 0.01;
      std::printf(
          "%8s      telemetry: %llu samples @ %.0fms, overhead %.4f%% "
          "(gate <1%%) %s\n",
          preset.name, static_cast<unsigned long long>(tele_samples),
          kTelemetryPeriodS * 1e3, tele_overhead * 100.0,
          telemetry_gate_ok ? "ok" : "FAIL");
    }
    all_identical = all_identical && identical;

    const double cold_wall = median(cold_times.wall);
    const double warm_wall = median(warm_times.wall);
    const double cold_tput = preset.sessions / cold_wall;
    const double warm_tput = preset.sessions / warm_wall;
    const SetupStats setup = measure_setup();
    const double setup_speedup = setup.warm_seconds > 0.0
                                     ? setup.cold_seconds / setup.warm_seconds
                                     : 0.0;
    std::printf("%8s %4zu %9zu  %12.2f %12.2f %13.1fx %10s\n", preset.name,
                preset.n, preset.sessions, cold_tput, warm_tput, setup_speedup,
                identical ? "yes" : "NO");

    std::fprintf(out,
                 "    {\"preset\": \"%s\", \"n\": %zu, \"k\": %zu, "
                 "\"sessions\": %zu, \"beta_bits\": %zu,\n"
                 "     \"outputs_identical\": %s,\n",
                 preset.name, preset.n, preset.k, preset.sessions,
                 core::ProblemSpec{.m = 4, .t = 2, .d1 = 8, .d2 = 6, .h = 8}
                     .beta_bits(),
                 identical ? "true" : "false");
    print_counters(out, "cold_cache", cold.cache);
    std::fprintf(out, ",\n");
    print_counters(out, "warm_cache", warm_cache);
    std::fprintf(out,
                 ",\n"
                 "     \"cold_wall_seconds\": %.6f, "
                 "\"warm_wall_seconds\": %.6f,\n"
                 "     \"cold_throughput_sessions_per_sec\": %.4f, "
                 "\"warm_throughput_sessions_per_sec\": %.4f,\n"
                 "     \"cold_latency_p50_seconds\": %.6f, "
                 "\"cold_latency_p95_seconds\": %.6f,\n"
                 "     \"warm_latency_p50_seconds\": %.6f, "
                 "\"warm_latency_p95_seconds\": %.6f,\n"
                 "     \"cold_setup_wall_seconds\": %.9f, "
                 "\"warm_setup_wall_seconds\": %.9f,\n"
                 "     \"setup_speedup_cold_vs_warm\": %.2f}%s\n",
                 cold_wall, warm_wall, cold_tput, warm_tput,
                 median(cold_times.p50), median(cold_times.p95),
                 median(warm_times.p50), median(warm_times.p95),
                 setup.cold_seconds, setup.warm_seconds, setup_speedup,
                 pi + 1 < std::size(kPresets) ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Sampler overhead on the small preset (see the header comment). All
  // leaves except the gate verdict and the period are wall-clock-derived —
  // bench_compare.py classifies them as noisy; gate_pass flipping means the
  // sampler got two orders of magnitude slower, which IS a regression.
  std::fprintf(out,
               "  \"telemetry\": {\"period_seconds\": %.3f, "
               "\"samples\": %llu,\n"
               "    \"wall_seconds\": %.6f, \"sampler_overhead_seconds\": "
               "%.6f,\n"
               "    \"overhead_ratio\": %.6f, \"gate_ratio\": 0.01, "
               "\"gate_pass\": %s},\n",
               kTelemetryPeriodS,
               static_cast<unsigned long long>(tele_samples), tele_wall,
               tele_busy, tele_overhead,
               telemetry_gate_ok ? "true" : "false");
  // Real-socket frame round trips over loopback (see the header comment).
  // frames / payload_bytes are exact; the latency/wall leaves are noisy.
  const TcpLoopbackStats tcp = measure_tcp_loopback();
  std::printf(
      "\n     tcp loopback: %llu frames x %zu B, round trip p50 %.0f us "
      "p95 %.0f us\n",
      static_cast<unsigned long long>(tcp.frames), tcp.payload_bytes,
      tcp.p50 * 1e6, tcp.p95 * 1e6);
  std::fprintf(out,
               "  \"tcp_loopback\": {\"frames\": %llu, "
               "\"payload_bytes\": %zu,\n"
               "    \"latency_p50_seconds\": %.9f, "
               "\"latency_p95_seconds\": %.9f,\n"
               "    \"wall_seconds\": %.6f}\n",
               static_cast<unsigned long long>(tcp.frames), tcp.payload_bytes,
               tcp.p50, tcp.p95, tcp.wall);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return all_identical && telemetry_gate_ok ? 0 : 1;
}

// Golden-file tests for the observability exporters: a fixed-seed framework
// run must produce byte-identical deterministic metrics JSON and Chrome
// trace JSON at parallelism 1, 2 and hardware concurrency, and those bytes
// must match the checked-in goldens (tests/golden/). A diff here means the
// exporter format, the instrumentation coverage or the protocol's operation
// sequence changed — all of which should be deliberate, reviewed changes.
//
// Regenerate the goldens after a deliberate change with:
//   PPGR_UPDATE_GOLDEN=1 ./build/tests/metrics_export_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/framework.h"

#ifndef PPGR_GOLDEN_DIR
#define PPGR_GOLDEN_DIR "tests/golden"
#endif

namespace ppgr::core {
namespace {

using group::GroupId;
using group::make_group;
using mpz::ChaChaRng;

FrameworkResult run_at(std::size_t parallelism) {
  const auto g = make_group(GroupId::kDlTest256);
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
  cfg.n = 5;
  cfg.k = 2;
  cfg.group = g.get();
  cfg.dot_field = &default_dot_field();
  cfg.parallelism = parallelism;
  cfg.metrics = true;

  ChaChaRng rng{2024};
  AttrVec v0(cfg.spec.m), w(cfg.spec.m);
  for (auto& x : v0) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
  for (auto& x : w) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d2);
  std::vector<AttrVec> infos;
  for (std::size_t j = 0; j < cfg.n; ++j) {
    AttrVec v(cfg.spec.m);
    for (auto& x : v) x = rng.below_u64(std::uint64_t{1} << cfg.spec.d1);
    infos.push_back(std::move(v));
  }
  return run_framework(cfg, v0, w, infos, rng);
}

std::string golden_path(const char* name) {
  return std::string{PPGR_GOLDEN_DIR} + "/" + name;
}

void check_golden(const char* name, const std::string& produced) {
  const std::string path = golden_path(name);
  if (std::getenv("PPGR_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{path};
    ASSERT_TRUE(out) << "cannot write " << path;
    out << produced;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in{path};
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with PPGR_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(produced, expected.str())
      << name << " drifted from its golden; if the change is deliberate, "
      << "regenerate with PPGR_UPDATE_GOLDEN=1";
}

TEST(MetricsExport, DeterministicJsonBitIdenticalAcrossParallelism) {
  const auto serial = run_at(1);
  ASSERT_NE(serial.metrics, nullptr);
  ASSERT_NE(serial.spans, nullptr);
  ASSERT_NE(serial.comm, nullptr);
  const std::string metrics_json =
      serial.metrics->to_json(/*include_timing=*/false);
  const std::string trace_json =
      serial.spans->chrome_trace_json(/*deterministic=*/true);
  const std::string comm_json = serial.comm->to_json();
  const std::string comm_trace_json = serial.comm->chrome_trace_json();

  const auto two = run_at(2);
  EXPECT_EQ(metrics_json, two.metrics->to_json(false));
  EXPECT_EQ(trace_json, two.spans->chrome_trace_json(true));
  EXPECT_EQ(comm_json, two.comm->to_json());
  EXPECT_EQ(comm_trace_json, two.comm->chrome_trace_json());

  std::size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 2;
  const auto many = run_at(hw);
  EXPECT_EQ(metrics_json, many.metrics->to_json(false));
  EXPECT_EQ(trace_json, many.spans->chrome_trace_json(true));
  EXPECT_EQ(comm_json, many.comm->to_json());
  EXPECT_EQ(comm_trace_json, many.comm->chrome_trace_json());
}

TEST(MetricsExport, MetricsJsonMatchesGolden) {
  const auto result = run_at(1);
  check_golden("metrics_small.json",
               result.metrics->to_json(/*include_timing=*/false));
}

TEST(MetricsExport, ChromeTraceMatchesGolden) {
  const auto result = run_at(1);
  check_golden("trace_small.json",
               result.spans->chrome_trace_json(/*deterministic=*/true));
}

TEST(MetricsExport, CommJsonMatchesGolden) {
  const auto result = run_at(1);
  check_golden("comm_small.json", result.comm->to_json());
}

TEST(MetricsExport, CommChromeTraceMatchesGolden) {
  const auto result = run_at(1);
  check_golden("comm_trace_small.json", result.comm->chrome_trace_json());
}

TEST(MetricsExport, DisabledByDefault) {
  // cfg.metrics defaults to false: no registries allocated, no counts.
  const auto g = make_group(GroupId::kDlTest256);
  FrameworkConfig cfg;
  cfg.spec = ProblemSpec{.m = 3, .t = 1, .d1 = 6, .d2 = 4, .h = 5};
  cfg.n = 3;
  cfg.k = 1;
  cfg.group = g.get();
  cfg.dot_field = &default_dot_field();
  ChaChaRng rng{7};
  const std::vector<AttrVec> infos{{1, 2, 3}, {9, 4, 2}, {5, 6, 1}};
  const auto result = run_framework(cfg, {0, 0, 0}, {1, 1, 1}, infos, rng);
  EXPECT_EQ(result.metrics, nullptr);
  EXPECT_EQ(result.spans, nullptr);
  EXPECT_EQ(result.comm, nullptr);
  // The replayable byte-trace pillar stays on regardless.
  EXPECT_GT(result.trace.total_bytes(), 0u);
}

}  // namespace
}  // namespace ppgr::core

// Turns a workload's session records into the benchmark's metrics, checks
// its outputs, and writes the result line and the span file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome accounting over every session the run attempted.
struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // one line per mismatch or failure
};

/// Oracle mismatches, failures, and — on a trace run — any session whose
/// traced ranks, β or wire bytes differ from its untraced run.
[[nodiscard]] Verdict check(const RunResult& run);

/// Untraced run: the session-level metrics a user of the system sees.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const RunResult& run,
                                                     const Verdict& verdict);

/// Traced run: per-layer metrics, including the mpz kernel calibration.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const RunResult& run);

/// Benchmark-side spans at three levels sharing a session id — session,
/// then run_framework or submit..take, then the program's phase spans — as
/// Chrome trace-event JSON.
void write_spans(const std::string& path, const RunResult& run);

/// The result object: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(const Verdict& verdict,
                                      const std::vector<Metric>& metrics);

}  // namespace perfbench

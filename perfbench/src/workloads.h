// The two benchmark workloads. Each drives the program only through its
// public entry points — core::run_framework (the ppgr_cli path) and
// engine::SessionEngine::submit/take (the ppgr_server path) — and returns
// one SessionRecord per session.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "record.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON written at exit (trace runs)
};

struct RunResult {
  /// Communication metrics average the fault-free HE sessions among the
  /// schedule's first comm_sessions, which every run completes whatever its
  /// speed, so they are exact.
  std::size_t comm_sessions = 1;
  /// The end-to-end sample: untraced sessions in the timed window. On a
  /// trace run this is the first half, which the traced half replays.
  std::vector<SessionRecord> untraced;
  /// Trace runs only: the same session indices re-run with every
  /// observability layer on.
  std::vector<SessionRecord> traced;
  std::vector<double> setup_s;  // one entry per set-up repetition
  double window_s = 0.0;        // first submit .. last completion (untraced)
  std::size_t threads = 1;      // pool threads a session fans out over
  // engine-mix, from the engine that ran the traced half (or the only one)
  ppgr::engine::PrecomputeStats cache;
  std::size_t peak_in_flight = 0;
};

[[nodiscard]] bool is_workload(const std::string& name);
[[nodiscard]] RunResult run_workload(const Options& opt);

}  // namespace perfbench

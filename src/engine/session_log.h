// Wide-event session log and post-mortem bundles.
//
// Two export formats close the observability loop at session granularity:
//
//  - "ppgr.session.v1": ONE JSON line per completed session — the wide
//    event. Everything an operator greps for lives on that line: spec
//    shape, outcome, per-phase ops/messages/bytes, retry counters, cache
//    interactions, the audit verdict and (for faulted sessions) the fault
//    coordinates. Appended to a JSONL stream by examples/ppgr_server
//    --session-log-out.
//
//  - "ppgr.postmortem.v1": the forensic bundle written when a session
//    faults — the wide event, the router's fault report (the full
//    injection log), the session's audit report and (optionally) the last
//    live-telemetry snapshot, in one self-contained document. Every block
//    but the snapshot is deterministic. Written atomically (tmp + rename),
//    so a crash mid-write never leaves a torn bundle.
//
// Both are observation-only renderings of a SessionResult; nothing here
// touches engine state.
#pragma once

#include <string>

#include "engine/engine.h"

namespace ppgr::engine {

/// Request context the result alone does not carry.
struct SessionLogInfo {
  std::string group_name;
  std::size_t n = 0;
  std::size_t k = 0;
};

/// One "ppgr.session.v1" JSON object on a single line, no trailing newline.
[[nodiscard]] std::string session_wide_event_json(const SessionResult& res,
                                                  const SessionLogInfo& info);

/// The "ppgr.postmortem.v1" bundle. `snapshot_jsonl` is an optional
/// "ppgr.telemetry.v1" line to embed (empty = omitted).
[[nodiscard]] std::string postmortem_json(const SessionResult& res,
                                          const SessionLogInfo& info,
                                          const std::string& snapshot_jsonl);

/// Atomically writes the bundle to `dir`/session-<id>.postmortem.json
/// (write to a .tmp sibling, then rename). Returns the final path, or ""
/// with *err set (when non-null) on failure.
[[nodiscard]] std::string write_postmortem(const std::string& dir,
                                           const SessionResult& res,
                                           const SessionLogInfo& info,
                                           const std::string& snapshot_jsonl,
                                           std::string* err);

}  // namespace ppgr::engine

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
// Both are observation-only renderings of a SessionResult alone (it carries
// the request's group, n and k); nothing here touches engine state. The
// cache, audit-summary and fault objects are the rollup's own renderers
// (CacheCounters::append_json, AuditReport::append_summary_json,
// append_fault_json), so the two exports cannot drift apart.
#pragma once

#include <string>

#include "engine/engine.h"

namespace ppgr::engine {

/// One "ppgr.session.v1" JSON object on a single line, no trailing newline.
[[nodiscard]] std::string session_wide_event_json(const SessionResult& res);

/// The "ppgr.postmortem.v1" bundle. `snapshot_jsonl` is an optional
/// "ppgr.telemetry.v1" line to embed (empty = omitted).
[[nodiscard]] std::string postmortem_json(const SessionResult& res,
                                          const std::string& snapshot_jsonl);

/// Atomically writes the bundle to `dir`/session-<id>.postmortem.json
/// (write to a .tmp sibling, then rename). Returns the final path, or ""
/// with *err set (when non-null) on failure.
[[nodiscard]] std::string write_postmortem(const std::string& dir,
                                           const SessionResult& res,
                                           const std::string& snapshot_jsonl,
                                           std::string* err);

}  // namespace ppgr::engine

#!/usr/bin/env python3
"""Noise-aware comparison of benchmark/metrics JSON reports.

Used by the `bench-regress` CI leg (scripts/ci.sh) to gate performance
regressions against checked-in baselines:

  bench_compare.py BASELINE CURRENT [BASELINE2 CURRENT2 ...] \\
      [--wall-tolerance 0.20]

Each (baseline, current) pair must have the same JSON shape (same bench,
same configuration); any number of pairs is gated in one invocation — one
shared code path classifies and compares the leaves of every report kind.
Leaves are classified by key:

  - *noisy* leaves — wall-clock and anything derived from it (keys matching
    "wall", "speedup", "latency", "throughput", "total_seconds",
    latency-histogram bins, or host facts like "hardware_concurrency") —
    vary run to run; a relative drift beyond the tolerance prints a WARN
    but never fails the gate. Simulated *virtual* network seconds are NOT
    noisy: they are a deterministic function of the run and compare
    exactly. Fault-injection/recovery counters ("ppgr.fault.v1", engine
    outcome rollups) are likewise seeded and deterministic, and are forced
    into the exact class even when a noisy substring (e.g. "latency")
    would otherwise match; so are the accel_* fixed-base and
    batch-inverse counters — they count algorithm invocations, not time,
    and must never drift silently;
  - every other numeric leaf (operation counts, cache hit/miss counts,
    message counts, byte totals, rounds, parameters) is deterministic by
    construction, so any drift at all is a FAIL: the protocol, the codecs
    or the instrumentation changed and the baseline must be regenerated
    deliberately.

Exit status: 0 = clean or warnings only, 1 = deterministic drift or shape
mismatch, 2 = usage/IO error, 3 = a baseline file does not exist (first run
on a fresh checkout / new bench: bootstrap it by copying the current
report). Works on BENCH_parallel.json, BENCH_engine.json, ppgr.metrics.v1
and ppgr.comm.v1 documents alike (the classification is by key, not
schema).
"""

import argparse
import json
import os
import sys

NOISY_KEY_PARTS = (
    "wall",
    "speedup",
    "latency",  # per-session latency percentiles in BENCH_engine.json
    "throughput",  # sessions/sec in BENCH_engine.json
    "total_seconds",  # wall-clock op-latency totals in ppgr.metrics.v1
    "hardware_concurrency",
    "ge_ns",  # latency histogram bin floors
    # Live-telemetry observables (engine rollup "latency"/"health" sections,
    # BENCH_engine.json "telemetry" block): wall-clock-derived by design.
    "queue_wait",  # queue_wait_p50_seconds / queue_wait_p99_seconds
    "run_duration",  # run_duration_p50_seconds / run_duration_p99_seconds
    "overhead",  # sampler overhead ratio in BENCH_engine.json
    "samples",  # sampler tick count — period / scheduling dependent
    "stalls",  # watchdog observation count — snapshot-timing dependent
    "uptime",
    "per_event",  # calibrated flight-recorder record() cost (BENCH_engine)
)

# Fault-injection and channel-recovery observables (ppgr.fault.v1 sections,
# engine per-outcome rollups) are seeded and schedule-independent: they
# compare EXACTLY, even where a substring above would otherwise classify
# them as noisy (e.g. the injected-delay counter lives next to latency
# keys). Checked before the noisy classification.
EXACT_KEY_PARTS = (
    "accel",  # accel_* fixed-base/batch-inverse counters
    "injected",  # injected_drop/.../injected_crash/injected_total
    "retransmits",
    "crc_detected",
    "duplicates_dropped",
    "reorders_healed",
    "timeouts",
    "giveups",
    "fault",  # fault coordinates, fault counters blocks
    "outcome",  # engine per-outcome counts ("outcomes": {"ok": .., ..})
    "dropped_parties",
    "active_parties",
    # Conformance-audit and flight-recorder observables (engine rollup
    # "audit" block, BENCH_engine.json "flight" block, ppgr.audit.v1):
    # counts of deterministic events, gated exactly.
    "events_recorded",  # flight events per pass — a pure function of the run
    "drifted",  # sessions whose audit found divergence
    "findings",
    "checkpoints",
    "gate_pass",  # overhead-budget verdicts flip only on real regressions
)


def is_forced_exact(path):
    leaf = path.rsplit(".", 1)[-1]
    return any(part in leaf for part in EXACT_KEY_PARTS)


def is_noisy(path):
    # Deterministic fault/recovery counters win over every noisy pattern.
    if is_forced_exact(path):
        return False
    # Latency histogram bins hold wall-clock distributions: both the bin
    # floors and the per-bin counts are timing-dependent.
    if ".bins[" in path:
        return True
    leaf = path.rsplit(".", 1)[-1]
    return any(part in leaf for part in NOISY_KEY_PARTS)


def load_json(name):
    """Loads a JSON document, exiting with status 2 on IO/parse errors."""
    try:
        with open(name, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {name}: {e}", file=sys.stderr)
        sys.exit(2)


class Comparison:
    def __init__(self, wall_tolerance):
        self.wall_tolerance = wall_tolerance
        self.failures = []
        self.warnings = []
        self.exact_checked = 0
        self.noisy_checked = 0

    def fail(self, msg):
        self.failures.append(msg)

    def warn(self, msg):
        self.warnings.append(msg)

    def compare(self, path, base, cur):
        if type(base) is not type(cur) and not (
            isinstance(base, (int, float)) and isinstance(cur, (int, float))
        ):
            self.fail(
                f"{path}: type changed "
                f"({type(base).__name__} -> {type(cur).__name__})"
            )
            return
        if isinstance(base, dict):
            for key in base.keys() | cur.keys():
                sub = f"{path}.{key}" if path else key
                if key not in base:
                    self.fail(f"{sub}: new key not in baseline")
                elif key not in cur:
                    self.fail(f"{sub}: key missing from current report")
                else:
                    self.compare(sub, base[key], cur[key])
        elif isinstance(base, list):
            if len(base) != len(cur):
                self.fail(
                    f"{path}: length changed ({len(base)} -> {len(cur)})"
                )
                return
            for i, (b, c) in enumerate(zip(base, cur)):
                self.compare(f"{path}[{i}]", b, c)
        elif isinstance(base, bool) or not isinstance(base, (int, float)):
            self.exact_checked += 1
            if base != cur:
                self.fail(f"{path}: {base!r} -> {cur!r}")
        elif is_noisy(path):
            self.noisy_checked += 1
            ref = max(abs(base), abs(cur))
            if ref == 0:
                return
            rel = abs(cur - base) / ref
            if rel > self.wall_tolerance:
                self.warn(
                    f"{path}: {base:.6g} -> {cur:.6g} "
                    f"({rel * 100:.1f}% > {self.wall_tolerance * 100:.0f}% "
                    f"tolerance)"
                )
        else:
            self.exact_checked += 1
            if base != cur:
                delta = cur - base
                self.fail(f"{path}: {base} -> {cur} (delta {delta:+})")


def compare_pair(baseline, current, wall_tolerance):
    """Compares one (baseline, current) report pair; returns the
    Comparison with its findings (messages prefixed with the pair name)."""
    if not os.path.exists(baseline):
        print(
            f"error: baseline {baseline} does not exist.\n"
            f"  First run for this bench? Bootstrap the baseline from the "
            f"current report and commit it:\n"
            f"    cp {current} {baseline}\n"
            f"  (see scripts/ci.sh bench-regress for the regeneration "
            f"workflow)",
            file=sys.stderr,
        )
        sys.exit(3)
    cmp = Comparison(wall_tolerance)
    cmp.compare("", load_json(baseline), load_json(current))
    for msg in cmp.warnings:
        print(f"WARN  [{baseline}] {msg}")
    for msg in cmp.failures:
        print(f"FAIL  [{baseline}] {msg}")
    print(
        f"bench_compare: {baseline} vs {current}: "
        f"{cmp.exact_checked} deterministic leaves checked exactly, "
        f"{cmp.noisy_checked} noisy leaves within "
        f"{wall_tolerance * 100:.0f}% tolerance, "
        f"{len(cmp.warnings)} warning(s), {len(cmp.failures)} failure(s)"
    )
    return cmp


def main():
    parser = argparse.ArgumentParser(
        description="Compare benchmark JSON report(s) against baseline(s)."
    )
    parser.add_argument(
        "reports",
        nargs="+",
        metavar="BASELINE CURRENT",
        help="one or more (baseline, current) file pairs",
    )
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=0.20,
        metavar="FRAC",
        help="relative drift allowed on noisy (timing) leaves before a "
        "warning is printed (default 0.20 = 20%%)",
    )
    args = parser.parse_args()
    if len(args.reports) < 2 or len(args.reports) % 2 != 0:
        print(
            "error: reports must come in (baseline, current) pairs",
            file=sys.stderr,
        )
        return 2

    failures = 0
    for i in range(0, len(args.reports), 2):
        cmp = compare_pair(
            args.reports[i], args.reports[i + 1], args.wall_tolerance
        )
        failures += len(cmp.failures)

    if failures:
        print(
            "bench_compare: deterministic drift — if deliberate, regenerate "
            "the baseline (see scripts/ci.sh bench-regress)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a fresh BENCH_service.json against the committed baseline.

Usage: compare_bench_service.py <current.json> <baseline.json> [--factor 2.0]

Emits a GitHub Actions `::warning::` annotation for every per-thread-count
timing that regressed by more than the factor, and for shape drift (job
count, cache miss counts, instance evaluations).  Timing warnings never fail
the job — CI runners are noisy, so a slowdown is a flag for a human, not a
gate; the hard gates (every job completes, shared artifacts computed exactly
once) live inside bench_service itself, which exits nonzero when they break.

Exit codes: 0 = compared (with or without warnings), 2 = malformed input.
"""

import argparse
import json
import sys


def warn(message: str) -> None:
    print(f"::warning ::{message}")


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)
    if data.get("bench") != "matrix_service":
        print(f"error: {path} is not a matrix_service summary",
              file=sys.stderr)
        sys.exit(2)
    return data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="regression threshold (default: 2.0x)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)

    warnings = 0
    baseline_threads = {t["threads"]: t for t in baseline.get("threads", [])}
    for timing in current.get("threads", []):
        ref = baseline_threads.get(timing["threads"])
        if ref is None:
            warn(f"threads={timing['threads']}: no baseline to compare "
                 "against")
            warnings += 1
            continue
        cur_ms = timing.get("ms", 0.0)
        ref_ms = ref.get("ms", 0.0)
        if ref_ms > 0 and cur_ms > args.factor * ref_ms:
            warn(f"threads={timing['threads']}: {cur_ms:.3f} ms vs baseline "
                 f"{ref_ms:.3f} ms (>{args.factor:.1f}x regression)")
            warnings += 1

    # Shape drift: correctness signals, not noise.  bench_service already
    # hard-fails on the ones that matter (completion, compiled-test misses);
    # these catch a silently changed workload so stale baselines get
    # refreshed instead of quietly comparing different work.
    for field in ("jobs", "compiled_cache_misses", "instance_evaluations"):
        if current.get(field, 0) != baseline.get(field, 0):
            warn(f"{field} changed: {current.get(field)} vs baseline "
                 f"{baseline.get(field)} (workload drift — refresh the "
                 "baseline)")
            warnings += 1

    if warnings == 0:
        fastest = min((t.get("ms", 0.0) for t in current.get("threads", [])),
                      default=0.0)
        print(f"OK: within {args.factor:.1f}x of baseline "
              f"(fastest pass {fastest:.3f} ms)")
    else:
        print(f"{warnings} warning(s) — see annotations above")
    return 0


if __name__ == "__main__":
    sys.exit(main())

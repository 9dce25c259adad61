#!/usr/bin/env python3
"""Benchmark regression gate.

Compares freshly generated ``BENCH_*.json`` files in the working tree
against the committed baselines (``git show <ref>:<file>``) and fails
when any ``headline_*`` metric regresses beyond tolerance.

Direction is inferred from the metric name: ``speedup``/``throughput``/
``ops``/``completed`` metrics must not drop, while ``ns``/``us``/``ms``/
``latency``/``sweeps``/``migrations``/``wasted`` metrics must not grow.
Metrics that match neither set are reported but not gated. A headline
present in the baseline but absent from the fresh file is reported
``MISSING`` and fails the gate, so a bench cannot drop a gated number
unnoticed.

Usage (from the repo root, after re-running the benches)::

    python3 tools/bench_gate.py --tolerance 0.5 \
        --override headline_sweeps_to_converge=0.0 \
        --override headline_p95_sweep_ns=3.0

``--tolerance`` is the default allowed relative slip (0.5 = may be 50%
worse than baseline); ``--override KEY=TOL`` pins a per-metric
tolerance, with 0.0 meaning "must not be worse at all". A baseline of
zero on a lower-is-better metric gates exactly: any increase fails.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

HIGHER_BETTER = ("speedup", "throughput", "ops_per", "hit_rate", "completed")
LOWER_BETTER = ("_ns", "_us", "_ms", "latency", "sweeps", "migrations",
                "wasted", "rollback", "misses", "fairness")


def direction(metric: str) -> str:
    name = metric.lower()
    if any(tok in name for tok in HIGHER_BETTER):
        return "higher"
    if any(tok in name for tok in LOWER_BETTER):
        return "lower"
    return "ungated"


def load_baseline(ref: str, path: str) -> dict | None:
    try:
        blob = subprocess.run(
            ["git", "show", f"{ref}:{path}"],
            capture_output=True, text=True, check=True,
        ).stdout
    except subprocess.CalledProcessError:
        return None  # new bench: nothing to gate against yet
    return json.loads(blob)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*",
                    help="BENCH_*.json files to gate (default: all in cwd)")
    ap.add_argument("--baseline-ref", default="HEAD",
                    help="git ref holding the committed baselines")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="default allowed relative slip (0.5 = 50%% worse)")
    ap.add_argument("--override", action="append", default=[],
                    metavar="KEY=TOL", help="per-metric tolerance override")
    args = ap.parse_args()

    overrides: dict[str, float] = {}
    for item in args.override:
        key, _, tol = item.partition("=")
        if not tol:
            ap.error(f"--override needs KEY=TOL, got {item!r}")
        overrides[key] = float(tol)

    files = args.files or sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("bench_gate: no BENCH_*.json files found", file=sys.stderr)
        return 1

    rows = []
    failures = 0
    for path in files:
        with open(path) as f:
            current = json.load(f)
        baseline = load_baseline(args.baseline_ref, os.path.relpath(path))
        if baseline is None:
            rows.append((path, "(new bench)", "-", "-", "-", "-", "PASS"))
            continue
        headlines = sorted(k for k in current if k.startswith("headline_"))
        if not headlines:
            print(f"bench_gate: {path} has no headline_* metrics",
                  file=sys.stderr)
            failures += 1
            continue
        for metric in sorted(k for k in baseline
                             if k.startswith("headline_") and k not in current):
            rows.append((path, metric, f"{baseline[metric]:g}", "-",
                         "-", "-", "MISSING"))
            failures += 1
        for metric in headlines:
            if metric not in baseline:
                rows.append((path, metric, "-", f"{current[metric]:g}",
                             "-", "-", "NEW"))
                continue
            base, cur = float(baseline[metric]), float(current[metric])
            tol = overrides.get(metric, args.tolerance)
            sense = direction(metric)
            if sense == "ungated":
                rows.append((path, metric, f"{base:g}", f"{cur:g}",
                             "-", "-", "INFO"))
                continue
            if base == 0.0:
                # Relative change is undefined; gate absolutely.
                regressed = cur > 0.0 if sense == "lower" else False
                delta = "n/a" if cur == base else f"+{cur:g}"
            else:
                change = (cur - base) / base
                regressed = (change > tol) if sense == "lower" \
                    else (change < -tol)
                delta = f"{change:+.1%}"
            verdict = "FAIL" if regressed else "PASS"
            failures += regressed
            rows.append((path, metric, f"{base:g}", f"{cur:g}",
                         delta, f"{tol:g}", verdict))

    widths = [max(len(str(r[i])) for r in rows + [
        ("file", "metric", "baseline", "current", "change", "tol", "verdict")
    ]) for i in range(7)]
    header = ("file", "metric", "baseline", "current", "change", "tol",
              "verdict")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))

    if failures:
        print(f"\nbench_gate: {failures} regression(s) beyond tolerance "
              f"or missing headline(s) "
              f"(baseline {args.baseline_ref})", file=sys.stderr)
        return 1
    print(f"\nbench_gate: all headline metrics within tolerance "
          f"(baseline {args.baseline_ref})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark regression gate.

Checks that every freshly generated ``BENCH_*.json`` file in the
working tree has the schema-v2 layout the bench harness writes, then
compares its ``headlines`` against the committed baseline
(``git show <ref>:<file>``).

Each baseline headline declares its own gate: ``better`` (``higher`` or
``lower``) and ``tolerance``, the relative slip allowed in the worse
direction (0.5 = may be 50% worse, 0.0 = may not be worse at all). The
gate always uses the **baseline's** declaration, so a regenerated file
cannot loosen its own gate. A lower-is-better baseline of zero fails on
any increase. A headline that declares no valid direction or tolerance
fails, and so does a baseline headline missing from the fresh file
(``MISSING``), so a bench cannot drop a gated number unnoticed.

Usage (from the repo root, after re-running the benches)::

    python3 tools/bench_gate.py
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

TOP_KEYS = {"bench", "schema_version", "mode", "machine", "params",
            "headlines", "results"}
HEADLINE_KEYS = {"value", "unit", "better", "tolerance"}


def declaration_error(decl: object) -> str | None:
    """Why a headline declaration is unusable, or None if it is fine."""
    if not isinstance(decl, dict):
        return "not an object"
    if decl.get("better") not in ("higher", "lower"):
        return f"declares no direction (better={decl.get('better')!r})"
    tol = decl.get("tolerance")
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or tol < 0:
        return f"declares no tolerance (tolerance={tol!r})"
    value = decl.get("value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return f"value is not a number ({value!r})"
    if not isinstance(decl.get("unit"), str):
        return "declares no unit"
    return None


def layout_errors(data: object, stem: str) -> list[str]:
    """Schema-v2 layout problems of one ``BENCH_<stem>.json`` file."""
    if not isinstance(data, dict):
        return ["top level is not an object"]
    errors = []
    if set(data) != TOP_KEYS:
        errors.append(f"top-level keys {sorted(data)} != {sorted(TOP_KEYS)}")
    if data.get("bench") != stem:
        errors.append(f"bench id {data.get('bench')!r} != {stem!r}")
    if data.get("schema_version") != 2:
        errors.append(f"schema_version {data.get('schema_version')!r} != 2")
    if data.get("mode") not in ("quick", "full"):
        errors.append(f"mode {data.get('mode')!r} is not quick/full")
    machine = data.get("machine")
    if not isinstance(machine, dict) or {"nproc", "profile"} - machine.keys():
        errors.append("machine lacks nproc/profile")
    if not isinstance(data.get("params"), dict):
        errors.append("params is not an object")
    headlines = data.get("headlines")
    if not isinstance(headlines, dict) or not headlines:
        errors.append("no headlines")
    else:
        for name, decl in headlines.items():
            if isinstance(decl, dict) and set(decl) != HEADLINE_KEYS:
                errors.append(f"{name}: keys {sorted(decl)} != "
                              f"{sorted(HEADLINE_KEYS)}")
    results = data.get("results")
    if not isinstance(results, list) or not results \
            or not all(isinstance(r, dict) for r in results):
        errors.append("results is not a non-empty list of objects")
    elif any(set(r) != set(results[0]) for r in results):
        errors.append("results rows do not share one key set")
    return errors


def gate(current: dict, baseline: dict | None) -> tuple[list[tuple], int]:
    """Gates one fresh file against its baseline.

    Returns ``(rows, failures)``; each row is ``(metric, baseline,
    current, change, tolerance, verdict)``.
    """
    rows: list[tuple] = []
    failures = 0
    fresh = current.get("headlines") or {}
    for metric, decl in fresh.items():
        why = declaration_error(decl)
        if why is not None:
            rows.append((metric, "-", "-", "-", "-", f"FAIL: fresh {why}"))
            failures += 1
    if baseline is None:
        return rows + [("(new bench)", "-", "-", "-", "-", "PASS")], failures
    base_heads = baseline.get("headlines")
    if not isinstance(base_heads, dict):
        return rows + [("(baseline)", "-", "-", "-", "-",
                        "FAIL: baseline has no v2 headlines")], failures + 1
    for metric, decl in base_heads.items():
        why = declaration_error(decl)
        if why is not None:
            rows.append((metric, "-", "-", "-", "-", f"FAIL: baseline {why}"))
            failures += 1
            continue
        if metric not in fresh:
            rows.append((metric, f"{decl['value']:g}", "-", "-", "-",
                         "MISSING"))
            failures += 1
            continue
        if declaration_error(fresh[metric]) is not None:
            continue  # already failed above
        base, cur = float(decl["value"]), float(fresh[metric]["value"])
        tol, sense = float(decl["tolerance"]), decl["better"]
        if base == 0.0:
            # Relative change is undefined; gate absolutely.
            regressed = cur > 0.0 if sense == "lower" else cur < 0.0
            delta = "n/a" if cur == base else f"{cur - base:+g}"
        else:
            change = (cur - base) / abs(base)
            regressed = change > tol if sense == "lower" else change < -tol
            delta = f"{change:+.1%}"
        failures += regressed
        rows.append((metric, f"{base:g}", f"{cur:g}", delta, f"{tol:g}",
                     "FAIL" if regressed else "PASS"))
    for metric in fresh:
        if metric not in base_heads:
            rows.append((metric, "-", f"{fresh[metric].get('value')}", "-",
                         "-", "NEW"))
    return rows, failures


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
    args = ap.parse_args()

    files = args.files or sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("bench_gate: no BENCH_*.json files found", file=sys.stderr)
        return 1

    table = []
    failures = 0
    for path in files:
        with open(path) as f:
            current = json.load(f)
        stem = os.path.basename(path)[len("BENCH_"):-len(".json")]
        for err in layout_errors(current, stem):
            table.append((path, "(layout)", "-", "-", "-", "-",
                          f"FAIL: {err}"))
            failures += 1
        baseline = load_baseline(args.baseline_ref, os.path.relpath(path))
        rows, failed = gate(current, baseline)
        table += [(path,) + row for row in rows]
        failures += failed

    header = ("file", "metric", "baseline", "current", "change", "tol",
              "verdict")
    widths = [max(len(str(r[i])) for r in table + [header])
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for r in table:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))

    if failures:
        print(f"\nbench_gate: {failures} failure(s): regression beyond "
              f"tolerance, missing headline or bad layout "
              f"(baseline {args.baseline_ref})", file=sys.stderr)
        return 1
    print(f"\nbench_gate: all headline metrics within tolerance "
          f"(baseline {args.baseline_ref})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

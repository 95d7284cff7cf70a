"""Reference outputs and the value-based check.

``reference.json`` holds, for every operation of every workload in both
profiles, the output the code produced when it was captured, and how many
trace accesses the operation analyses. Capture it again only from code whose
outputs are known to be right:

    python3 dmcbench/reference.py

Outputs are compared by value and by key or column name, never as text, so an
output that only gains keys or CSV columns still matches.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Compared exactly: measured counts and sums, and printed text. Every other
# number is a model value, compared to a relative 1e-12.
EXACT_KEYS = frozenset({
    "n_accesses", "n_cold", "n_objects", "reuse_dmd", "cold_dmd", "histogram_bins",
    "histogram_total", "histogram_sha256", "measured", "stdout",
})
REL_TOL = 1e-12


def compare(expected, actual, path: str = "", exact: bool = False) -> list[str]:
    """Problems found comparing `actual` with `expected`; empty when they agree.

    Keys and list items that `expected` lacks are ignored; everything it has
    must be present and agree.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path or '/'}: expected an object, got {type(actual).__name__}"]
        problems = []
        for key, value in expected.items():
            if key not in actual:
                problems.append(f"{path}/{key}: missing")
            else:
                problems += compare(value, actual[key], f"{path}/{key}", exact or key in EXACT_KEYS)
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: expected {len(expected)} items, got {actual!r:.80}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]", exact)]
    numbers = (int, float)
    if (not exact and isinstance(expected, numbers) and not isinstance(expected, bool)
            and isinstance(actual, numbers) and not isinstance(actual, bool)):
        if math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        if math.isnan(expected) and math.isnan(actual):  # e.g. conv terms of a non-square image
            return []
    elif actual == expected and type(actual) is type(expected):
        return []
    return [f"{path}: expected {expected!r}, got {actual!r}"]


def load() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["profiles"]


def capture() -> dict:
    """Run every operation of every workload once, untimed, and record its output."""
    import run  # the benchmark's entry module; sets up the import path
    import workloads
    from spans import Tracer, count

    profiles = {}
    for profile in ("full", "tiny"):
        profiles[profile] = {}
        for name in workloads.WORKLOAD_NAMES:
            with run.workdir() as wd:
                workload = workloads.build(name, profile, wd)
                ops = workload.all_ops()
                entries, state = {}, {}
                for op in ops:
                    entries[op.key] = {"value": op.read(op.run(state))}
                    print(f"captured {profile} {name}: {op.key}", file=sys.stderr)
                tracer, state = Tracer(), {}
                for op in ops:
                    tracer.spans.clear()
                    direct = op.direct(tracer, state)
                    entry = entries[op.key]
                    entry["accesses"] = count(tracer.spans, "engine.stack_distances", "accesses")
                    if direct is not None:
                        problems = compare(run.direct_expectation(op, entry["value"]), direct)
                        if problems:
                            raise SystemExit(f"direct path disagrees on {op.key}: {problems[:3]}")
                profiles[profile][name] = entries
    return {"captured_from": run.run_metadata(seed=None), "profiles": profiles}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run

    run.use_checkout_sources()
    data = capture()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")

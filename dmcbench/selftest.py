"""Self-test of the benchmark, in seconds: every workload at tiny sizes in
both the timed and the traced run, the reference check's rules, and the fast
distance engine against the oracle on traces small enough for the oracle.

    python3 dmcbench/run.py --selftest
"""

from __future__ import annotations

import json
import math

import run
import workloads
from reference import compare


def _check_compare() -> list[str]:
    cases = [
        # (expected, actual, should agree)
        ({"total": 1.0}, {"total": 1.0, "new_key": 2}, True),
        ({"rows": [{"n": 8, "ratio": 1.5}]}, {"rows": [{"n": 8, "ratio": 1.5, "col": 0}]}, True),
        ({"total": 1.0}, {"total": 1.0 + 1e-14}, True),
        ({"total": 1.0}, {"total": 1.0 + 1e-11}, False),
        ({"total": float("nan")}, {"total": float("nan")}, True),
        ({"total": float("nan")}, {"total": 1.0}, False),
        ({"reuse_dmd": 1.0}, {"reuse_dmd": 1.0 + 1e-15}, False),
        ({"histogram_sha256": "ab"}, {"histogram_sha256": "ac"}, False),
        ({"total": 1.0}, {}, False),
        ({"rows": [{"n": 8}]}, {"rows": []}, False),
    ]
    return [f"compare({e}, {a}) should {'agree' if ok else 'disagree'}"
            for e, a, ok in cases if (compare(e, a) == []) != ok]


def _check_oracle() -> list[str]:
    from dmclab import tracegen
    from dmclab.core import build_layout
    from dmclab.engine import apply_block_transform, stack_distances_fast, stack_distances_oracle

    sizes = workloads.SIZES["tiny"]
    n, k = sizes["conv"]
    conv = tracegen.gen_conv(n, n, k)
    traces = {
        f"conv n={n}": conv,
        f"conv n={n} block=4": apply_block_transform(conv, build_layout(conv.objects, 4)),
        f"fft n={sizes['fft']}": tracegen.gen_fft(sizes["fft"]),
    }
    for alg, n_range, extra in sizes["sweeps"]:
        xs = workloads.parse_range(extra["x"]) if "x" in extra else [None]
        for n in workloads.parse_range(n_range):
            for x in xs:
                params, _ = workloads.sweep_point(alg, n, extra.get("k"), extra.get("c"), x)
                traces[f"{alg} {params}"] = tracegen.generate(tracegen.GenSpec(alg, params))
    return [f"fast engine differs from the oracle on {label}"
            for label, trace in traces.items()
            if stack_distances_fast(trace) != stack_distances_oracle(trace)]


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = []
    declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    if declared != (run.END_TO_END, run.PER_LAYER):
        failures.append("BENCHMARK.json metrics differ from the ones run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOAD_NAMES):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOAD_NAMES")
    failures += _check_compare()
    for name in workloads.WORKLOAD_NAMES:
        for trace in (False, True):
            result, details = run.run_workload(name, seed=1, seconds=0, trace=trace,
                                               profile="tiny")
            label = f"{name} trace={int(trace)}"
            failures += [f"{label}: {p}" for p in details["problems"]]
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']}/{result['attempted']} failed")
            # trace.overhead_s is a difference of two timings and may be negative
            bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])
                   or (v["value"] < 0 and k != "trace.overhead_s")]
            if bad:
                failures.append(f"{label}: bad metric values {bad}")
            if not trace and any(v["value"] <= 0 for v in result["metrics"].values()):
                failures.append(f"{label}: an end-to-end metric is not positive")
            print(f"selftest {label}: {result['attempted']} operations checked")
    failures += _check_oracle()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0

#!/usr/bin/env python3
"""dmclab benchmark.

    python3 dmcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dmcbench/run.py --selftest

Run from the root of a checkout; it measures the dmclab sources under ``src/``.
``--trace 0`` times whole operation sequences through ``dmclab.cli.main`` and
reports the end-to-end metrics. ``--trace 1`` repeats each sequence with spans
and with the same work done stage by stage, and reports the per-layer metrics.
Every output is checked against ``reference.json``. The last line of stdout is
the JSON result. Workloads and metrics are described in ``dmcbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import reference
from spans import Tracer, children, count, duration, median_over_passes, summary_rows, total

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "tracegen.generate_s": "s",
    "tracegen.accesses_per_s": "1/s",
    "tracegen.objects": "count",
    "core.trace_init_s": "s",
    "core.write_dmt_s": "s",
    "core.read_dmt_s": "s",
    "core.dmt_mb": "MB",
    "core.trace_bytes_per_access": "B",
    "engine.block_transform_s": "s",
    "engine.stack_distances_s": "s",
    "engine.distances_per_s": "1/s",
    "engine.accumulate_s": "s",
    "engine.distances_bytes_per_access": "B",
    "engine.n_cold": "count",
    "engine.histogram_bins": "count",
    "models.eval_s": "s",
    "models.calls": "count",
    "advisor.call_s": "s",
    "advisor.calls": "count",
    "cli.gen_s": "s",
    "cli.analyze_s": "s",
    "cli.sweep_s": "s",
    "cli.model_s": "s",
    "cli.advise_s": "s",
    "cli.self_s": "s",
    "cli.sweep_points": "count",
    "cli.sweep_pool_speedup": "ratio",
    "trace.overhead_s": "s",
}

# "Process start to ready": a fresh interpreter imports dmclab, builds the CLI
# parser and answers one trivial command.
SETUP_SNIPPET = ("import sys; sys.path.insert(0, 'src'); "
                 "from dmclab import cli; sys.exit(cli.main(['model', '--list']))")
SETUP_REPEATS = 11

# Hand-measured stage times for conv n=256 k=3 (ROADMAP baseline, Python 3.11,
# 2 CPUs): (stage, metric, seconds per call as (low, high), calls per pass).
BASELINE = [
    ("gen_conv", "tracegen.generate_s", (0.45, 0.45), 1),
    ("Trace(...) validation", "core.trace_init_s", (0.16, 0.16), 1),
    ("write_dmt", "core.write_dmt_s", (0.42, 0.42), 1),
    ("read_dmt", "core.read_dmt_s", (2.09, 2.09), 2),
    ("apply_block_transform b=4", "engine.block_transform_s", (0.66, 0.66), 1),
    ("stack_distances_fast", "engine.stack_distances_s", (4.0, 5.2), 2),
    ("accumulate_dmd", "engine.accumulate_s", (0.11, 0.11), 2),
]
# A stage counts as reproduced within this factor of the baseline range; the
# in-process spread seen while scoping was 3.74-4.86 s on the engine (+-13%).
BASELINE_NOISE = 1.25


def use_checkout_sources() -> None:
    """Import dmclab from this checkout's src/, not from an installed copy."""
    src = ROOT / "src"
    if not (src / "dmclab" / "__init__.py").is_file():
        raise SystemExit(f"dmcbench: no dmclab sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = OUT_DIR / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


# --- run metadata --------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_metadata(seed) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")  # read without importing
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "DMC_THREADS": os.environ.get("DMC_THREADS"),
        "numpy": numpy_version,
        "seed": seed,
        "machine": platform.machine(),
    }


# --- checks ----------------------------------------------------------------------


def direct_expectation(op, expected):
    """What the traced form of `op` must return, given its reference output."""
    if op.measured_sweep:
        return {"measured": [row["measured"] for row in expected["rows"]]}
    return expected


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def fail(self, op, problems: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.key}: {'; '.join(problems[:3])}")


def _check(tally: Tally, op, expected, actual) -> None:
    problems = reference.compare(expected, actual)
    if problems:
        tally.fail(op, problems)


# --- timed (untraced) passes --------------------------------------------------------------


def run_ops(ops, refs: dict, tally: Tally) -> dict:
    """Run one pass through the timed forms; checks are not timed."""
    state: dict = {}
    wall = 0.0
    by_kind: dict[str, float] = {}
    for op in ops:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run(state)
        except Exception as exc:  # an operation failing must not stop the run
            tally.fail(op, [f"{type(exc).__name__}: {exc}"])
            continue
        finally:
            elapsed = time.perf_counter() - t0
            wall += elapsed
            by_kind[op.kind] = by_kind.get(op.kind, 0.0) + elapsed
        try:
            _check(tally, op, refs[op.key]["value"], op.read(result))
        except Exception as exc:
            tally.fail(op, [f"reading output: {type(exc).__name__}: {exc}"])
        del result
    state.clear()
    return {
        "wall": wall,
        "by_kind": by_kind,
        "accesses": sum(refs[op.key]["accesses"] for op in ops),
        "calls": sum(op.kind != "lib" for op in ops),
    }


def _repeat(seconds: float, body) -> None:
    """Call body() at least once, and again while another call fits in `seconds`."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def measure_setup() -> float:
    """Median over fresh interpreters; the first, which may compile bytecode, is dropped."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        # No timeout: with one, subprocess polls for the child's exit at up to
        # 50 ms intervals, which would quantize the measurement.
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def timed_run(workload, refs, rng, seconds, tally) -> tuple[dict, dict]:
    setup_s = measure_setup()
    passes = []
    _repeat(seconds, lambda: passes.append(run_ops(workload.make_pass(rng), refs, tally)))
    work = [p["accesses"] or p["calls"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "throughput_per_s": statistics.median(w / p["wall"] if p["wall"] else 0.0
                                              for w, p in zip(work, passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return metrics, {"passes": len(passes), "pass_walls": [p["wall"] for p in passes]}


# --- traced passes ------------------------------------------------------------------------------


def traced_ops(ops, refs: dict, tally: Tally, tracer) -> float:
    """One pass with spans: each step runs the CLI call, then the same work
    stage by stage. Returns the pass's traced wall time: CLI spans, or the
    direct form less its extra stages for library operations."""
    state: dict = {}
    direct_state: dict = {}
    wall = 0.0
    for op in ops:
        expected = refs[op.key]["value"]
        with tracer.span("step") as step:
            step["op"] = op.key
            if op.kind != "lib":
                tally.attempted += 1
                try:
                    with tracer.span(f"cli.{op.kind}", points=op.sweep_points) as span:
                        result = op.run(state)
                    _check(tally, op, expected, op.read(result))
                except Exception as exc:
                    tally.fail(op, [f"{type(exc).__name__}: {exc}"])
                finally:
                    wall += duration(span)
            tally.attempted += 1
            try:
                with tracer.span("direct") as span:
                    actual = op.direct(tracer, direct_state)
                if actual is not None:
                    _check(tally, op, direct_expectation(op, expected), actual)
            except Exception as exc:
                tally.fail(op, [f"direct: {type(exc).__name__}: {exc}"])
            finally:
                if op.kind == "lib":
                    extra = sum(duration(s) for s in tracer.spans
                                if s["parent"] == span["id"] and s["extra"])
                    wall += duration(span) - extra
    return wall


def probe_bytes(workload) -> tuple[float, float]:
    """tracemalloc bytes per access of a small trace of the workload's kernel:
    the trace itself, and the distance engine's peak. tracemalloc makes the
    engine ~50x slower, so the full-size traces are not probed."""
    if workload.probe is None:
        return 0.0, 0.0
    import workloads  # these import dmclab, found only after use_checkout_sources()
    from dmclab import tracegen
    from dmclab.engine import stack_distances_fast

    alg, n = workload.probe
    spec = tracegen.GenSpec(alg, workloads.sweep_point(alg, n, k=3)[0])
    tracemalloc.start()
    try:
        trace = tracegen.generate(spec)
        trace_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        stack_distances_fast(trace)
        engine_bytes = tracemalloc.get_traced_memory()[1] - trace_bytes
    finally:
        tracemalloc.stop()
    return trace_bytes / len(trace), engine_bytes / len(trace)


def pool_speedup(ops, default_times: float, refs, tally) -> float:
    """Measured sweeps with DMC_THREADS=1, against the same sweeps at the default."""
    sweeps = [op for op in ops if op.measured_sweep]
    if not sweeps:
        return 0.0
    saved = os.environ.get("DMC_THREADS")
    os.environ["DMC_THREADS"] = "1"
    try:
        serial = run_ops(sweeps, refs, tally)["wall"]
    finally:
        if saved is None:
            del os.environ["DMC_THREADS"]
        else:
            os.environ["DMC_THREADS"] = saved
    return serial / default_times if default_times else 0.0


def layer_metrics(spans: list[dict], overhead: float, probe: tuple, speedup: float) -> dict:
    def m(fn):
        return median_over_passes(spans, fn)

    def rate(num_name, counter, den_name):
        def fn(group):
            busy = total(group, den_name)
            return count(group, num_name, counter) / busy if busy else 0.0
        return m(fn)

    def cli_self(group):
        kids = children(group)
        out = 0.0
        for step in (s for s in group if s["name"] == "step"):
            cli = [c for c in kids[step["id"]] if c["name"].startswith("cli.")]
            if not cli:
                continue
            direct = next(c for c in kids[step["id"]] if c["name"] == "direct")
            stages = sum(duration(c) for c in kids[direct["id"]] if not c["extra"])
            out += duration(cli[0]) - stages
        return out

    metrics = {
        "tracegen.generate_s": m(lambda g: total(g, "tracegen.generate")),
        "tracegen.accesses_per_s": rate("tracegen.generate", "accesses", "tracegen.generate"),
        "tracegen.objects": m(lambda g: count(g, "tracegen.generate", "objects")),
        "core.trace_init_s": m(lambda g: total(g, "core.trace_init")),
        "core.write_dmt_s": m(lambda g: total(g, "core.write_dmt")),
        "core.read_dmt_s": m(lambda g: total(g, "core.read_dmt")),
        "core.dmt_mb": m(lambda g: count(g, "core.write_dmt", "bytes") / 1e6),
        "core.trace_bytes_per_access": probe[0],
        "engine.block_transform_s": m(lambda g: total(g, "engine.block_transform")),
        "engine.stack_distances_s": m(lambda g: total(g, "engine.stack_distances")),
        "engine.distances_per_s": rate("engine.stack_distances", "accesses",
                                       "engine.stack_distances"),
        "engine.accumulate_s": m(lambda g: total(g, "engine.accumulate")),
        "engine.distances_bytes_per_access": probe[1],
        "engine.n_cold": m(lambda g: count(g, "engine.accumulate", "n_cold")),
        "engine.histogram_bins": m(lambda g: count(g, "engine.accumulate", "histogram_bins")),
        "models.eval_s": m(lambda g: total(g, "models.eval")),
        "models.calls": m(lambda g: count(g, "models.eval", "calls")),
        "advisor.call_s": m(lambda g: total(g, "advisor.call")),
        "advisor.calls": m(lambda g: count(g, "advisor.call", "calls")),
        "cli.self_s": m(cli_self),
        "cli.sweep_points": m(lambda g: count(g, "cli.sweep", "points")),
        "cli.sweep_pool_speedup": speedup,
        "trace.overhead_s": overhead,
    }
    for kind in ("gen", "analyze", "sweep", "model", "advise"):
        metrics[f"cli.{kind}_s"] = m(lambda g, kind=kind: total(g, f"cli.{kind}"))
    return {name: metrics[name] for name in PER_LAYER}


def traced_run(workload, refs, rng, seconds, tally, seed) -> tuple[dict, dict]:
    tracer = Tracer()
    pairs = []
    last = {}

    def body():
        ops = workload.make_pass(rng)
        untraced = run_ops(ops, refs, tally)
        tracer.workload_id = f"{workload.name}/seed{seed}/pass{len(pairs)}"
        traced = traced_ops(ops, refs, tally, tracer)
        pairs.append((untraced["wall"], traced))
        last.update(ops=ops, untraced=untraced)

    _repeat(seconds, body)
    overhead = statistics.median(t - u for u, t in pairs)
    speedup = pool_speedup(last["ops"], last["untraced"]["by_kind"].get("sweep", 0.0), refs, tally)
    metrics = layer_metrics(tracer.spans, overhead, probe_bytes(workload), speedup)
    return metrics, {"passes": len(pairs), "spans": tracer.spans}


# --- reporting -----------------------------------------------------------------------------------


def print_spans(spans: list[dict]) -> None:
    print(f"{'span':28s} {'count':>7s} {'total s':>10s} {'self s':>10s}")
    for name, n, total_s, self_s in summary_rows(spans):
        print(f"{name:28s} {n:7d} {total_s:10.4f} {self_s:10.4f}")


def print_baseline(metrics: dict) -> None:
    print("conv n=256 k=3 stages, traced run beside the ROADMAP hand-measured baseline:")
    print(f"{'stage':28s} {'measured s':>11s} {'baseline s':>11s}  status")
    for stage, name, (low, high), calls in BASELINE:
        value = metrics[name] / calls
        ok = low / BASELINE_NOISE <= value <= high * BASELINE_NOISE
        base = f"{low:.2f}" if low == high else f"{low:.1f}-{high:.1f}"
        print(f"{stage:28s} {value:11.3f} {base:>11s}  {'within noise' if ok else 'OUTSIDE'}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, profile: str = "full"):
    """Run one workload; returns (result line, details)."""
    import workloads  # imports dmclab, found only after use_checkout_sources()

    refs = reference.load()[profile][name]
    tally = Tally()
    rng = random.Random(seed)
    with workdir() as wd:
        workload = workloads.build(name, profile, wd)
        if trace:
            values, details = traced_run(workload, refs, rng, seconds, tally, seed)
        else:
            values, details = timed_run(workload, refs, rng, seconds, tally)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    details["problems"] = tally.problems
    details["error_rate"] = tally.failed / max(tally.attempted, 1)
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("large_conv_file", "large_fft_mem",
                                               "sweep_small", "model_advise"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny sizes: every workload, both runs, plus the oracle cross-check")
    args = parser.parse_args(argv)
    use_checkout_sources()
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")

    meta = {**run_metadata(args.seed), "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds}
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    meta["passes"] = details["passes"]

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "result": result, "error_rate": details["error_rate"],
              "problems": details["problems"]}
    if args.trace:
        record["spans"] = details["spans"]
        print_spans(details["spans"])
    else:
        record["pass_walls"] = details["pass_walls"]
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in details["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# meta {json.dumps(meta)}")
    print(f"# error_rate {details['error_rate']} ({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace and args.workload == "large_conv_file":
        print_baseline({k: v["value"] for k, v in result["metrics"].items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads, as lists of operations.

Each operation has two forms that do the same work:

- ``run`` is the timed form. It goes through ``dmclab.cli.main`` in-process,
  as a user of the CLI does (``large_fft_mem`` instead makes the two library
  calls a user of the package makes).
- ``direct`` is the traced form. It calls the public functions of each module
  stage by stage, each inside a span, so the per-layer numbers come from
  outside the program.

``read`` turns what ``run`` returned into the value checked against the
reference. It runs after the timed call, so checking is never timed.

Sizes are part of a workload's definition. The seed only orders operations,
and on ``model_advise`` also draws which catalogue entry each call uses.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from dmclab import advisor, cli, models, tracegen
from dmclab.core import AnalysisConfig, Trace, build_layout, read_dmt, scale_granularity, write_dmt
from dmclab.engine import accumulate_dmd, analyze_trace, apply_block_transform, stack_distances_fast

WORKLOAD_NAMES = ("large_conv_file", "large_fft_mem", "sweep_small", "model_advise")

# Per-profile sizes. "full" is the benchmark; "tiny" is the self-test, which
# runs every workload in seconds.
SIZES = {
    "full": {
        "conv": (256, 3),
        "fft": 2**15,
        "sweeps": [
            ("conv", "8..64:8", {"k": 3}),
            ("matmul", "4..32:4", {}),
            ("im2col", "8..48:8", {"k": 3}),
            ("batchconv", "16,32", {"k": 3, "c": 8, "x": "1,2,4,8"}),
            ("fft", "2..4096", {}),
            ("fftconv2d", "2..16", {}),
        ],
        # small traces of the same kernels, for the tracemalloc probe
        "probe": {"large_conv_file": ("conv", 32), "large_fft_mem": ("fft", 1024),
                  "sweep_small": ("conv", 32)},
    },
    "tiny": {
        "conv": (16, 3),
        "fft": 64,
        "sweeps": [
            ("conv", "8..16:8", {"k": 3}),
            ("matmul", "4..8:4", {}),
            ("im2col", "8..16:8", {"k": 3}),
            ("batchconv", "8", {"k": 3, "c": 4, "x": "1,2"}),
            ("fft", "2..64", {}),
            ("fftconv2d", "2..4", {}),
        ],
        "probe": {"large_conv_file": ("conv", 8), "large_fft_mem": ("fft", 64),
                  "sweep_small": ("conv", 8)},
    },
}


class OpFailed(Exception):
    """An operation returned a non-zero exit code."""


@dataclass
class Op:
    key: str  # names the operation's reference entry
    kind: str  # CLI subcommand, or "lib" for a library call
    run: Callable[[dict], Any]  # timed form; the dict carries state between ops of a pass
    direct: Callable[[Any, dict], Any]  # traced form: (tracer, state) -> checked value or None
    read: Callable[[Any], Any]  # output of `run` -> value checked against the reference
    sweep_points: int = 0
    measured_sweep: bool = False  # a sweep that generates and analyses traces


@dataclass
class Workload:
    name: str
    groups: list[list[Op]]  # a pass runs one op drawn from each group
    fixed_head: int  # leading groups that keep their place; the rest are shuffled
    probe: tuple[str, int] | None = None  # (kernel, n) of the tracemalloc probe

    def make_pass(self, rng: random.Random) -> list[Op]:
        ops = [rng.choice(group) for group in self.groups]
        tail = ops[self.fixed_head:]
        rng.shuffle(tail)
        return ops[: self.fixed_head] + tail

    def all_ops(self) -> list[Op]:
        return [op for group in self.groups for op in group]


# --- calling the CLI ----------------------------------------------------------


def call_cli(argv: list[str]) -> str:
    """Run ``dmclab.cli.main`` in-process; return its stdout, raise on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"exit code {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _flags(params: dict) -> list[str]:
    argv = []
    for name, value in params.items():
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, str(value)]
    return argv


def _key(argv: list[str], workdir: str) -> str:
    return " ".join(argv).replace(workdir + os.sep, "")


# --- outputs checked against the reference --------------------------------------


def report_summary(report: dict, pin_cold: bool = True) -> dict:
    """The checked part of an analysis report. The histogram is pinned by its
    bin count, total and a digest of its sorted (distance, count) pairs."""
    hist = sorted((int(d), int(c)) for d, c in report["histogram"].items())
    out = {
        "n_accesses": report["n_accesses"],
        "n_cold": report["n_cold"],
        "reuse_dmd": report["reuse_dmd"],
        "histogram_bins": len(hist),
        "histogram_total": sum(c for _, c in hist),
        "histogram_sha256": hashlib.sha256(json.dumps(hist).encode()).hexdigest(),
    }
    if pin_cold:
        out["cold_dmd"] = report["cold_dmd"]
    return out


def _number(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            pass
    return text


def read_csv(path: str) -> dict:
    with open(path, newline="") as fh:
        return {"rows": [{k: _number(v) for k, v in row.items()} for row in csv.DictReader(fh)]}


# --- traced stages --------------------------------------------------------------


def analyze_stages(tracer, trace: Trace, config: AnalysisConfig) -> dict:
    """`analyze_trace`, one span per stage; returns the report summary."""
    measured = trace
    if config.block_size > 1:
        with tracer.span("engine.block_transform"):
            measured = apply_block_transform(trace, build_layout(trace.objects, config.block_size))
    with tracer.span("engine.stack_distances", accesses=len(measured)):
        distances = stack_distances_fast(measured)
    with tracer.span("engine.touched_objects"):
        sizes = [obj.size for obj in measured.touched_objects()]
    with tracer.span("engine.accumulate") as span:
        report = accumulate_dmd(distances, config, sizes)
        span["counts"].update(n_cold=report.n_cold, histogram_bins=len(report.histogram))
    with tracer.span("engine.check_and_scale"):
        report.check()
        if config.granularity_bits > 1:
            report = scale_granularity(report, config.granularity_bits)
    pin = not (config.block_size > 1 and config.cold_policy == "per_object")
    return report_summary(report.to_json_dict(), pin)


def generate_stage(tracer, spec: tracegen.GenSpec) -> Trace:
    with tracer.span("tracegen.generate") as span:
        trace = tracegen.generate(spec)
        span["counts"].update(accesses=len(trace), objects=len(trace.objects))
    # validated construction is not on the CLI's path; it is timed apart
    with tracer.span("core.trace_init", extra=True):
        Trace(trace.objects, trace.accesses)
    return trace


def _calls(tracer, layer: str, fns: list[Callable[[], Any]]) -> None:
    with tracer.span(layer, calls=len(fns)):
        for fn in fns:
            fn()


# --- large_conv_file --------------------------------------------------------------


def _conv_file(profile: str, workdir: str) -> Workload:
    n, k = SIZES[profile]["conv"]
    dmt = os.path.join(workdir, f"conv{n}.dmt")
    direct_dmt = os.path.join(workdir, f"conv{n}.direct.dmt")
    spec = tracegen.GenSpec("conv", tracegen.ConvParams(n, n, k))
    gen_argv = ["gen", "--alg", "conv", "--n", str(n), "--k", str(k), "--out", dmt]

    def gen_direct(tracer, state):
        trace = generate_stage(tracer, spec)
        with tracer.span("core.write_dmt") as span:
            write_dmt(trace, direct_dmt)
        span["counts"]["bytes"] = os.path.getsize(direct_dmt)
        return None

    gen = Op(_key(gen_argv, workdir), "gen", lambda state: call_cli(gen_argv), gen_direct,
             lambda stdout: {"stdout": stdout.replace(workdir + os.sep, "")})

    def analyze_op(flags: dict) -> Op:
        report = os.path.join(workdir, "report.json")
        argv = ["analyze", dmt, *_flags(flags), "--report", report]
        config = AnalysisConfig(granularity_bits=flags.get("bits", 1),
                                block_size=flags.get("block", 1), cold_policy=flags["cold"])
        pin = not (config.block_size > 1 and config.cold_policy == "per_object")

        def read(_stdout):
            with open(report) as fh:
                return report_summary(json.load(fh), pin)

        def direct(tracer, state):
            with tracer.span("core.read_dmt"):
                trace = read_dmt(direct_dmt)
            return analyze_stages(tracer, trace, config)

        return Op(_key(argv, workdir), "analyze", lambda state: call_cli(argv), direct, read)

    groups = [[gen],
              [analyze_op({"cold": "per_object"})],
              [analyze_op({"bits": 32, "block": 4, "cold": "footprint_bound"})]]
    return Workload("large_conv_file", groups, fixed_head=1)


# --- large_fft_mem -------------------------------------------------------------------


def _fft_mem(profile: str, workdir: str) -> Workload:
    n = SIZES[profile]["fft"]
    spec = tracegen.GenSpec("fft", tracegen.FftParams(n))
    config = AnalysisConfig(cold_policy="footprint_bound")

    def gen_run(state):
        state["trace"] = tracegen.generate(spec)
        return state["trace"]

    def gen_direct(tracer, state):
        state["trace"] = generate_stage(tracer, spec)
        return None

    def analyze_direct(tracer, state):
        return analyze_stages(tracer, state.pop("trace"), config)

    groups = [
        [Op(f"tracegen.generate fft n={n}", "lib", gen_run, gen_direct,
            lambda trace: {"n_accesses": len(trace), "n_objects": len(trace.objects)})],
        [Op(f"analyze_trace fft n={n} cold_policy=footprint_bound", "lib",
            lambda state: analyze_trace(state.pop("trace"), config), analyze_direct,
            lambda report: report_summary(report.to_json_dict()))],
    ]
    return Workload("large_fft_mem", groups, fixed_head=2)


# --- sweeps ---------------------------------------------------------------------------


def parse_range(text: str) -> list[int]:
    """The CLI's range syntax: 'a,b,c', 'a..b' (doubling) or 'a..b:step'."""
    if "," in text:
        return [int(v) for v in text.split(",")]
    if ".." not in text:
        return [int(text)]
    span, _, step = text.partition(":")
    lo, hi = (int(v) for v in span.split(".."))
    if step:
        return list(range(lo, hi + 1, int(step)))
    values = []
    while lo <= hi:
        values.append(lo)
        lo *= 2
    return values


def sweep_point(alg: str, n: int, k=None, c=None, x=None):
    """(generator parameters, model call) of one sweep point, as `dmclab sweep` builds them."""
    if alg == "matmul":
        return tracegen.MatmulParams(n, n, n), functools.partial(models.model_matmul, n, n, n)
    if alg == "conv":
        return tracegen.ConvParams(n, n, k), functools.partial(models.model_conv, n, n, k)
    if alg == "im2col":
        return tracegen.Im2colParams(n, k), functools.partial(models.model_im2col, n, k)
    if alg == "batchconv":
        return tracegen.BatchParams(n, k, c, x), functools.partial(models.model_batched, n, k, c, x)
    if alg == "fft":
        return tracegen.FftParams(n), functools.partial(models.model_fft_bounds, n)
    return tracegen.FftParams(n), functools.partial(models.model_fftconv_lower, n)


def _sweep_op(alg: str, n_range: str, extra: dict, mode: str, workdir: str) -> Op:
    out = os.path.join(workdir, "sweep.csv")
    argv = ["sweep", "--alg", alg, "--n", n_range, *_flags(extra), f"--{mode}", "--out", out]
    xs = parse_range(extra["x"]) if "x" in extra else [None]
    points = [(tracegen.GenSpec(alg, params), model)
              for n in parse_range(n_range) for x in xs
              for params, model in [sweep_point(alg, n, extra.get("k"), extra.get("c"), x)]]

    def direct(tracer, state):
        if mode == "model":
            _calls(tracer, "models.eval", [model for _, model in points])
            return None
        measured = []
        for spec, model in points:
            trace = generate_stage(tracer, spec)
            measured.append(analyze_stages(tracer, trace, AnalysisConfig())["reuse_dmd"])
            _calls(tracer, "models.eval", [model])
        return {"measured": measured}

    return Op(_key(argv, workdir), "sweep", lambda state: call_cli(argv), direct,
              lambda _stdout: read_csv(out), sweep_points=len(points),
              measured_sweep=mode != "model")


def _gqa_sweep_op(heads: str, budget: float, q: str | None, workdir: str) -> Op:
    out = os.path.join(workdir, "gqa.csv")
    extra = {"heads": heads, "budget": budget, **({"q": q} if q else {})}
    argv = ["sweep", "--alg", "gqa", *_flags(extra), "--out", out]
    calls = []
    for h in parse_range(heads):
        qs = parse_range(q) if q else range(1, h + 1)
        calls += [functools.partial(advisor.advise_gqa_dim, budget, h, g, l=64)
                  for g in qs if h % g == 0]
    return Op(_key(argv, workdir), "sweep", lambda state: call_cli(argv),
              lambda tracer, state: _calls(tracer, "advisor.call", calls),
              lambda _stdout: read_csv(out), sweep_points=len(calls))


def _sweep_small(profile: str, workdir: str) -> Workload:
    groups = [[_sweep_op(alg, n_range, extra, "both", workdir)]
              for alg, n_range, extra in SIZES[profile]["sweeps"]]
    return Workload("sweep_small", groups, fixed_head=0)


# --- model_advise ------------------------------------------------------------------------


def _fft_components(n: int):
    res = models.model_fft_components(n)
    return [res.distant_count(i) for i in range(min(n // 2, 16))]


def _channels(n: int, k: int):
    c_star = advisor.crossover_channels(n, k)
    return models.model_batched(n, k, c_star - 1, c_star - 1) if c_star > 2 else None


def _conv(n=None, k=None, h=None, w=None):
    return models.model_conv(h or n, w or n, k)


# (name, parameter sets, direct call). Every MODEL_REGISTRY name appears once.
MODEL_CALLS = [
    ("matmul", [dict(m=64, n=64, l=64), dict(m=128, n=256, l=512), dict(m=1000, n=10, l=1000)],
     lambda p: models.model_matmul(p["m"], p["n"], p["l"])),
    ("conv", [dict(n=64, k=3), dict(n=256, k=3), dict(n=1024, k=5), dict(h=480, w=640, k=3)],
     lambda p: _conv(**p)),
    ("batchconv", [dict(n=64, k=3, c=8, x=2), dict(n=256, k=3, c=16, x=4),
                   dict(n=1024, k=5, c=32, x=32)],
     lambda p: models.model_batched(p["n"], p["k"], p["c"], p["x"])),
    ("im2col", [dict(n=64, k=3), dict(n=512, k=5)], lambda p: models.model_im2col(p["n"], p["k"])),
    ("blockedconv", [dict(n=256, k=3, b=4), dict(n=1024, k=3, b=16)],
     lambda p: models.model_blocked_conv(p["n"], p["k"], p["b"])),
    ("fftcomponents", [dict(n=64), dict(n=1024), dict(n=65536)], lambda p: _fft_components(p["n"])),
    ("fftbounds", [dict(n=64), dict(n=4096), dict(n=2**20)],
     lambda p: models.model_fft_bounds(p["n"])),
    ("fftconv", [dict(n=64), dict(n=512), dict(n=4096)],
     lambda p: models.model_fftconv_lower(p["n"])),
    ("attention", [dict(l=64, d=512, heads=8), dict(l=2048, d=4096, heads=32)],
     lambda p: models.model_attention(p["l"], p["d"], p["heads"])),
    ("mha", [dict(l=64, d=512, heads=8), dict(l=2048, d=4096, heads=32)],
     lambda p: models.model_attention(p["l"], p["d"], p["heads"])),
    ("gqa", [dict(l=64, d=512, heads=8, q=2), dict(l=2048, d=4096, heads=32, q=4)],
     lambda p: models.model_gqa(p["l"], p["d"], p["heads"], p["q"])),
    ("transformer", [dict(layers=12, l=1024, d=768, f=3072), dict(layers=2, l=64, d=128, f=512)],
     lambda p: models.model_transformer(p["layers"], p["l"], p["d"], p["f"])),
    ("cold", [dict(m=1000), dict(m=10**6)], lambda p: models.model_cold(p["m"])),
]

ADVISE_CALLS = [
    ("batch", [dict(n=1024, k=3, c=10), dict(n=256, k=3, c=64), dict(n=4096, k=5, c=12)],
     lambda p: advisor.advise_batch(p["n"], p["k"], p["c"])),
    ("channels", [dict(n=1024, k=3), dict(n=256, k=5)], lambda p: _channels(p["n"], p["k"])),
    ("gqa-dim", [dict(budget=1e5, heads=8, q=2), dict(budget=1e9, heads=32, q=4),
                 dict(budget=1e7, heads=16, q=4, include_matmul=True)],
     lambda p: advisor.advise_gqa_dim(p["budget"], p["heads"], p["q"], l=64,
                                      include_matmul=p.get("include_matmul", False))),
    ("conv-vs-fft", [dict(n=512, k=3), dict(n=64, k=7)],
     lambda p: advisor.compare_conv_fft(p["n"], p["k"])),
    ("orientation", [dict(m=2, pixels=1e6, k=3), dict(m=0.5)],
     lambda p: advisor.orientation_ratio(p["m"], p.get("pixels"), p.get("k"))),
]

# Two `sweep --model` calls per pass, one from each group, over wide ranges.
MODEL_SWEEPS = [
    [("conv", "16..65536", {"k": 3}), ("im2col", "16..4096:16", {"k": 3}),
     ("batchconv", "16..4096", {"k": 3, "c": 16, "x": "1,2,4,8,16"})],
    [("matmul", "8..8192", {}), ("fft", "2..1048576", {}), ("fftconv2d", "2..65536", {})],
]
GQA_SWEEPS = [("8,32,64,128", 1e5, None), ("16,48", 1e7, "1,2,4")]


def _call_op(command: str, layer: str, argv: list[str], call: Callable[[], Any]) -> Op:
    return Op(" ".join(argv), command, lambda state: call_cli(argv),
              lambda tracer, state: _calls(tracer, layer, [call]), json.loads)


def _model_advise(profile: str, workdir: str) -> Workload:
    groups = [[_call_op(command, layer, [command, name, *_flags(params)],
                        functools.partial(fn, params)) for params in param_sets]
              for command, layer, table in (("model", "models.eval", MODEL_CALLS),
                                            ("advise", "advisor.call", ADVISE_CALLS))
              for name, param_sets, fn in table]
    for variants in MODEL_SWEEPS:
        groups.append([_sweep_op(alg, n_range, extra, "model", workdir)
                       for alg, n_range, extra in variants])
    groups.append([_gqa_sweep_op(heads, budget, q, workdir) for heads, budget, q in GQA_SWEEPS])
    return Workload("model_advise", groups, fixed_head=0)


def build(name: str, profile: str, workdir: str) -> Workload:
    builders = {"large_conv_file": _conv_file, "large_fft_mem": _fft_mem,
                "sweep_small": _sweep_small, "model_advise": _model_advise}
    workload = builders[name](profile, workdir)
    workload.probe = SIZES[profile]["probe"].get(name)
    return workload

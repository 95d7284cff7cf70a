"""Command line front end.

Subcommands: gen (write a trace), analyze (measure a trace), model
(evaluate a closed-form cost), sweep (CSV over a parameter range),
advise (parameter recommendations).

Exit codes: 0 success, 1 usage error, 2 validation or data error.
Every command is deterministic given its flags.

`main(argv)` may be called any number of times in one process. The parser
is built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass

from dmclab import advisor, models, tracegen
from dmclab.core import (
    ANALYSIS_BYTES,
    COLD_POLICIES,
    AnalysisConfig,
    DmcError,
    TraceFormatError,
    ValidationError,
    check_memory,
    read_dmt,
    write_dmt,
)
from dmclab.engine import analyze_trace, measure

SWEEP_ACCESS_BUDGET = 10**7

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: the build reads only module constants,
    and parsing or printing usage, errors and help (at the width then) leaves it as is."""
    # the help leaves out the note on in-process calls
    parser = _Parser(prog="dmclab", description=__doc__.partition("\n\n`main")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate a trace file")
    p_gen.add_argument("--alg", required=True, choices=tracegen.ALGORITHMS)
    flags = dict.fromkeys(n for k in tracegen.KERNELS.values() for n in k.param_names)
    for name in flags:
        p_gen.add_argument(f"--{name}", type=int)
    p_gen.set_defaults(run=cmd_gen, flags=tuple(flags))
    p_gen.add_argument("--out", required=True, help="output .dmt path")

    p_an = sub.add_parser("analyze", help="measure the DMD of a trace")
    p_an.set_defaults(run=cmd_analyze)
    p_an.add_argument("trace", help="input .dmt path")
    p_an.add_argument("--oracle", action="store_true", help="use the naive engine")
    p_an.add_argument("--bits", type=int, default=1, help="data granularity s in bits")
    p_an.add_argument("--block", type=int, default=1, help="cache block size b")
    p_an.add_argument("--cold", choices=COLD_POLICIES, default="exclude")
    p_an.add_argument("--report", help="write the JSON report here instead of stdout")

    p_mod = sub.add_parser("model", help="evaluate a closed-form cost model")
    p_mod.add_argument("name", nargs="?", help="model name (see --list)")
    p_mod.add_argument("--list", action="store_true", help="list available models")
    flags = dict.fromkeys(name for names, _, _ in MODELS.values() for name in names)
    for name in flags:
        p_mod.add_argument(f"--{name}", type=int)
    p_mod.set_defaults(run=cmd_model, flags=tuple(flags))

    p_sw = sub.add_parser("sweep", help="evaluate models and/or measurements over ranges")
    p_sw.add_argument("--alg", required=True,
                      choices=tracegen.ALGORITHMS + ("gqa",))
    flags = dict.fromkeys(n for k in tracegen.KERNELS.values() for n in ("n", *k.sweep_flags))
    for name in flags:
        p_sw.add_argument(f"--{name}", help="range: 'a,b,c' or 'a..b' (doubling) or 'a..b:step'")
    p_sw.add_argument("--l", type=int, help="sequence length for gqa (default 64)")
    p_sw.add_argument("--q", help="group sizes: comma list or '1..h' for all divisors")
    p_sw.add_argument("--heads", "--h", dest="heads", help="head counts, comma separated")
    p_sw.add_argument("--budget", type=float, help="DMD budget for gqa sweeps")
    mode = p_sw.add_mutually_exclusive_group()
    mode.add_argument("--model", dest="mode", action="store_const", const="model")
    mode.add_argument("--measure", dest="mode", action="store_const", const="measure")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p_sw.set_defaults(run=cmd_sweep, mode="model", flags=(*flags, "l", "q", "heads", "budget"))
    p_sw.add_argument("--force", action="store_true",
                      help="lift the 1e7 accesses-per-point measurement budget")
    p_sw.add_argument("--out", required=True, help="output CSV path")

    p_ad = sub.add_parser("advise", help="recommend algorithmic parameters")
    p_ad.set_defaults(run=cmd_advise, flags=(
        "n", "k", "c", "m", "pixels", "heads", "q", "l", "budget", "include_matmul"))
    p_ad.add_argument("kind", choices=("batch", "channels", "gqa-dim", "conv-vs-fft", "orientation"))
    p_ad.add_argument("--n", type=int)
    p_ad.add_argument("--k", type=int)
    p_ad.add_argument("--c", type=int)
    p_ad.add_argument("--m", type=float, help="aspect ratio for orientation")
    p_ad.add_argument("--pixels", type=float)
    p_ad.add_argument("--heads", type=int)
    p_ad.add_argument("--q", type=int)
    p_ad.add_argument("--l", type=int, help="sequence length (default 64)")
    p_ad.add_argument("--budget", type=float)
    p_ad.add_argument("--include-matmul", action="store_true", default=None)

    for p in (p_gen, p_mod, p_sw, p_ad):  # each parameter flag by its spellings, for refusals
        spelling = {action.dest: "/".join(action.option_strings) for action in p._actions}
        p.set_defaults(flags={name: spelling[name] for name in p.get_default("flags")})
    return parser


def _need(args, subject: str, names, optional=None) -> dict:
    """Values of the flags `names`, all required, then of `optional`'s, each
    its default where not given; --n stands for --h and --w, never with them.
    Any other parameter flag of the subcommand given is refused, by each of its
    spellings in `flags`: `subject` does not take it."""
    optional = optional or {}
    given = {name: value for name in args.flags if (value := getattr(args, name)) is not None}
    taken = {*names, *optional, *(("n",) if "h" in names else ())}
    extra = [name for name in given if name not in taken]
    if extra:
        raise ValidationError(f"{subject} does not take " + ", ".join(args.flags[name] for name in extra))
    values = {name: given.get(name) for name in names}
    if "h" in values and "n" in given:
        if clash := [args.flags[name] for name in ("h", "w") if name in given]:
            raise ValidationError(f"{subject} does not take --n with " + ", ".join(clash))
        values["h"] = values["w"] = given["n"]
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise ValidationError("missing required flag(s): " + ", ".join(f"--{n}" for n in missing))
    return values | {name: given.get(name, default) for name, default in optional.items()}


def _gen_spec(args) -> tracegen.GenSpec:
    kernel = tracegen.KERNELS[args.alg]
    values = _need(args, args.alg, kernel.param_names)
    return tracegen.GenSpec(args.alg, kernel.params(*values.values()))


def cmd_gen(args) -> int:
    trace = tracegen.generate(_gen_spec(args))
    write_dmt(trace, args.out)
    print(f"wrote {args.out}: {len(trace.objects)} objects, {len(trace)} accesses")
    return EXIT_OK


def cmd_analyze(args) -> int:
    config = AnalysisConfig(
        granularity_bits=args.bits, block_size=args.block, cold_policy=args.cold
    )
    report = analyze_trace(read_dmt(args.trace), config, engine="oracle" if args.oracle else "fast")
    text = json.dumps(report.to_json_dict(), indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _record(result) -> dict:
    """A model's result as `terms`, `clamped` (if it has one) and `total`; a dict as it is."""
    if isinstance(result, dict):
        return result
    if not is_dataclass(result):
        return {"total": result}
    terms = {f.name: getattr(result, f.name) for f in fields(result)}
    total = terms.pop("total")
    clamped = terms.pop("clamped", None)
    out = {"terms": terms}
    if clamped is not None:
        out["clamped"] = list(clamped)
    out["total"] = total
    return out


def _fft_components(n: int) -> dict:
    res = models.model_fft_components(n)
    return {
        "terms": {
            "level_sizes": list(res.level_sizes),
            "divide_sum": res.divide_sum,
            "conquer_sum": res.conquer_sum,
            "distant_counts": {str(i): res.distant_count(i) for i in range(min(n // 2, 16))},
        },
        "total": res.divide_sum + res.conquer_sum,
    }


def _fft_bounds(n: int) -> dict:
    lower, upper = models.model_fft_bounds(n)
    return {"terms": {"lower": lower, "upper": upper}, "total": upper}


def _attention(l: int, d: int, heads: int) -> dict:
    res = models.model_attention(l, d, heads)
    return {"terms": {"head_cost": res.head_cost, "mha_cost": res.mha_cost},
            "total": res.head_cost}


def _transformer(layers: int, l: int, d: int, f: int) -> dict:
    res = models.model_transformer(layers, l, d, f)
    return {"terms": dict(res.stages), "as_printed": list(res.as_printed),
            "total": res.forward_total}


# name -> (flags, model or evaluation of the flag values, --list help)
MODELS = {
    **{alg: (kernel.param_names, kernel.model, kernel.summary)
       for alg, kernel in tracegen.KERNELS.items() if kernel.summary},
    "blockedconv": (("n", "k", "b"), models.model_blocked_conv,
                    "convolution in b-element cache blocks, idealised /sqrt(b); "
                    "does not track analyze --block"),
    "fftcomponents": (("n",), _fft_components, "transform component sums and reuse counts"),
    "fftbounds": (("n",), _fft_bounds, "transform cost bounds 6.4..6.5 n^1.5 sqrt(log2 n)"),
    "fftconv": (("n",),
                lambda n: {"total": models.model_fftconv_lower(n), "note": advisor.FFT_BOUND_NOTE},
                "transform-based convolution lower bound"),
    "attention": (("l", "d", "heads"), _attention, "single-head and multi-head attention"),
    "mha": (("l", "d", "heads"),
            lambda *values: models.model_attention(*values).mha_cost,
            "multi-head attention cost l d^3"),
    "gqa": (("l", "d", "heads", "q"), models.model_gqa, "grouped-query attention breakdown"),
    "transformer": (("layers", "l", "d", "f"), _transformer,
                    "decoder stage table and forward total"),
    "cold": (("m",), models.model_cold, "cold-miss bound m^1.5"),
}


def _flag_help(names) -> str:
    """A model's flags as `--list` prints them; --n stands for --h --w (`_need`)."""
    spelled = " ".join(f"--{name}" for name in names if name not in ("h", "w"))
    return "flags: " + ("--n | --h --w, " if "h" in names else "") + spelled


def cmd_model(args) -> int:
    if args.list or args.name is None:
        for name, (flags, _, desc) in sorted(MODELS.items()):
            print(f"{name:15s} {desc} ({_flag_help(flags)})")
        return EXIT_OK if args.list else EXIT_USAGE
    if args.name not in MODELS:
        print(f"unknown model {args.name!r}; available:", file=sys.stderr)
        for name in sorted(MODELS):
            print(f"  {name}", file=sys.stderr)
        return EXIT_USAGE
    flags, evaluate, _ = MODELS[args.name]
    params = _need(args, args.name, flags)
    out = {"formula": args.name, "params": params, **_record(evaluate(*params.values()))}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _parse_range(text: str) -> list[int]:
    """'a,b,c' list; 'a..b' doubling from a >= 1 through b; 'a..b:s' positive step s."""
    try:
        if "," in text:
            return [int(v) for v in text.split(",")]
        if ".." not in text:
            return [int(text)]
        span, _, step = text.partition(":")
        lo_s, _, hi_s = span.partition("..")
        lo, hi = int(lo_s), int(hi_s)
        if step:
            step_n = int(step)
            if step_n < 1:
                raise ValueError(step)  # reported below as a bad range
            return list(range(lo, hi + 1, step_n))
    except ValueError:
        raise ValidationError(
            f"bad range {text!r}: expected 'a,b,c', 'a..b' or 'a..b:step' with integers "
            "and a positive step"
        ) from None
    if lo < 1:
        raise ValidationError(f"bad range {text!r}: a doubling range must start at >= 1")
    vals = []
    v = lo
    while v <= hi:
        vals.append(v)
        v *= 2
    return vals


def _gqa_rows(args) -> tuple[list[dict], list[str]]:
    p = _need(args, "gqa", ("budget", "heads"), {"q": None, "l": 64})
    rows = []
    for h in _parse_range(p["heads"]):
        group_sizes = range(1, h + 1) if p["q"] in (None, "1..h") else _parse_range(p["q"])
        for q in [x for x in group_sizes if x > 0 and h % x == 0]:
            res = advisor.advise_gqa_dim(p["budget"], h, q, l=p["l"])
            rows.append(
                {"h": h, "q": q, "l": p["l"], "budget": p["budget"],
                 "d": res.d, "asymptotic_d": res.asymptotic_d}
            )
    return rows, ["h", "q", "l", "budget", "d", "asymptotic_d"]


def _sweep_points(args) -> tuple[list[dict], list[str]]:
    if args.alg == "gqa":
        if args.mode != "model":
            raise ValidationError("gqa has no trace to measure; sweep it with --model")
        return _gqa_rows(args)
    kernel = tracegen.KERNELS[args.alg]
    ranges = {name: _parse_range(text)
              for name, text in _need(args, args.alg, ("n", *kernel.sweep_flags)).items()}
    n_values = ranges.pop("n")
    header = ["n", *ranges]
    rows, specs = [], []
    for n in n_values:
        for values in itertools.product(*ranges.values()):
            flags = dict(zip(ranges, values))
            spec = tracegen.GenSpec(args.alg, kernel.point(n, flags))
            rows.append({"n": n, **flags, **kernel.columns(spec.result)})
            specs.append(spec)
    columns = list(header)
    if args.mode in ("model", "both"):
        columns += sorted({col for row in rows for col in row} - set(header))
    if args.mode in ("measure", "both"):
        columns += ["measured"]
    if args.mode == "both":
        columns += ["ratio"]

    if args.mode in ("measure", "both"):
        for row, spec in zip(rows, specs):
            count = tracegen.access_count(spec)
            if count > SWEEP_ACCESS_BUDGET and not args.force:
                point = {col: row[col] for col in header}
                raise ValidationError(
                    f"sweep point {point} needs {count} accesses "
                    f"(> {SWEEP_ACCESS_BUDGET}); pass --force to run it"
                )
            rule = tracegen.prefix_rule(spec)
            check_memory(tracegen.access_count(rule[0]) if rule else count, ANALYSIS_BYTES)
        for row, spec in zip(rows, specs):
            row["measured"] = measure(spec).reuse_dmd
            total = row["model_total"]
            row["ratio"] = row["measured"] / total if total else math.nan
    return rows, columns


def cmd_sweep(args) -> int:
    rows, columns = _sweep_points(args)
    with open(args.out, "w", newline="") as fh:
        # rows carry every column; the mode's columns are written
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def cmd_advise(args) -> int:
    kind = args.kind
    if kind == "batch":
        res = advisor.advise_batch(**_need(args, kind, ("n", "k", "c")))
        out = {"kind": kind, "recommended_x": res.recommended, "costs": res.costs}
    elif kind == "channels":
        n, k = _need(args, kind, ("n", "k")).values()
        c_star = advisor.crossover_channels(n, k)
        out = {"kind": kind, "crossover_c": c_star,
               "cost_below": models.model_batched(n, k, c_star - 1, c_star - 1).total
               if c_star > 2 else None,
               "note": f"single-batch processing beats unbatched below c={c_star}"}
    else:
        if kind == "gqa-dim":
            res = advisor.advise_gqa_dim(*_need(args, kind, ("budget", "heads", "q"),
                                                {"l": 64, "include_matmul": False}).values())
        elif kind == "conv-vs-fft":
            res = advisor.compare_conv_fft(**_need(args, kind, ("n", "k")))
        else:  # orientation
            res = advisor.orientation_ratio(**_need(args, kind, ("m",), {"pixels": None, "k": None}))
        out = {"kind": kind, **asdict(res)}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.run(args)
    except TraceFormatError as exc:
        print(f"dmclab: trace error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (DmcError, OSError, OverflowError) as exc:
        print(f"dmclab: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())

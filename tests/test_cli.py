"""Command line interface: subcommands, formats, and exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmclab import cli, models, tracegen
from dmclab.cli import main
from dmclab.engine import analyze_trace

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(path):
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def test_gen_then_analyze_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "c.dmt"
    code, out, _ = run(capsys, "gen", "--alg", "conv", "--n", "8", "--k", "2",
                       "--out", str(trace_path))
    assert code == 0
    assert "441 accesses" in out

    code, out, _ = run(capsys, "analyze", str(trace_path))
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "reuse_dmd", "cold_dmd", "n_accesses", "n_cold", "n_distinct", "histogram"
    }
    assert report["n_accesses"] == 441
    assert report["cold_dmd"] == 0.0


def test_analyze_flags(tmp_path, capsys):
    trace_path = tmp_path / "c.dmt"
    run(capsys, "gen", "--alg", "conv", "--n", "8", "--k", "2", "--out", str(trace_path))

    _, base_out, _ = run(capsys, "analyze", str(trace_path))
    base = json.loads(base_out)

    _, out, _ = run(capsys, "analyze", str(trace_path), "--bits", "16")
    assert json.loads(out)["reuse_dmd"] == pytest.approx(4 * base["reuse_dmd"])

    _, out, _ = run(capsys, "analyze", str(trace_path), "--oracle")
    assert json.loads(out) == base

    _, out, _ = run(capsys, "analyze", str(trace_path), "--cold", "footprint_bound")
    report = json.loads(out)
    assert report["cold_dmd"] == pytest.approx(report["n_cold"] ** 1.5)

    _, out, _ = run(capsys, "analyze", str(trace_path), "--block", "4")
    assert json.loads(out)["reuse_dmd"] < base["reuse_dmd"]


def test_analyze_report_file(tmp_path, capsys):
    trace_path = tmp_path / "c.dmt"
    report_path = tmp_path / "r.json"
    run(capsys, "gen", "--alg", "matmul", "--m", "2", "--n", "2", "--l", "2",
        "--out", str(trace_path))
    code, _, _ = run(capsys, "analyze", str(trace_path), "--report", str(report_path))
    assert code == 0
    assert json.loads(report_path.read_text())["n_accesses"] == 20


def test_model_evaluation(capsys):
    code, out, _ = run(capsys, "model", "matmul", "--m", "2", "--n", "3", "--l", "4")
    assert code == 0
    assert json.loads(out)["total"] == pytest.approx(2 * 12**1.5)

    code, out, _ = run(capsys, "model", "conv", "--n", "512", "--k", "3")
    payload = json.loads(out)
    assert payload["terms"]["asymptotic"] == pytest.approx(50.84e6, rel=0.01)

    code, out, _ = run(capsys, "model", "--list")
    assert code == 0
    assert "gqa" in out and "matmul" in out


def test_traced_model_entries_come_from_their_kernels():
    listed = {alg: kernel for alg, kernel in tracegen.KERNELS.items() if kernel.summary}
    assert set(listed) == {"matmul", "conv", "im2col", "batchconv"}
    for alg, kernel in listed.items():
        assert cli.MODELS[alg] == (kernel.param_names, kernel.model, kernel.summary)
    # --list derives every flag list from the entry's flags
    assert not any("(flags:" in desc for _, _, desc in cli.MODELS.values())


def test_model_exit_codes(capsys):
    code, _, err = run(capsys, "model", "nosuch", "--n", "4")
    assert code == 1
    assert "nosuch" in err

    code, _, err = run(capsys, "model", "matmul", "--m", "2")
    assert code == 2
    assert "--n" in err

    code, _, err = run(capsys, "model", "fftbounds", "--n", "12")
    assert code == 2


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "gen", "--alg", "bogus", "--out", "x")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


def test_main_reuses_one_parser(tmp_path, capsys):
    calls = [
        [],
        ["frobnicate"],
        ["model", "matmul", "--m", "two"],
        ["model", "matmul", "--m", "2"],
        ["model", "--help"],
        ["model", "conv", "--n", "64", "--k", "3"],
        ["advise", "batch", "--n", "64", "--k", "3", "--c", "4"],
        ["sweep", "--alg", "conv", "--n", "8..32", "--k", "3", "--model",
         "--out", str(tmp_path / "s.csv")],
    ]
    cli._build_parser.cache_clear()
    first = [run(capsys, *argv) for argv in calls]
    again = [run(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in first] == [1, 1, 1, 2, 0, 0, 0, 0]
    assert again == first
    assert cli._build_parser.cache_info().misses == 1


def test_help_follows_the_terminal_width(capsys, monkeypatch):
    cli._build_parser()
    texts = []
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, _ = run(capsys, "sweep", "--help")
        fresh = cli._build_parser.__wrapped__()
        sweep = fresh._subparsers._group_actions[0].choices["sweep"]
        assert (code, out) == (0, sweep.format_help())
        texts.append(out)
    assert texts[0] != texts[1]


def test_validation_errors_exit_two(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--alg", "conv", "--n", "4", "--k", "9",
                       "--out", str(tmp_path / "x.dmt"))
    assert code == 2

    bad = tmp_path / "bad.dmt"
    bad.write_text("%object 0 4 A\n0 99\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "trace error" in err

    code, _, _ = run(capsys, "analyze", str(tmp_path / "missing.dmt"))
    assert code == 2


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["analyze", "{dir}"],
    ["gen", "--alg", "fft", "--n", "4", "--out", "{dir}"],
    ["analyze", "{trace}", "--report", "{dir}"],
    ["model", "matmul", "--m", "1", "--n", HUGE, "--l", "1"],
    ["analyze", "{trace}", "--bits", HUGE],
    ["advise", "gqa-dim", "--budget", "1e5", "--heads", "8", "--q", "2", "--l", HUGE],
])
def test_os_and_overflow_errors_exit_two(tmp_path, capsys, argv):
    trace_path = tmp_path / "t.dmt"
    trace_path.write_text("%object 0 2 A\n0 1\n0 1\n")
    argv = [arg.format(dir=tmp_path, trace=trace_path) for arg in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("dmclab: ")


def test_gen_beyond_physical_memory_exit_two(tmp_path, capsys):
    # 2e200 accesses pass the record's check; none of them is generated
    out_path = tmp_path / "m.dmt"
    code, _, err = run(capsys, "gen", "--alg", "matmul", "--m", "1", "--n", "1" + "0" * 200,
                       "--l", "2", "--out", str(out_path))
    assert code == 2
    assert "more than this machine's" in err
    assert not out_path.exists()


def test_measured_sweep_beyond_physical_memory_exit_two(tmp_path, capsys):
    # the point passes the lifted budget and is refused by the up-front check, before any trace
    out_path = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--alg", "matmul", "--n", "1000000", "--measure",
                       "--force", "--out", str(out_path))
    assert code == 2
    assert "more than this machine's" in err
    assert not out_path.exists()


def test_measured_sweep_refuses_beyond_memory_before_any_point(tmp_path, capsys, monkeypatch):
    # n=128 fits; n=10**6's prefix of two rows still needs 4e12 accesses
    generated = []
    monkeypatch.setattr(tracegen, "generate", lambda spec: generated.append(spec))
    out_path = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--alg", "matmul", "--n", "128,1000000", "--measure",
                       "--force", "--out", str(out_path))
    assert code == 2
    assert err.startswith("dmclab: the trace has 4000002000000 accesses")
    assert "more than this machine's" in err
    assert generated == []
    assert not out_path.exists()


def test_forced_sweep_beyond_full_trace_memory_measures_its_prefix(tmp_path, capsys, monkeypatch):
    # the full trace's 16,400 accesses exceed this memory; its prefix's 1,640 fit
    from dmclab import core

    monkeypatch.setattr(core, "physical_memory", lambda: 10_000 * core.ACCESS_BYTES)
    out_path = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--alg", "matmul", "--n", "20", "--both",
                       "--out", str(out_path))
    assert (code, err) == (0, "")
    (row,) = csv_rows(out_path)
    monkeypatch.undo()
    spec = tracegen.GenSpec("matmul", tracegen.MatmulParams(20, 20, 20))
    assert float(row["measured"]) == analyze_trace(tracegen.generate(spec)).reuse_dmd


def test_analyze_block_beyond_64_bits_exit_two(tmp_path, capsys):
    path = tmp_path / "one.dmt"
    path.write_text("%object 0 4 A\n0 1\n")
    code, out, err = run(capsys, "analyze", str(path), "--block", str(10**20))
    assert (code, out) == (2, "")
    assert err == f"dmclab: block_size {10**20} does not fit in 64 bits\n"


def test_dmt_size_beyond_64_bits_exit_two(tmp_path, capsys):
    path = tmp_path / "big.dmt"
    path.write_text(f"%object 0 {2**63} A\n0 1\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err == (f"dmclab: trace error: line 1: object 'A': size {2**63} "
                   "does not fit in 64 bits\n")


def test_analyze_beyond_physical_memory_exit_two(tmp_path, capsys, monkeypatch):
    from dmclab import core

    monkeypatch.setattr(core, "physical_memory", lambda: 2 * core.ACCESS_BYTES)
    path = tmp_path / "t.dmt"
    path.write_text("%object 0 4 A\n0 0\n# c\n0 1\n0 2\n0 3\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("dmclab: trace error: line 5: ")
    assert "more than this machine's" in err


def test_analyze_beyond_physical_memory_for_its_analysis_exit_two(tmp_path, capsys, monkeypatch):
    # the four accesses fit in memory as read, 16 B each, but not as analysed
    from dmclab import core

    monkeypatch.setattr(core, "physical_memory", lambda: 20 * 4)
    path = tmp_path / "t.dmt"
    path.write_text("%object 0 4 A\n0 0\n0 1\n0 2\n0 3\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == ("dmclab: the trace has 4 accesses, 160 bytes in memory, "
                   "more than this machine's 80 bytes\n")


def test_one_memory_rule_refuses_gen_analyze_and_measured_sweep(tmp_path, capsys, monkeypatch):
    # the rule is read from core alone: patching it there reaches every command that checks it
    from dmclab import core

    trace_path = tmp_path / "t.dmt"
    assert run(capsys, "gen", "--alg", "conv", "--n", "8", "--k", "3", "--out", str(trace_path))[0] == 0
    monkeypatch.setattr(core, "physical_memory", lambda: 10 * core.ACCESS_BYTES)
    for argv in (["gen", "--alg", "conv", "--n", "8", "--k", "3", "--out", str(tmp_path / "u.dmt")],
                 ["analyze", str(trace_path)],
                 ["sweep", "--alg", "conv", "--n", "8", "--k", "3", "--measure",
                  "--out", str(tmp_path / "s.csv")]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "more than this machine's" in err, argv
    assert sorted(path.name for path in tmp_path.iterdir()) == ["t.dmt"]


@pytest.mark.parametrize("bits", ["0", "1" + "0" * 400])
def test_analyze_bits_out_of_range_exit_two(tmp_path, capsys, bits):
    path = tmp_path / "one.dmt"
    path.write_text("%object 0 4 A\n0 1\n0 1\n")
    code, out, err = run(capsys, "analyze", str(path), "--bits", bits)
    assert (code, out) == (2, "")
    assert err.startswith("dmclab: granularity_bits must be ")


def test_sweep_model_evaluates_each_point_once(tmp_path, capsys, monkeypatch):
    calls = []
    kernel = tracegen.KERNELS["conv"]
    monkeypatch.setitem(tracegen.KERNELS, "conv", dataclasses.replace(
        kernel, model=lambda *args: calls.append(args) or kernel.model(*args)))
    code, _, _ = run(capsys, "sweep", "--alg", "conv", "--n", "8..32", "--k", "3",
                     "--out", str(tmp_path / "s.csv"))
    assert code == 0
    assert calls == [(8, 8, 3), (16, 16, 3), (32, 32, 3)]


def test_trace_free_commands_never_import_numpy(tmp_path):
    flags = {"k": "3", "c": "2", "x": "1"}
    sweeps = [["sweep", "--alg", alg, "--n", "8..32", "--model", "--out", str(tmp_path / "s.csv"),
               *(arg for name in kernel.sweep_flags for arg in (f"--{name}", flags[name]))]
              for alg, kernel in tracegen.KERNELS.items()]
    script = "\n".join([
        "import sys",
        "from dmclab.cli import main",
        "assert main(['model', '--list']) == 0",
        "assert main(['advise', 'batch', '--n', '64', '--k', '3', '--c', '4']) == 0",
        *(f"assert main({argv!r}) == 0" for argv in sweeps),
        "print('numpy' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_sweep_model_mode(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--alg", "conv", "--n", "8..32", "--k", "3",
                     "--out", str(out_path))
    assert code == 0
    rows = csv_rows(out_path)
    assert [r["n"] for r in rows] == ["8", "16", "32"]
    assert "model_total" in rows[0] and "measured" not in rows[0]


def test_sweep_both_mode_has_ratio(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--alg", "matmul", "--n", "4,8", "--both",
                     "--out", str(out_path))
    assert code == 0
    rows = csv_rows(out_path)
    for row in rows:
        ratio = float(row["measured"]) / float(row["model_total"])
        assert float(row["ratio"]) == pytest.approx(ratio)


@pytest.mark.parametrize("flags", [
    ["--alg", "fft", "--n", "1"],
    ["--alg", "fftconv2d", "--n", "1"],
    ["--alg", "conv", "--n", "3", "--k", "3"],
])
def test_sweep_both_zero_model_ratio_is_nan(tmp_path, capsys, flags):
    out_path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", *flags, "--both", "--out", str(out_path))
    assert code == 0
    (row,) = csv_rows(out_path)
    assert float(row["model_total"]) == 0.0
    assert float(row["measured"]) >= 0.0
    assert row["ratio"] == "nan"


@pytest.mark.parametrize("flags", [
    ["--alg", "fft", "--n", "abc"],
    ["--alg", "fft", "--n", "2..8:0"],
    ["--alg", "fft", "--n", "0..8"],
    ["--alg", "fft", "--n=-2..8"],
    ["--alg", "fft", "--n", "2..x"],
    ["--alg", "batchconv", "--n", "8", "--k", "3", "--c", "4", "--x", "1,x"],
    ["--alg", "gqa", "--heads", "8,y", "--budget", "1e5"],
    ["--alg", "fft", "--n", "2..8:-1"],
    ["--alg", "fft", "--n", "8..2:-1"],
])
def test_sweep_malformed_range_exit_two(tmp_path, capsys, flags):
    code, _, err = run(capsys, "sweep", *flags, "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "bad range" in err


@pytest.mark.parametrize("budget", ["inf", "nan"])
def test_gqa_non_finite_budget_exit_two(tmp_path, capsys, budget):
    code, out, err = run(capsys, "advise", "gqa-dim", "--budget", budget,
                         "--heads", "8", "--q", "2")
    assert (code, out) == (2, "")
    assert "budget must be finite" in err
    out_path = tmp_path / "g.csv"
    code, _, err = run(capsys, "sweep", "--alg", "gqa", "--heads", "8", "--budget", budget,
                       "--out", str(out_path))
    assert code == 2
    assert "budget must be finite" in err
    assert not out_path.exists()


def test_sweep_budget_guard(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "--alg", "conv", "--n", "1024", "--k", "3",
                       "--measure", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert "--force" in err


def test_sweep_measure_mode(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--alg", "fft", "--n", "16,32", "--measure",
                     "--out", str(out_path))
    assert code == 0
    assert len(csv_rows(out_path)) == 2


def test_sweep_gqa(tmp_path, capsys):
    out_path = tmp_path / "g.csv"
    code, _, _ = run(capsys, "sweep", "--alg", "gqa", "--heads", "8", "--budget",
                     "1e5", "--out", str(out_path))
    assert code == 0
    rows = csv_rows(out_path)
    assert [int(r["q"]) for r in rows] == [1, 2, 4, 8]
    dims = [float(r["d"]) for r in rows]
    assert dims == sorted(dims)

    # group sizes that do not divide the head count, 0 included, are skipped
    code, _, _ = run(capsys, "sweep", "--alg", "gqa", "--heads", "8", "--q", "0,2,3",
                     "--budget", "1e5", "--out", str(out_path))
    assert code == 0
    assert [int(r["q"]) for r in csv_rows(out_path)] == [2]


@pytest.mark.parametrize("mode", ["--measure", "--both"])
def test_sweep_gqa_measured_exit_two(tmp_path, capsys, monkeypatch, mode):
    # gqa has no trace, so a measured sweep is refused before any row is computed
    monkeypatch.setattr(cli, "_gqa_rows", lambda args: pytest.fail("a gqa row was computed"))
    out_path = tmp_path / "g.csv"
    code, out, err = run(capsys, "sweep", "--alg", "gqa", "--heads", "8", "--budget", "1e5",
                         mode, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "--model" in err
    assert not out_path.exists()


def test_advise_batch(capsys):
    code, out, _ = run(capsys, "advise", "batch", "--n", "1024", "--k", "3", "--c", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["recommended_x"] == 10
    assert set(payload["costs"]) == {"1", "2", "5", "10"}


def test_advise_batch_without_channels_exit_two(capsys):
    code, out, err = run(capsys, "advise", "batch", "--n", "64", "--k", "3", "--c", "0")
    assert (code, out) == (2, "")
    assert "c >= 1" in err


def test_advise_channels(capsys):
    code, out, _ = run(capsys, "advise", "channels", "--n", "1024", "--k", "3")
    assert code == 0
    assert json.loads(out)["crossover_c"] == 26


def test_advise_gqa_dim(capsys):
    code, out, _ = run(capsys, "advise", "gqa-dim", "--budget", "1e5",
                       "--heads", "8", "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["achieved_cost"] == pytest.approx(1e5, rel=1e-5)


def test_advise_conv_vs_fft(capsys):
    code, out, _ = run(capsys, "advise", "conv-vs-fft", "--n", "512", "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["recommended"] == "spatial"
    assert any("lower bound" in note for note in payload["notes"])


def test_advise_orientation(capsys):
    code, out, _ = run(capsys, "advise", "orientation", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["square_over_portrait"] == pytest.approx(2**0.25)
    assert payload["landscape_over_portrait"] == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("flags", [
    ["--pixels", "-1", "--k", "3"],
    ["--pixels", "0", "--k", "3"],
    ["--pixels", "1e6", "--k", "-3"],
    ["--pixels", "1e6", "--k", "0"],
    ["--pixels", "nan", "--k", "3"],
    ["--pixels", "inf", "--k", "3"],
    ["--pixels", "nan"],
    ["--pixels", "inf"],
])
def test_advise_orientation_bad_pixels_or_k_exit_two(capsys, flags):
    code, out, err = run(capsys, "advise", "orientation", "--m", "2", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("dmclab: ")


@pytest.mark.parametrize("m", ["nan", "inf", "-inf"])
def test_advise_orientation_bad_m_exit_two(capsys, m):
    # a non-finite m would print bare NaN or Infinity tokens, which are not JSON
    code, out, err = run(capsys, "advise", "orientation", f"--m={m}", "--pixels", "1e6", "--k", "3")
    assert (code, out) == (2, "")
    assert err.startswith("dmclab: ")


def test_advise_missing_flags_exit_two(capsys):
    assert run(capsys, "advise", "batch", "--n", "64")[0] == 2


# a valid set of flags for each kernel, model and advice kind
GEN_BASE = {"matmul": "--m 2 --n 2 --l 2", "conv": "--n 4 --k 2", "im2col": "--n 4 --k 2",
            "batchconv": "--n 4 --k 2 --c 2 --x 1", "fft": "--n 4", "fftconv2d": "--n 4"}
MODEL_BASE = {"matmul": "--m 2 --n 2 --l 2", "conv": "--n 8 --k 3",
              "batchconv": "--n 8 --k 3 --c 2 --x 1", "im2col": "--n 8 --k 3",
              "blockedconv": "--n 8 --k 3 --b 2", "fftcomponents": "--n 8", "fftbounds": "--n 8",
              "fftconv": "--n 8", "attention": "--l 8 --d 8 --heads 2", "mha": "--l 8 --d 8 --heads 2",
              "gqa": "--l 8 --d 8 --heads 2 --q 1", "transformer": "--layers 1 --l 4 --d 4 --f 4",
              "cold": "--m 8"}
# advice kind -> (a valid set of flags, the flags it takes)
ADVISE = {"batch": ("--n 64 --k 3 --c 4", {"n", "k", "c"}),
          "channels": ("--n 64 --k 3", {"n", "k"}),
          "gqa-dim": ("--budget 1e5 --heads 8 --q 2", {"budget", "heads", "q", "l", "include_matmul"}),
          "conv-vs-fft": ("--n 64 --k 3", {"n", "k"}),
          "orientation": ("--m 2", {"m", "pixels", "k"})}
# every option of a subcommand that is not a parameter
NOT_PARAMETERS = {"help", "alg", "out", "list", "mode", "force"}


def parameter_flags(command):
    """The subcommand's `flags`, checked to be all its parameter options."""
    sub = cli._build_parser()._subparsers._group_actions[0].choices[command]
    options = {action.dest for action in sub._actions if action.option_strings}
    assert set(sub.get_default("flags")) == options - NOT_PARAMETERS
    return sub.get_default("flags")


def given(flag):
    return [f"--{flag.replace('_', '-')}"] + ([] if flag == "include_matmul" else ["3"])


def refused(capsys, subject, flag, *argv):
    code, out, err = run(capsys, *argv, *given(flag))
    assert (code, out) == (2, "")
    # sweep's --heads is also spelled --h
    spelled = "--heads/--h" if (argv[0], flag) == ("sweep", "heads") else f"--{flag.replace('_', '-')}"
    assert err == f"dmclab: {subject} does not take {spelled}\n"


@pytest.mark.parametrize("alg,flag", [
    (alg, flag) for alg, kernel in tracegen.KERNELS.items() for flag in parameter_flags("gen")
    if flag not in kernel.param_names and not (flag == "n" and "h" in kernel.param_names)])
def test_gen_refuses_flags_its_kernel_does_not_take(tmp_path, capsys, alg, flag):
    out_path = tmp_path / "t.dmt"
    refused(capsys, alg, flag, "gen", "--alg", alg, *GEN_BASE[alg].split(), "--out", str(out_path))
    assert not out_path.exists()


@pytest.mark.parametrize("alg,flag", [
    (alg, flag) for alg, kernel in [*tracegen.KERNELS.items(), ("gqa", None)]
    for flag in parameter_flags("sweep")
    if flag not in (("heads", "budget", "q", "l") if kernel is None else ("n", *kernel.sweep_flags))])
def test_sweep_refuses_flags_its_kernel_does_not_take(tmp_path, capsys, alg, flag):
    base = (["--heads", "8", "--budget", "1e5"] if alg == "gqa" else
            ["--n", "4", *(a for name in tracegen.KERNELS[alg].sweep_flags for a in (f"--{name}", "1"))])
    out_path = tmp_path / "s.csv"
    refused(capsys, alg, flag, "sweep", "--alg", alg, *base, "--out", str(out_path))
    assert not out_path.exists()


@pytest.mark.parametrize("name,flag", [
    (name, flag) for name, (names, _, _) in cli.MODELS.items() for flag in parameter_flags("model")
    if flag not in names and not (flag == "n" and "h" in names)])
def test_model_refuses_flags_it_does_not_take(capsys, name, flag):
    refused(capsys, name, flag, "model", name, *MODEL_BASE[name].split())


@pytest.mark.parametrize("kind,flag", [
    (kind, flag) for kind, (_, takes) in ADVISE.items() for flag in parameter_flags("advise")
    if flag not in takes])
def test_advise_refuses_flags_its_kind_does_not_take(capsys, kind, flag):
    refused(capsys, kind, flag, "advise", kind, *ADVISE[kind][0].split())


def test_sweep_refuses_heads_typed_as_h_by_both_spellings(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, out, err = run(capsys, "sweep", "--alg", "conv", "--n", "8", "--k", "3", "--h", "5",
                         "--out", str(out_path))
    assert (code, out, err) == (2, "", "dmclab: conv does not take --heads/--h\n")
    assert not out_path.exists()


@pytest.mark.parametrize("argv,both", [
    ("gen --alg conv --n 8 --h 5 --k 3", "--h"),
    ("gen --alg conv --n 8 --w 5 --k 3", "--w"),
    ("model conv --n 64 --h 7 --k 3", "--h"),
    ("model conv --n 64 --h 7 --w 7 --k 3", "--h, --w"),
], ids=["gen-h", "gen-w", "model-h", "model-hw"])
def test_n_is_refused_with_h_or_w(tmp_path, capsys, argv, both):
    out_path = tmp_path / "t.dmt"
    extra = ["--out", str(out_path)] if argv.startswith("gen") else []
    code, out, err = run(capsys, *argv.split(), *extra)
    assert (code, out, err) == (2, "", f"dmclab: conv does not take --n with {both}\n")
    assert not out_path.exists()


def test_every_base_of_the_refusal_tests_is_valid(tmp_path, capsys):
    for alg, flags in GEN_BASE.items():
        assert run(capsys, "gen", "--alg", alg, *flags.split(), "--out", str(tmp_path / "t.dmt"))[0] == 0
    assert set(MODEL_BASE) == set(cli.MODELS)
    for name, flags in MODEL_BASE.items():
        assert run(capsys, "model", name, *flags.split())[0] == 0, name
    for kind, (flags, _) in ADVISE.items():
        assert run(capsys, "advise", kind, *flags.split())[0] == 0, kind


def test_sweep_over_a_kernel_flag_range_is_the_single_value_sweeps(tmp_path, capsys):
    def rows(k):
        out_path = tmp_path / f"k{k}.csv"
        assert run(capsys, "sweep", "--alg", "conv", "--n", "8,16", "--k", k, "--both",
                   "--out", str(out_path))[0] == 0
        return csv_rows(out_path)

    assert rows("3,5") == sorted(rows("3") + rows("5"), key=lambda row: int(row["n"]))

"""Command line interface: subcommands, formats, and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmclab import cli, models
from dmclab.cli import main

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


def test_analyze_beyond_physical_memory_exit_two(tmp_path, capsys, monkeypatch):
    from dmclab import core

    monkeypatch.setattr(core, "physical_memory", lambda: 2 * core.ACCESS_BYTES)
    path = tmp_path / "t.dmt"
    path.write_text("%object 0 4 A\n0 0\n# c\n0 1\n0 2\n0 3\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("dmclab: trace error: line 5: ")
    assert "more than this machine's" in err


def test_sweep_model_evaluates_each_point_once(tmp_path, capsys, monkeypatch):
    calls = []
    model_conv = models.model_conv
    monkeypatch.setattr(models, "model_conv", lambda *args: calls.append(args) or model_conv(*args))
    code, _, _ = run(capsys, "sweep", "--alg", "conv", "--n", "8..32", "--k", "3",
                     "--out", str(tmp_path / "s.csv"))
    assert code == 0
    assert calls == [(8, 8, 3), (16, 16, 3), (32, 32, 3)]


def test_trace_free_commands_never_import_numpy(tmp_path):
    script = "\n".join([
        "import sys",
        "from dmclab.cli import main",
        "assert main(['model', '--list']) == 0",
        "assert main(['advise', 'batch', '--n', '64', '--k', '3', '--c', '4']) == 0",
        f"assert main(['sweep', '--alg', 'conv', '--n', '8..32', '--k', '3', '--model', "
        f"'--out', {str(tmp_path / 's.csv')!r}]) == 0",
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
])
def test_advise_orientation_bad_pixels_or_k_exit_two(capsys, flags):
    code, out, err = run(capsys, "advise", "orientation", "--m", "2", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("dmclab: ")


def test_advise_missing_flags_exit_two(capsys):
    assert run(capsys, "advise", "batch", "--n", "64")[0] == 2

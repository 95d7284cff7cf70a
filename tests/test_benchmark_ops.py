"""Every operation of the benchmark's CLI workloads runs, so a change to the
CLI that breaks one of the benchmark's argv fails here, not only as a larger
share of failed operations in a benchmark run.  dmcbench/ is only read."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "dmcbench"


@pytest.mark.parametrize("name", ["sweep_small", "model_advise"])
def test_every_benchmark_op_runs(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.build(name, "full", str(tmp_path)).all_ops()
    assert ops
    for op in ops:
        op.run({})  # raises workloads.OpFailed on a non-zero exit

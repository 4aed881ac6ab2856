"""Self-tests of the benchmark on tiny sizes: ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
REFERENCE = run.load_reference()
SEEDED = [w for w in run.WORKLOADS if run.workload_spec(w, 7, True).seeded]


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    script = cwd / "bench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    out = bench("--workload", workload, "--smoke", "--seconds", "0", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        assert not [line for line in out.stdout.splitlines() if line.startswith("FLAG count")]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", ["curve-staircase", "verify-full"])
def test_spans_nest_and_self_time_is_bounded(workload, tmp_path):
    import heckelis.insertion

    original = heckelis.insertion.heckeshape
    spec = run.workload_spec(workload, 7, smoke=True)
    tracer, rep, _ = run.traced_run(workload, spec, 7, tmp_path)
    assert rep.problem is None
    assert heckelis.insertion.heckeshape is original

    spans = tracer.arrays()
    parent = spans["parent"]
    nested = parent >= 0
    assert nested.sum() == len(parent) - 1  # one root, the cli span
    assert np.all(spans["start"][nested] >= spans["start"][parent[nested]])
    assert np.all(spans["end"][nested] <= spans["end"][parent[nested]])
    assert np.all(spans["self"] >= -1e-9)
    assert np.all(spans["self"] <= spans["duration"])
    for totals in tracer.totals().values():
        assert totals["self_s"] <= totals["total_s"] + 1e-9


@pytest.mark.parametrize("workload", SEEDED)
def test_smoke_digests_match_reference_and_oracle(workload, tmp_path):
    spec = run.workload_spec(workload, 7, smoke=True)
    rep = run.run_cli(spec, run.THREADS, tmp_path, deadline=time.monotonic() + 120)
    assert rep.problem is None
    assert rep.digests == REFERENCE["digests"]["smoke"][workload]["7"]
    assert run.oracle_problems(spec, tmp_path) == []

    data = tmp_path / spec.outputs[-1]
    lines = data.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = str(float(fields[-1]) + 1)
    data.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert run.oracle_problems(spec, tmp_path)


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "sweep-sqrt", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

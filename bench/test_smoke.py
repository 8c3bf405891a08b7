"""Tests of the benchmark itself: every workload at smoke size with its checks on.

    python3 -m pytest bench/test_smoke.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import record_windows  # noqa: E402
from tracing import Subtree  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_declared_metric(workload, trace):
    out = _run(["--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, out.stdout
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "certificate-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    make = WORKLOADS[name].make_inputs
    assert make(11, False) == make(11, False)
    if name != "evolve-soliton":  # its datum is the ground state itself
        assert make(11, False) != make(12, False)


def test_layer_self_times_cover_the_root_exactly():
    # root [0, 10] > a [1, 6] > b [2, 3]; root > c [7, 9]
    spans = [["bench.pass", 0.0, 10.0, -1], ["grid.a", 1.0, 6.0, 0],
             ["evolve.b", 2.0, 3.0, 1], ["grid.c", 7.0, 9.0, 0]]
    tree = Subtree(spans, 0, len(spans))
    assert dict(tree.layer_self) == {"bench": 3.0, "grid": 6.0, "evolve": 1.0}
    assert tree.count_within("evolve.b", "bench.pass") == 1
    assert tree.count_within("evolve.b", "bench.pass", direct=True) == 0
    assert tree.nested()
    spans[2][2] = 7.0  # b now ends after its parent a
    assert not Subtree(spans, 0, len(spans)).nested()


def test_record_windows_are_the_gaps_that_hold_a_record():
    # init, first record, three steps of which only the last is followed by
    # a record, then the end of evolve.run
    spans = [["bench.pass", 0.0, 30.0, -1], ["evolve.run", 0.0, 20.0, 0],
             ["evolve.Evolver.init", 0.0, 2.0, 1], ["grid.grad_norm_sq_form", 2.5, 3.0, 1],
             ["evolve.step", 4.0, 5.0, 1], ["evolve.step", 5.5, 6.0, 1],
             ["evolve.step", 7.0, 8.0, 1], ["grid.grad_norm_sq_form", 9.0, 10.0, 1]]
    assert record_windows(Subtree(spans, 0, len(spans))) == [2.0, 12.0]


def test_scope_points_are_exact_and_in_scope():
    from workloads import scope_point

    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        n_, alpha, b = scope_point(rng, n)
        assert n_ == n and 0 < b < 1 and alpha > (4 - 2 * b) / n

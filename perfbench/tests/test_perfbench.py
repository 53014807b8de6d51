"""The benchmark's own tests: each workload's check rejects a corrupted
answer, and the benchmark command completes a short run.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def recorded_op(name, seed=7, slot=0):
    workload = WORKLOADS[name](seed)
    params = workload.round_inputs(0)[slot]
    return {"params": params, "steps": workload.run_op(params)}


def edit_rows(step, fn):
    doc = json.loads(step["out"])
    fn(doc["results"]["rows"])
    step["out"] = json.dumps(doc)


def flip_theta_12(rows):
    for row in rows:
        if row[:2] == [1, 2]:
            row[2], row[3] = -row[2], -row[3]


def status(name, op):
    return checks.op_status(name, op)[0]


@pytest.fixture(scope="module")
def ep_op():
    return recorded_op("ep_scan")


def test_ep_scan_accepts_the_program_answer(ep_op):
    assert checks.op_status("ep_scan", ep_op) == ("ok", [])


@pytest.mark.parametrize("shift", [+10, -10])
def test_ep_scan_rejects_alpha_shifted_by_ten_tolerances(ep_op, shift):
    op = copy.deepcopy(ep_op)

    def shift_alpha(rows):
        rows[0][0] += shift * checks.CRITICAL_TOL

    edit_rows(op["steps"][0], shift_alpha)
    assert status("ep_scan", op) == "wrong"


@pytest.mark.parametrize("which", [0, -1])
def test_ep_scan_rejects_a_dropped_exceptional_point(ep_op, which):
    op = copy.deepcopy(ep_op)
    edit_rows(op["steps"][1], lambda rows: rows.pop(which))
    assert status("ep_scan", op) == "wrong"


def test_metric_certify_rejects_a_flipped_off_diagonal_sign():
    op = recorded_op("metric_certify")
    assert checks.op_status("metric_certify", op) == ("ok", [])
    edit_rows(op["steps"][0], flip_theta_12)
    assert status("metric_certify", op) == "wrong"


def test_large_lattice_accepts_and_rejects_a_flipped_metric_sign():
    op = recorded_op("large_lattice")
    assert checks.op_status("large_lattice", op) == ("ok", [])
    edit_rows(op["steps"][2], flip_theta_12)
    assert status("large_lattice", op) == "wrong"


@pytest.mark.parametrize("slot", [0, 6])  # seeded general contour, L = Z = 0
def test_continuum_rejects_psi_scaled_by_one_plus_1e8(slot):
    op = recorded_op("continuum_contour", slot=slot)
    assert checks.op_status("continuum_contour", op) == ("ok", [])
    op["steps"][1]["values"][1][0] = [v * (1 + 1e-8) for v in op["steps"][1]["values"][1][0]]
    assert status("continuum_contour", op) == "wrong"


def test_continuum_large_reach_op_fails_with_a_seed_independent_input():
    a = WORKLOADS["continuum_contour"](1).round_inputs(0)[-1]
    b = WORKLOADS["continuum_contour"](2).round_inputs(5)[-1]
    assert a == b and a["kind"] == "large_reach"


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_run_prints_end_to_end_metrics():
    out = run_bench(ROOT, "--workload", "metric_certify", "--seed", "3", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_counts_solves_exactly():
    out = run_bench(ROOT, "--workload", "ep_scan", "--seed", "4", "--seconds", "1",
                    "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["spectra.critical_solves"] == 88
    assert m["spectra.eps_solves"] == 596
    assert m["eigensolve.solves_per_op"] == 684


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = run_bench(tmp_path, "--workload", "ep_scan", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

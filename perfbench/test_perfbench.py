"""The benchmark's own tests.

    python3 -m pytest -q perfbench

Smoke runs of every workload (one pass each, traced and untraced), the
output checks, and the metric list in BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import EXPECTED_DIR, Checker, class_of, parse_graph6, summarize  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_the_metrics_run_py_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in metrics.values())
        names = [c.metric for c in run.commands(workload, 0)]
        for name in ["setup_s", "wall_s", *names, "peak_rss_mb", "fail_ratio"]:
            assert any(line.split()[:1] == [name] for line in lines), name
    else:
        # the layers a workload does not reach stay at zero
        if workload != "certify-parametric":
            assert metrics["exactmath.sturm_chains"] == 0
        if workload == "exhaust":
            assert metrics["flags.lift_calls"] == 0
            assert metrics["flags.tables_s"] == 0


def test_corrupted_expectation_drives_fail_ratio_above_zero():
    checker = Checker.load()
    checker.exact["verify_k4"] += b"\n"
    r = run.Run("certify-numeric", 0, 0, False, checker)
    r.execute()
    assert 0 < r.failed < r.attempted
    assert any(line.startswith("  fail_ratio") and not line.endswith("(0/%d)" % r.attempted)
               for line in r.report())
    assert r.result()["correct"] is False


def to_graph6(n: int, rows: list[int]) -> str:
    bits = [rows[i] >> j & 1 for j in range(n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        out.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(out)


def relabel(graph6: str) -> str:
    """The same graph with its vertex order reversed."""
    n, rows = parse_graph6(graph6)
    flip = [0] * n
    for v in range(n):
        for u in range(n):
            if rows[v] >> u & 1:
                flip[n - 1 - v] |= 1 << (n - 1 - u)
    return to_graph6(n, flip)


def test_class_check_ignores_representatives_but_not_classes():
    proc = subprocess.run(
        [sys.executable, "-m", "flagcert.cli", "enumerate", "--order", "7", "--graph6"],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, check=True,
    )
    lines = proc.stdout.decode().splitlines()
    assert all(relabel(relabel(g)) == g for g in lines[:-1])
    want = Checker.load().manifest["enumerate7"]["summary"]
    moved = "\n".join([relabel(g) for g in lines[:-1]] + lines[-1:]) + "\n"
    assert moved.encode() != proc.stdout
    assert summarize("enumerate", moved.encode()) == want
    checker = Checker.load()
    assert checker.ok("enumerate7", 0, moved.encode())
    # swap one class for a duplicate of another: same count, wrong set
    dup = "\n".join([lines[1]] + lines[1:]) + "\n"
    assert not checker.ok("enumerate7", 0, dup.encode())
    assert class_of(lines[5]) == class_of(relabel(lines[5]))


def test_profile_grid_holds_every_golden_row():
    golden = (run.SRC / "flagcert" / "certs" / "profile_curve.golden").read_text()
    rows = [
        tuple(Fraction(x.strip()) for x in line.split("|"))
        for line in golden.splitlines()
        if "|" in line and not line.startswith("#")
    ]
    out = (EXPECTED_DIR / "profile.out").read_text().splitlines()[1:]
    emitted = {tuple(Fraction(x) for x in line.split(",")) for line in out}
    assert len(rows) == 201 and set(rows) <= emitted


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare"  # only BENCHMARK.json and perfbench/
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "exhaust", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

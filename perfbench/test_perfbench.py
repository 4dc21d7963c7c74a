"""Smoke tests of the benchmark itself: ``python3 -m pytest -q perfbench``.

Each workload runs on the short smoke grid, untraced and traced, and must
print every metric with its unit.  The traced run must report every
per-layer metric: all the wrapped names exist in the package as it stands.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        unit = expected[name][0] if trace else expected[name]
        assert metric == {"value": metric["value"], "unit": unit}
        assert isinstance(metric["value"], (int, float))
    if trace and workload == "steady":
        assert result["metrics"]["filtering.solves"]["value"] == 0
        assert result["metrics"]["steady_state.orbit_limit_calls"]["value"] > 0
    if trace and workload != "steady":
        # On fig2 each logistic cell's covariance pass is a prefix of the pass
        # of the linear cell with the same prior, h and R; on fig1 none is.
        shared = workloads.HORIZON["linear"] / sum(workloads.HORIZON.values())
        useful = result["metrics"]["filtering.cov_useful"]["value"]
        assert useful == pytest.approx(shared if workload == "fig2" else 1.0, abs=1e-3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fig2", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_wrapped_name_is_reported_absent(monkeypatch):
    from odefilter import cli

    monkeypatch.delattr(cli, "_write_csv")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracer.metrics(csv_bytes=0, overhead=0.0)
    assert absent == ["cli.output_s"]
    assert "cli.output_s" not in metrics and "filtering.cov_s" in metrics


@pytest.mark.parametrize("workload", ["fig1", "fig2"])
def test_step_counts_match_the_references(workload):
    for seed in range(workloads.SEEDS):
        rows = check.parse(check.load(workload, seed)[f"{workload}.csv"]["text"])
        assert sum(int(row["n_evals"]) for row in rows) == workloads.build(workload, seed).steps


def _edit(text: str, row: int, column: str, value: str) -> str:
    rows = check.parse(text)
    rows[row][column] = value
    header = list(rows[0])
    return "\n".join([",".join(header)] + [",".join(r[c] for c in header) for r in rows]) + "\n"


def test_output_check_tolerance():
    ref = check.load("fig2", 0)["fig2.csv"]
    text = ref["text"]
    cells, messages = check.check_csv("wpd", text, ref, False, "fig2.csv")
    assert all(cells.values()) and not messages and len(cells) == 32

    value = float(check.parse(text)[5]["final_std"])
    for factor, ok in ((1 + 1e-14, True), (1 + 1e-9, False)):
        edited = _edit(text, 5, "final_std", repr(value * factor))
        cells, _ = check.check_csv("wpd", edited, ref, False, "fig2.csv")
        assert sum(not good for good in cells.values()) == (0 if ok else 1)

    cells, _ = check.check_csv("wpd", _edit(text, 5, "diverged", "true"), ref, False, "fig2.csv")
    assert sum(not good for good in cells.values()) == 1
    cells, _ = check.check_csv("wpd", _edit(text, 5, "final_error", "nan"), ref, False, "fig2.csv")
    assert sum(not good for good in cells.values()) == 1


def test_output_check_catches_doubling_in_ill_conditioned_cells():
    # Reordering moves these cells' values by up to 10%; the tolerance must
    # still catch a value that doubles or halves, unless that change is
    # within the column's absolute roundoff floor.
    ref = check.load("fig1", 0)["fig1.csv"]
    for k, row in enumerate(check.parse(ref["text"])):
        if row["q"] not in ("3", "4"):
            continue
        for column in ("final_error", "max_error", "final_std", "delta1_final"):
            for factor in (2.0, 0.5):
                value = float(row[column])
                if abs(value * (factor - 1)) <= check.floor(column, row):
                    continue
                edited = _edit(ref["text"], k, column, repr(value * factor))
                cells, _ = check.check_csv("wpd", edited, ref, False, "fig1.csv")
                assert sum(not good for good in cells.values()) == 1, (k, column, factor)

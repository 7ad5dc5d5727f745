"""Tests of the benchmark itself: output checks, tracer counts, metric names.

    python3 -m pytest -q perfbench
"""
import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import biaxbell.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LayerStats, Tracer  # noqa: E402

TINY_SWEEP = ["sweep", "--mu-list", "0,pi/2", "--nu-list", "0.3", "--beta-steps", "3"]
TINY_GRID = [(b, m, 0.3) for m in (0.0, math.pi / 2) for b in (0.0, 0.5, 1.0)]


@pytest.fixture
def tiny_rows(tmp_path):
    out = tmp_path / "rows.csv"
    assert biaxbell.cli.main([*TINY_SWEEP, "--out", str(out)]) == 0
    return workloads.read_sweep_rows(str(out), "csv")


def test_check_accepts_clean_rows(tiny_rows):
    workloads.check_sweep_rows(tiny_rows, TINY_GRID)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[1].update(jx_or=-rows[1]["jx_or"]),
        lambda rows: rows[4].update(jy_or=-rows[4]["jy_or"]),
        lambda rows: rows[2].update(concurrence=rows[2]["concurrence"] + 1e-9),
        lambda rows: rows[0].update(method="all-directions"),
        lambda rows: rows.pop(),
        lambda rows: rows.insert(0, rows.pop(3)),
    ],
    ids=["jx_or-sign", "jy_or-sign", "concurrence", "method", "truncated", "reordered"],
)
def test_check_rejects_corrupted_rows(tiny_rows, corrupt):
    rows = copy.deepcopy(tiny_rows)
    corrupt(rows)
    with pytest.raises(workloads.OutputCheckError):
        workloads.check_sweep_rows(rows, TINY_GRID)


def test_check_rejects_wrong_crosscheck_verdict(tmp_path):
    out = tmp_path / "report.json"
    argv = ["crosscheck", "--format", "json", "--beta-steps", "3", "--mu-list", "pi/3",
            "--nu-list", "0.5", "--out", str(out)]
    assert biaxbell.cli.main(argv) == 0
    report = json.loads(out.read_text())
    workloads.check_crosscheck_report(report, 3)
    with pytest.raises(workloads.OutputCheckError):
        workloads.check_crosscheck_report(report, 4)
    with pytest.raises(workloads.OutputCheckError):
        workloads.check_crosscheck_report({**report, "nu_sign_hypothesis": "as-printed"}, 3)


def _traced(argv):
    with Tracer("biaxbell", run.TRACED) as tracer:
        assert biaxbell.cli.main(argv) == 0
    return tracer, {name: stat.calls for name, stat in tracer.summary().items()}


def test_tracer_counts_on_tiny_sweep(tmp_path, tiny_rows):
    out = tmp_path / "traced.csv"
    tracer, calls = _traced([*TINY_SWEEP, "--out", str(out)])
    points = len(TINY_GRID)
    degenerate = sum(row["frame_status"] == "fully-degenerate" for row in tiny_rows)
    transverse = points - degenerate
    assert degenerate == 3
    assert tracer.absent == []
    assert calls == {
        "spincore.build_superposition_state": points,
        "frame.mean_spin_closed_form": points,
        "frame.compute_frame": points,
        # min_transverse_variance, its scan and evaluate_oracle each project once
        "frame.project_transverse_operators": 3 * transverse,
        "closedform.second_moments_closed_form": 0,
        "closedform.frame_moments_closed_form": 0,
        # the all-directions fallback takes the moments a second time
        "oracle.moments_oracle": points + degenerate,
        "oracle.min_transverse_variance": transverse,
        "oracle.min_transverse_variance_scan": transverse,
        "oracle.min_variance_all_directions": degenerate,
        "oracle.concurrence": points,
        "oracle.evaluate_oracle": points,
        "crosscheck.run_crosscheck": 0,
        "cli.evaluate_row": points,
        "cli.write_rows_csv": 1,
        "cli.write_rows_json": 0,
    }
    assert all(stat.self_s >= 0.0 and stat.errors == 0 for stat in tracer.summary().values())
    workloads.check_sweep_rows(workloads.read_sweep_rows(str(out), "csv"), TINY_GRID)


def test_tracer_counts_on_tiny_crosscheck(tmp_path):
    # beta = 0 gives a polar-degenerate frame, beta = 1 a fully-degenerate one
    argv = ["crosscheck", "--format", "json", "--beta-steps", "2", "--mu-list", "pi/3",
            "--nu-list", "0.5", "--out", str(tmp_path / "report.json")]
    _, calls = _traced(argv)
    assert calls["crosscheck.run_crosscheck"] == 1
    assert calls["oracle.evaluate_oracle"] == 2
    # evaluate_oracle once, then the closed forms at nu and at -nu
    assert calls["frame.compute_frame"] == 2 * 3
    assert calls["frame.mean_spin_closed_form"] == 2 * 2
    # per nu candidate: once directly, twice more inside frame_moments_closed_form
    # when the closed-form frame has a transverse plane (beta = 0 only)
    assert calls["closedform.frame_moments_closed_form"] == 2
    assert calls["closedform.second_moments_closed_form"] == 2 * 3 + 2 * 1
    assert calls["cli.evaluate_row"] == 0


def test_tracer_restores_functions_and_reports_absent_targets():
    original = biaxbell.cli.evaluate_oracle
    with Tracer("biaxbell", ["oracle.evaluate_oracle", "oracle.no_such_function"]) as tracer:
        assert biaxbell.cli.evaluate_oracle is not original
        assert biaxbell.crosscheck.evaluate_oracle is biaxbell.cli.evaluate_oracle
    assert biaxbell.cli.evaluate_oracle is original
    assert tracer.absent == ["oracle.no_such_function"]
    assert tracer.summary()["oracle.no_such_function"].calls == 0


def test_tracer_self_time_excludes_children():
    tracer = Tracer("biaxbell", ["a", "b"])
    tracer.spans.extend([[0, 0.0, 10.0, -1], [1, 1.0, 4.0, 0], [1, 5.0, 6.0, 0]])
    summary = tracer.summary()
    assert summary["a"].self_s == pytest.approx(6.0)
    assert summary["b"].self_s == pytest.approx(4.0)
    assert summary["b"].calls == 2


def test_benchmark_json_names_match_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    stats = {target: LayerStats() for target in run.TRACED}
    layer = run.per_layer([stats], 1, {}, 0.0, 0.0, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in spec["per_layer"])
    e2e = run.end_to_end(1, [1.0], [1.0], [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])


def test_workloads_are_seeded_and_fixed_in_size():
    for name, points in (("sweep_fig1", 615), ("crosscheck", 294), ("sweep_zero_mean", 202)):
        first, again = workloads.make(name, 7, "out"), workloads.make(name, 7, "out")
        other = workloads.make(name, 8, "out")
        assert first.calls == again.calls != other.calls
        assert first.points == other.points == points
        assert all(call.grid is None or len(call.grid) == call.points for call in first.calls)
        assert len({call.out_path for call in first.calls}) == len(first.calls)


def test_measure_sums_the_fastest_run_of_every_call(monkeypatch):
    workload = workloads.Workload("fake", [
        workloads.Call([str(i)], 10, "out", "csv", None) for i in range(3)
    ])
    walls = iter([0.3, 0.2, 0.1, 0.1, 0.3, 0.05])     # two passes, then 1.0 per call

    class FakeRunner(run.Runner):
        def once(self, index):
            self.attempted += 1
            wall = next(walls, 1.0)
            return wall, 2 * wall

    monkeypatch.setattr(run, "set_up", lambda workdir: 0.5)
    runner = FakeRunner(workload, None)
    metrics = run.measure(runner, 0.05, False, "unused")
    assert runner.attempted >= 6
    assert metrics["points_per_s"][0] == pytest.approx(30 / (0.1 + 0.2 + 0.05))
    assert metrics["cpu_s"][0] == pytest.approx(2 * (0.1 + 0.2 + 0.05))
    assert metrics["setup_s"][0] == 0.5


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crosscheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""

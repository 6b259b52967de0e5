"""The reduction and the record of ``scripts/bench_pairs.py``, from canned
run output: no benchmark runs here."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_pairs  # dataclasses look their module up
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.24},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "ok_ratio", "unit": "ratio", "better": "higher", "bound": 0.02},
]


HOST = {"nproc": 2, "cpus": [0], "python": "3.11.7"}


def _stdout(throughput: float, p50_ms: float, ok_ratio: float = 1.0,
            host: dict = HOST) -> str:
    metrics = {
        "throughput": {"value": throughput, "unit": "1/s"},
        "p50_ms": {"value": p50_ms, "unit": "ms"},
        "ok_ratio": {"value": ok_ratio, "unit": "ratio"},
        # An untraced run never carries a per-layer metric; this one does
        # to show that the per-layer rows ignore it.
        "core.kernel_us_per_row": {"value": 999.0, "unit": "us"},
    }
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    return "\n".join([
        f"host: {json.dumps(host)}",
        "end-to-end (serve_churn)",
        f"  sat_rps {throughput:>12.4f} req/s n=9 at the reference speed "
        f"(as measured {throughput * 0.9:.1f})",
        json.dumps(result),
    ]) + "\n"


def _run(throughput: float, p50_ms: float) -> "bench_pairs.Run":
    return bench_pairs.parse_run(_stdout(throughput, p50_ms), "")


def test_a_run_is_read_from_its_last_json_line():
    run = _run(7000.0, 3.9)
    assert run.metrics == {"throughput": 7000.0, "p50_ms": 3.9, "ok_ratio": 1.0,
                           "core.kernel_us_per_row": 999.0}
    assert run.measured_rate == 6300.0
    assert run.host == HOST


def test_a_run_without_a_result_line_failed_with_its_last_stderr_line():
    stdout = _stdout(7000.0, 3.9).rsplit("{", 1)[0]  # cut before the JSON line
    stderr = "Traceback ...\nRuntimeError: saturation phase ran out of scheduled keys\n"
    run = bench_pairs.parse_run(stdout, stderr)
    assert run.metrics is None
    assert run.failure == "RuntimeError: saturation phase ran out of scheduled keys"


def test_pairs_reduce_to_quartiles_wins_and_a_gain():
    parent = [_run(t, 4.0) for t in (7000, 7100, 7200, 7000, 7050)]
    change = [_run(t, p) for t, p in ((8800, 4.0), (8900, 3.5), (9000, 3.9),
                                      (7000, 4.1), (8850, 3.8))]
    rows = {row.name: row for row in bench_pairs.reduce_pairs(END_TO_END, parent, change)}
    throughput = rows["throughput"]
    assert throughput.parent == (7000.0, 7050.0, 7100.0)
    assert throughput.change == (8800.0, 8850.0, 8900.0)
    assert (throughput.wins, throughput.pairs) == (4, 5)  # the tie at 7000 counts for neither
    assert throughput.relative == pytest.approx(1800 / 7050)
    assert not throughput.worse_than_bound
    assert not throughput.gain  # 4 wins of 5 is short of nine tenths
    p50 = rows["p50_ms"]
    assert p50.wins == 3  # lower is better; 4.0 against 4.0 is a tie
    assert not p50.worse_than_bound
    assert rows["ok_ratio"].relative == 0.0
    # Without the tie and twice over: ten of ten wins, medians 1,800/s
    # apart against a parent spread under 100/s.
    untied = [0, 1, 2, 4] * 2 + [0, 1]
    rows = bench_pairs.reduce_pairs(END_TO_END, [parent[i] for i in untied],
                                    [change[i] for i in untied])
    assert (rows[0].wins, rows[0].pairs) == (10, 10)
    assert rows[0].gain
    # Five pairs of the same runs are too few to claim it.
    assert not bench_pairs.reduce_pairs(END_TO_END, [parent[i] for i in untied[:5]],
                                        [change[i] for i in untied[:5]])[0].gain


def test_a_median_worse_than_its_bound_is_flagged_and_failed_runs_are_skipped():
    parent = [_run(7000, 4.0), _run(7000, 4.0), _run(7000, 4.0)]
    change = [_run(5000, 5.5), bench_pairs.Run(None, "no result line"), _run(5100, 5.4)]
    rows = {row.name: row for row in bench_pairs.reduce_pairs(END_TO_END, parent, change)}
    assert rows["throughput"].pairs == 2
    assert rows["throughput"].worse_than_bound  # -28% against a 24% bound
    assert rows["p50_ms"].worse_than_bound  # +36% against a 24% bound
    assert all("WORSE THAN BOUND" in line for line in bench_pairs.format_rows(rows.values())[1:3])


def test_the_key_budget_is_read_from_perfbench_and_near_misses_are_marked(tmp_path):
    # The budget comes from perfbench's own source, never a copy of it.
    endtoend = _PATH.parent.parent / "perfbench" / "endtoend.py"
    assert f"SAT_KEYS_PER_S = {bench_pairs.scheduled_keys_per_s():.0f}" in endtoend.read_text()
    source = tmp_path / "endtoend.py"
    source.write_text("RATE_RPS = 1000.0\nSAT_KEYS_PER_S = 20000\n")
    assert bench_pairs.scheduled_keys_per_s(source) == 20000.0
    parent = [_run(9000.0, 4.0), _run(10000.0, 4.0)]  # as measured: 8100, 9000
    change = [_run(16000.0, 4.0), bench_pairs.Run(None, "no result line")]  # 14400
    assert bench_pairs.budget_share(parent[1], 20000.0) == pytest.approx(0.45)
    assert bench_pairs.budget_share(change[1], 20000.0) is None
    lines = bench_pairs.format_budget({"parent": parent, "change": change}, 16000.0)
    assert lines == [
        "key budget parent: peak 9000.0 req/s as measured = 56.2% of 16000 scheduled keys/s",
        "key budget change: peak 14400.0 req/s as measured = 90.0% of 16000 scheduled keys/s"
        "  ABOVE 85%",
    ]


# --------------------------------------------------------------------- #
# The record: one per invocation, appended to the trajectory file
# --------------------------------------------------------------------- #
PER_LAYER = [
    {"name": "core.kernel_us_per_row", "unit": "us", "better": "lower"},
    {"name": "vision.background.ms", "unit": "ms", "better": "lower"},
    {"name": "serve.cache.hit_ratio", "unit": "ratio", "better": "higher"},
]


def _traced_stdout(kernel_us: float, hit_ratio: float) -> str:
    metrics = {
        "vision.background.ms": {"value": 0.0, "unit": "ms"},
        "core.kernel_us_per_row": {"value": kernel_us, "unit": "us"},
        "serve.cache.hit_ratio": {"value": hit_ratio, "unit": "ratio"},
    }
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    return "\n".join([
        f"host: {json.dumps(HOST)}",
        "per-layer (serve_churn, traced 5 s; spans in perfbench/out/x.jsonl.gz)",
        f"  {'vision.background.ms':<36} {0.0:>12.4f} {'ms':<6} n={0:<7} "
        "BackgroundSubtractor.apply CPU per frame (median)  (not on this workload's path)",
        f"  {'core.kernel_us_per_row':<36} {kernel_us:>12.4f} {'us':<6} n={812:<7} "
        "predict_batch_packed CPU per row",
        f"  {'serve.cache.hit_ratio':<36} {hit_ratio:>12.4f} {'ratio':<6} n={4000:<7} hits",
        json.dumps(result),
    ]) + "\n"


class FakeBench:
    """Stands in for ``run_once``: canned runs, handed out per side in order."""

    def __init__(self, parent_dir, untraced, traced):
        self.parent_dir = parent_dir
        self.runs = {(side, trace): list(runs[side])
                     for trace, runs in ((0, untraced), (1, traced)) for side in runs}
        self.order: list[tuple[str, int]] = []  # (side, trace) of every run, in order

    def __call__(self, checkout, command, workload, seed, seconds, trace):
        side = "parent" if checkout == self.parent_dir else "change"
        self.order.append((side, trace))
        return self.runs[side, trace].pop(0)


@pytest.fixture()
def bench(tmp_path, monkeypatch):
    """Runs ``main`` on canned runs and a trajectory file under ``tmp_path``."""
    parent_dir = tmp_path / "parent"
    (parent_dir / "src").mkdir(parents=True)
    trajectory = tmp_path / "BENCH_trajectory.json"
    monkeypatch.setattr(bench_pairs, "TRAJECTORY", trajectory)
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"command": ["perfbench"], "run_seconds": 45,
                                "end_to_end": END_TO_END, "per_layer": PER_LAYER}))
    monkeypatch.setattr(bench_pairs, "BENCHMARK", spec)

    def run(untraced, traced, workload="serve_churn"):
        run.fake = FakeBench(parent_dir, untraced, traced)
        monkeypatch.setattr(bench_pairs, "run_once", run.fake)
        pairs = len(untraced["parent"])
        return bench_pairs.main(["--workload", workload, "--pairs", str(pairs),
                                 "--parent", str(parent_dir), "--seed", "7"])

    run.trajectory = trajectory
    return run


def _canned(parent_throughputs, change_throughputs, host=HOST):
    untraced = {
        "parent": [bench_pairs.parse_run(_stdout(t, 4.0, host=host), "")
                   for t in parent_throughputs],
        "change": [bench_pairs.parse_run(_stdout(t, 3.9), "") for t in change_throughputs],
    }
    traced = {
        "parent": [bench_pairs.parse_run(_traced_stdout(k, 0.1), "")
                   for k in (2.0, 2.2, 2.4, 2.6)],
        "change": [bench_pairs.parse_run(_traced_stdout(k, 0.1), "")
                   for k in (1.0, 1.1, 3.0, 1.2)],
    }
    return untraced, traced


def test_a_record_holds_the_rows_reduce_pairs_gives(bench):
    untraced, traced = _canned((7000, 7100, 7200, 7000, 7050), (8800, 8900, 9000, 7000, 8850))
    assert bench(untraced, traced) == 0
    (record,) = json.loads(bench.trajectory.read_text())
    rows = bench_pairs.reduce_pairs(END_TO_END, untraced["parent"], untraced["change"])
    assert record["end_to_end"] == [
        {"name": row.name, "unit": row.unit, "better": row.better, "bound": row.bound,
         "parent": list(row.parent), "change": list(row.change), "wins": row.wins,
         "pairs": row.pairs, "relative": row.relative, "verdict": row.verdict}
        for row in rows
    ]
    assert [row["verdict"] for row in record["end_to_end"]] == [
        "within bound", "within bound", "within bound"]
    assert (record["workload"], record["seed"], record["run_seconds"]) == ("serve_churn", 7, 45)
    assert record["host"] == HOST
    assert (record["pairs"], record["traced_pairs"]) == (5, bench_pairs.TRACED_PAIRS)
    assert record["failed"] == {"parent": 0, "change": 0}
    assert record["peak_key_share"] == {"parent": pytest.approx(7200 * 0.9 / 16000),
                                        "change": pytest.approx(9000 * 0.9 / 16000)}
    parent, change = record["sides"]["parent"], record["sides"]["change"]
    assert parent["commit"] is None and parent["dirty"] is None  # not a git checkout
    assert parent["src_sha256"] == bench_pairs.source_digest(Path(bench.trajectory.parent, "parent"))
    assert change["src_sha256"] == bench_pairs.source_digest(bench_pairs.ROOT)


def test_per_layer_rows_come_from_traced_runs_only(bench):
    untraced, traced = _canned((7000,) * 3, (7000,) * 3)
    bench(untraced, traced)
    (record,) = json.loads(bench.trajectory.read_text())
    layers = {row["name"]: row for row in record["per_layer"]}
    # The untraced runs' 999 never enters; the layer off the workload's
    # path (n=0) is left out; per-layer rows carry no bound and no verdict.
    assert set(layers) == {"core.kernel_us_per_row", "serve.cache.hit_ratio"}
    kernel = layers["core.kernel_us_per_row"]
    assert kernel["parent"] == pytest.approx([2.15, 2.3, 2.45])
    assert kernel["change"] == pytest.approx([1.075, 1.15, 1.65])
    assert kernel["runs"] == 4
    assert "verdict" not in kernel and "bound" not in kernel
    assert [row["name"] for row in record["end_to_end"]] == ["throughput", "p50_ms", "ok_ratio"]


def test_a_failed_traced_run_is_counted_and_left_out(bench):
    untraced, traced = _canned((7000,) * 3, (7000,) * 3)
    traced["change"][2] = bench_pairs.Run(None, "check failed: accounting")
    assert bench(untraced, traced) == 1
    (record,) = json.loads(bench.trajectory.read_text())
    assert record["failed"] == {"parent": 0, "change": 1}
    kernel = next(row for row in record["per_layer"] if row["name"] == "core.kernel_us_per_row")
    assert kernel["change"] == pytest.approx([1.05, 1.1, 1.15]) and kernel["runs"] == 3


def test_the_traced_round_leads_each_side_equally_often(bench):
    untraced, traced = _canned((7000,) * 5, (7000,) * 5)
    bench(untraced, traced)
    traced_runs = [side for side, trace in bench.fake.order if trace]
    assert len(traced_runs) == 2 * bench_pairs.TRACED_PAIRS
    leads = traced_runs[::2]  # the first run of each traced pair
    assert {side: leads.count(side) for side in ("parent", "change")} == {
        "parent": bench_pairs.TRACED_PAIRS // 2, "change": bench_pairs.TRACED_PAIRS // 2}
    assert all(a != b for a, b in zip(traced_runs[::2], traced_runs[1::2]))  # one of each


def test_runs_on_different_hosts_exit_1_and_record_nothing(bench, capsys):
    other = {**HOST, "cpu": "another model"}
    untraced, traced = _canned((7000, 7000), (7000, 7000))
    untraced["parent"][1] = bench_pairs.parse_run(_stdout(7000, 4.0, host=other), "")
    assert bench(untraced, traced) == 1
    assert not bench.trajectory.exists()
    assert "disagree on the host" in capsys.readouterr().out


def test_an_append_keeps_earlier_records_byte_for_byte(bench):
    untraced, traced = _canned((7000, 7100), (7200, 7300))
    bench(untraced, traced)
    first = bench.trajectory.read_bytes()
    untraced, traced = _canned((7000, 7100), (5000, 5100))  # worse than the bound
    assert bench(untraced, traced) == 1
    second = bench.trajectory.read_bytes()
    assert second.startswith(first.rstrip()[:-1].rstrip())  # all but the closing bracket
    records = json.loads(second)
    assert records[0] == json.loads(first)[0]
    assert records[1]["end_to_end"][0]["verdict"] == "WORSE THAN BOUND"


def test_a_wide_spread_is_unresolved():
    parent = [_run(t, 4.0) for t in (5000, 7000, 9000, 7000, 7000)]
    change = [_run(t, 4.0) for t in (7100, 7100, 7100, 7100, 7100)]
    throughput = bench_pairs.reduce_pairs(END_TO_END, parent, change)[0]
    assert throughput.spread == pytest.approx(0.0)  # quartiles 7000/7000/7000
    assert throughput.verdict == "within bound"
    parent = [_run(t, 4.0) for t in (5000, 5500, 9000, 9500, 7000)]
    throughput = bench_pairs.reduce_pairs(END_TO_END, parent, change)[0]
    assert throughput.spread == pytest.approx((9000 - 5500) / 7000)
    assert throughput.verdict == "unresolved"


def test_the_source_digest_follows_src_and_skips_pycache(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "core.py").write_text("X = 1\n")
    before = bench_pairs.source_digest(tmp_path)
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "core.cpython-311.pyc").write_bytes(b"\x00compiled")
    assert bench_pairs.source_digest(tmp_path) == before
    (tmp_path / "README.md").write_text("outside src/\n")
    assert bench_pairs.source_digest(tmp_path) == before
    (package / "core.py").write_text("X = 2\n")
    assert bench_pairs.source_digest(tmp_path) != before
    (package / "core.py").write_text("X = 1\n")
    (package / "core2.py").write_text("")  # a new, empty file changes it too
    assert bench_pairs.source_digest(tmp_path) != before

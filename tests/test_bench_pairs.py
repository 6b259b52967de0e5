"""The reduction of ``scripts/bench_pairs.py``, from canned run output."""

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


def _stdout(throughput: float, p50_ms: float, ok_ratio: float = 1.0) -> str:
    metrics = {
        "throughput": {"value": throughput, "unit": "1/s"},
        "p50_ms": {"value": p50_ms, "unit": "ms"},
        "ok_ratio": {"value": ok_ratio, "unit": "ratio"},
    }
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    return "\n".join([
        'host: {"cpus": 2}',
        "end-to-end (serve_churn)",
        f"  sat_rps {throughput:>12.4f} req/s n=9 at the reference speed "
        f"(as measured {throughput * 0.9:.1f})",
        json.dumps(result),
    ]) + "\n"


def _run(throughput: float, p50_ms: float) -> "bench_pairs.Run":
    return bench_pairs.parse_run(_stdout(throughput, p50_ms), "")


def test_a_run_is_read_from_its_last_json_line():
    run = _run(7000.0, 3.9)
    assert run.metrics == {"throughput": 7000.0, "p50_ms": 3.9, "ok_ratio": 1.0}
    assert run.measured_rate == 6300.0


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

#!/usr/bin/env python3
"""Paired benchmark runs: a parent checkout against this repository.

Runs the benchmark ``BENCHMARK.json`` declares (``perfbench/run.py
--trace 0`` for its ``run_seconds``) once in a checkout of the parent
commit and once in this repository per pair, alternating which side runs
first, then reduces the runs the way a claimed gain is judged:

* each side's median and quartiles of every end-to-end metric,
* the change's wins over the parent, pair by pair (ties count for
  neither side),
* the change of the medians against the metric's ``bound`` and
  ``better``, and whether it is a gain: at least ten pairs, wins in at
  least nine tenths of them, and medians further apart than the parent's
  quartiles.

A run that prints no JSON result line failed; its last stderr line is
reported.  Exits 1 when a run failed or a metric is worse than its bound.
Writes nothing: every run's output is read from its pipes.

On ``serve_churn`` it also shows how close each side came to the keys the
benchmark schedules per second of saturation (``SAT_KEYS_PER_S``, read
from ``perfbench/endtoend.py``): a run that outpaces them dies with
"saturation phase ran out of scheduled keys", so runs above
``BUDGET_WARN`` of the budget are marked.

    python3 scripts/bench_pairs.py --workload serve_churn --pairs 10 \\
        --parent ../parent [--seed 1]

where ``../parent`` is a checkout of the parent commit, e.g. from
``git worktree add --detach ../parent HEAD~1``.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: A gain needs at least this many pairs, and the change must win this
#: share of them.
MIN_PAIRS = 10
WIN_SHARE = 0.9
_MEASURED_RATE = re.compile(r"^\s*sat_rps\b.*\(as measured ([0-9.]+)\)", re.MULTILINE)
#: A run whose as-measured saturation rate passes this share of the
#: scheduled keys per second is marked: the next speed-up may exhaust them.
BUDGET_WARN = 0.85


@dataclass(frozen=True)
class Run:
    """One benchmark run: its metrics, or why it has none."""

    metrics: Optional[dict[str, float]]
    failure: str = ""
    #: The saturation rate as measured (serve_churn), before scaling to
    #: the reference speed; report-only.
    measured_rate: Optional[float] = None


@dataclass(frozen=True)
class Row:
    """The reduction of one end-to-end metric over all pairs."""

    name: str
    unit: str
    better: str
    bound: float
    parent: tuple[float, float, float]  # (q1, median, q3)
    change: tuple[float, float, float]
    wins: int
    pairs: int
    relative: float  # change of the medians, as a share of the parent's

    @property
    def worse_than_bound(self) -> bool:
        loss = -self.relative if self.better == "higher" else self.relative
        return loss > self.bound

    @property
    def gain(self) -> bool:
        q1, median, q3 = self.parent
        ahead = self.change[1] - median
        if self.better == "lower":
            ahead = -ahead
        return (self.pairs >= MIN_PAIRS and self.wins >= WIN_SHARE * self.pairs
                and ahead > q3 - q1)


def parse_run(stdout: str, stderr: str) -> Run:
    """The run's metrics from its last JSON line, else its last stderr line."""
    match = _MEASURED_RATE.search(stdout)
    measured = float(match.group(1)) if match else None
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                break
            metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
            return Run(metrics, measured_rate=measured)
        if line.strip():
            break
    errors = [line for line in stderr.splitlines() if line.strip()]
    return Run(None, errors[-1] if errors else "no result line", measured)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def reduce_pairs(
    end_to_end: Sequence[dict], parent: Sequence[Run], change: Sequence[Run]
) -> list[Row]:
    """One :class:`Row` per metric of ``end_to_end`` (BENCHMARK.json's
    list) present in the successful runs; ``parent[i]`` and ``change[i]``
    are pair ``i``."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        pairs = [
            (p.metrics[name], c.metrics[name])
            for p, c in zip(parent, change)
            if p.metrics and c.metrics and name in p.metrics and name in c.metrics
        ]
        if not pairs:
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
        before = quartiles([p for p, _ in pairs])
        after = quartiles([c for _, c in pairs])
        delta = after[1] - before[1]
        if before[1]:
            relative = delta / abs(before[1])
        else:
            relative = math.copysign(math.inf, delta) if delta else 0.0
        rows.append(Row(name, spec["unit"], spec["better"], float(spec["bound"]),
                        before, after, wins, len(pairs), relative))
    return rows


def scheduled_keys_per_s(source: Path = ROOT / "perfbench" / "endtoend.py") -> float:
    """perfbench's ``SAT_KEYS_PER_S``, read from its source without running it."""
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["SAT_KEYS_PER_S"]:
            return float(ast.literal_eval(node.value))
    raise ValueError(f"no SAT_KEYS_PER_S in {source}")


def budget_share(run: Run, keys_per_s: float) -> Optional[float]:
    """The run's as-measured saturation rate as a share of the key budget."""
    return None if run.measured_rate is None else run.measured_rate / keys_per_s


def format_budget(runs: dict[str, Sequence[Run]], keys_per_s: float) -> list[str]:
    """Each side's highest as-measured saturation rate against the budget."""
    lines = []
    for side, each in runs.items():
        rates = [run.measured_rate for run in each if run.measured_rate is not None]
        if rates:
            share = max(rates) / keys_per_s
            mark = f"  ABOVE {BUDGET_WARN:.0%}" if share > BUDGET_WARN else ""
            lines.append(f"key budget {side}: peak {max(rates):.1f} req/s as measured = "
                         f"{share:.1%} of {keys_per_s:.0f} scheduled keys/s{mark}")
    return lines


def format_rows(rows: Sequence[Row]) -> list[str]:
    lines = [f"{'metric':<12} {'unit':<6} {'parent q1 / median / q3':<30} "
             f"{'change q1 / median / q3':<30} {'wins':>6} {'change':>8} "
             f"{'bound':>6}  verdict"]
    for row in rows:
        verdict = "WORSE THAN BOUND" if row.worse_than_bound else "within bound"
        if row.gain:
            verdict += ", gain"
        sides = ["{:.4g} / {:.4g} / {:.4g}".format(*side) for side in (row.parent, row.change)]
        lines.append(f"{row.name:<12} {row.unit:<6} {sides[0]:<30} {sides[1]:<30} "
                     f"{row.wins:>3}/{row.pairs:<2} {row.relative:>+8.1%} "
                     f"{row.bound:>6.0%}  {verdict} ({row.better} is better)")
    return lines


def run_once(checkout: Path, command: Sequence[str], workload: str, seed: int,
             seconds: float) -> Run:
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    return parse_run(done.stdout, done.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs: dict[str, list[Run]] = {"parent": [], "change": []}
    keys_per_s = scheduled_keys_per_s()
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, "
          f"{spec['run_seconds']} s per run")
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], spec["command"], args.workload, args.seed,
                           spec["run_seconds"])
            runs[side].append(run)
            if run.metrics is None:
                detail = f"FAILED: {run.failure}"
            else:
                detail = " ".join(f"{k}={v:.4g}" for k, v in run.metrics.items())
            share = budget_share(run, keys_per_s)
            if share is not None:
                detail += f" (sat_rps as measured {run.measured_rate:.1f}, {share:.0%} of keys"
                detail += f", ABOVE {BUDGET_WARN:.0%})" if share > BUDGET_WARN else ")"
            print(f"pair {pair + 1} {side}: {detail}", flush=True)
    rows = reduce_pairs(spec["end_to_end"], runs["parent"], runs["change"])
    print("\n".join(format_rows(rows) + format_budget(runs, keys_per_s)))
    failed = {side: sum(run.metrics is None for run in each) for side, each in runs.items()}
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    return 1 if any(failed.values()) or any(row.worse_than_bound for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

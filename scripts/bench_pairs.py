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
  ``better``, and a verdict: worse than the bound; a gain (at least ten
  pairs, wins in at least nine tenths of them, and medians further apart
  than the parent's quartiles); unresolved (either side's quartiles
  spread wider than the bound, so the pairs cannot tell a change of
  that size); or within the bound.

A traced round of ``TRACED_PAIRS`` alternating pairs (``--trace 1`` for
``TRACED_SECONDS``; an even count, so each side leads half of them)
follows, and every ``per_layer`` metric of
``BENCHMARK.json`` is reduced to each side's quartiles.  Those rows carry
no bound and no verdict.

On ``serve_churn`` it also shows how close each side came to the keys the
benchmark schedules per second of saturation (``SAT_KEYS_PER_S``, read
from ``perfbench/endtoend.py``): a run that outpaces them dies with
"saturation phase ran out of scheduled keys", so runs above
``BUDGET_WARN`` of the budget are marked.

Every invocation appends one record to ``BENCH_trajectory.json`` at the
repository root: the host, both sides (commit, dirty tree, SHA-256 of
``src/``), the pairs, failed runs and every reduced row.  Earlier records
are kept byte for byte.  A run that prints no JSON result line failed;
its last stderr line is reported.  Exits 1, recording nothing, when the
runs disagree on the host (perfbench's ``host:`` line); exits 1 after
recording when a run failed or a metric is worse than its bound.

    python3 scripts/bench_pairs.py --workload serve_churn --pairs 10 \\
        --parent ../parent [--seed 1]

where ``../parent`` is a checkout of the parent commit, e.g. from
``git clone . ../parent && git -C ../parent checkout HEAD~1``.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
#: The committed record of every invocation.
TRAJECTORY = ROOT / "BENCH_trajectory.json"
#: A gain needs at least this many pairs, and the change must win this
#: share of them.
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Traced pairs after the untraced ones.  Even, so each side leads (runs
#: first in) as many traced pairs as the other.
TRACED_PAIRS = 4
#: Length of a traced run (half untraced, half traced).  A traced run
#: keeps every span in memory: a 45-s serve_churn run peaked at 321 MB.
TRACED_SECONDS = 10.0
_HOST = re.compile(r"^host: (.*)$", re.MULTILINE)
_MEASURED_RATE = re.compile(r"^\s*sat_rps\b.*\(as measured ([0-9.]+)\)", re.MULTILINE)
#: A per-layer report line: name, value, unit and sample count.
_LAYER_COUNT = re.compile(r"^  (\S+) +\S+ +\S+ +n=(\d+)", re.MULTILINE)
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
    #: perfbench's host fingerprint, or None when the run printed none.
    host: Optional[dict] = None
    #: Samples behind each per-layer metric of a traced run; 0 means the
    #: layer is not on the workload's path.
    counts: dict[str, int] = field(default_factory=dict)


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

    @property
    def spread(self) -> float:
        """The wider side's quartile spread, as a share of its median."""
        return max(_relative(q3 - q1, median) for q1, median, q3 in (self.parent, self.change))

    @property
    def verdict(self) -> str:
        if self.worse_than_bound:
            return "WORSE THAN BOUND"
        if self.gain:
            return "gain"
        return "unresolved" if self.spread > self.bound else "within bound"


@dataclass(frozen=True)
class LayerRow:
    """The reduction of one per-layer metric over the traced runs."""

    name: str
    unit: str
    better: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    runs: int  # traced runs per side behind the quartiles


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return math.copysign(math.inf, delta) if delta else 0.0


def parse_run(stdout: str, stderr: str) -> Run:
    """The run's metrics from its last JSON line, else its last stderr line."""
    match = _MEASURED_RATE.search(stdout)
    measured = float(match.group(1)) if match else None
    match = _HOST.search(stdout)
    host = json.loads(match.group(1)) if match else None
    counts = {name: int(n) for name, n in _LAYER_COUNT.findall(stdout)}
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                break
            metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
            return Run(metrics, measured_rate=measured, host=host, counts=counts)
        if line.strip():
            break
    errors = [line for line in stderr.splitlines() if line.strip()]
    return Run(None, errors[-1] if errors else "no result line", measured, host, counts)


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
        rows.append(Row(name, spec["unit"], spec["better"], float(spec["bound"]),
                        before, after, wins, len(pairs),
                        _relative(after[1] - before[1], before[1])))
    return rows


def reduce_layers(
    per_layer: Sequence[dict], parent: Sequence[Run], change: Sequence[Run]
) -> list[LayerRow]:
    """Each side's quartiles of every metric of ``per_layer`` (BENCHMARK.json's
    list) that every successful traced run measured; a metric with no
    samples in some run (not on the workload's path) is left out."""
    sides = [[run for run in runs if run.metrics] for runs in (parent, change)]
    if not all(sides):
        return []
    rows = []
    for spec in per_layer:
        name = spec["name"]
        if any(name not in run.metrics or run.counts.get(name, 1) == 0
               for side in sides for run in side):
            continue
        before, after = (quartiles([run.metrics[name] for run in side]) for side in sides)
        rows.append(LayerRow(name, spec["unit"], spec["better"], before, after,
                             min(len(side) for side in sides)))
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


def peak_shares(runs: dict[str, Sequence[Run]], keys_per_s: float) -> dict[str, float]:
    """Each side's highest as-measured saturation rate as a share of the budget."""
    peaks = {}
    for side, each in runs.items():
        shares = [budget_share(run, keys_per_s) for run in each if run.measured_rate is not None]
        if shares:
            peaks[side] = max(shares)
    return peaks


def format_budget(runs: dict[str, Sequence[Run]], keys_per_s: float) -> list[str]:
    """Each side's highest as-measured saturation rate against the budget."""
    lines = []
    for side, share in peak_shares(runs, keys_per_s).items():
        mark = f"  ABOVE {BUDGET_WARN:.0%}" if share > BUDGET_WARN else ""
        lines.append(f"key budget {side}: peak {share * keys_per_s:.1f} req/s as measured = "
                     f"{share:.1%} of {keys_per_s:.0f} scheduled keys/s{mark}")
    return lines


def _sides(row) -> list[str]:
    return ["{:.4g} / {:.4g} / {:.4g}".format(*side) for side in (row.parent, row.change)]


def format_rows(rows: Sequence[Row]) -> list[str]:
    lines = [f"{'metric':<12} {'unit':<6} {'parent q1 / median / q3':<30} "
             f"{'change q1 / median / q3':<30} {'wins':>6} {'change':>8} "
             f"{'bound':>6}  verdict"]
    for row in rows:
        sides = _sides(row)
        lines.append(f"{row.name:<12} {row.unit:<6} {sides[0]:<30} {sides[1]:<30} "
                     f"{row.wins:>3}/{row.pairs:<2} {row.relative:>+8.1%} "
                     f"{row.bound:>6.0%}  {row.verdict} ({row.better} is better)")
    return lines


def format_layers(rows: Sequence[LayerRow]) -> list[str]:
    if not rows:
        return []
    lines = [f"{'per-layer (traced)':<36} {'unit':<6} {'parent q1 / median / q3':<30} "
             f"{'change q1 / median / q3':<30} runs"]
    for row in rows:
        sides = _sides(row)
        lines.append(f"{row.name:<36} {row.unit:<6} {sides[0]:<30} {sides[1]:<30} "
                     f"{row.runs:>4}  ({row.better} is better)")
    return lines


def source_digest(checkout: Path) -> str:
    """SHA-256 over the checkout's ``src/`` files: sorted paths and bytes,
    ``__pycache__`` skipped."""
    src = checkout / "src"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        relative = path.relative_to(src)
        if path.is_file() and "__pycache__" not in relative.parts:
            data = path.read_bytes()
            digest.update(f"{relative.as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def side_identity(checkout: Path) -> dict:
    """The checkout's commit, whether its tree is dirty, and its
    ``src/`` digest; commit and dirty are None outside a git checkout."""

    def git(*args: str) -> Optional[str]:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if commit else None
    return {"commit": commit, "dirty": None if status is None else bool(status),
            "src_sha256": source_digest(checkout)}


def build_record(
    args: argparse.Namespace, spec: dict, host: Optional[dict], sides: dict[str, dict],
    failed: dict[str, int], peaks: dict[str, float], rows: Sequence[Row],
    layers: Sequence[LayerRow],
) -> dict:
    record = {
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "host": host,
        "sides": sides,
        "pairs": args.pairs,
        "traced_pairs": TRACED_PAIRS,
        "traced_seconds": TRACED_SECONDS,
        "failed": failed,
    }
    if peaks:  # serve_churn only: camera has no saturation phase
        record["peak_key_share"] = peaks
    record["end_to_end"] = [
        {"name": row.name, "unit": row.unit, "better": row.better, "bound": row.bound,
         "parent": list(row.parent), "change": list(row.change), "wins": row.wins,
         "pairs": row.pairs, "relative": row.relative if math.isfinite(row.relative) else None,
         "verdict": row.verdict}
        for row in rows
    ]
    record["per_layer"] = [
        {"name": row.name, "unit": row.unit, "better": row.better,
         "parent": list(row.parent), "change": list(row.change), "runs": row.runs}
        for row in layers
    ]
    return record


def format_record(record: dict) -> str:
    """The record as JSON, one line per key and per reduced row."""
    lines = []
    for key, value in record.items():
        if isinstance(value, list) and value:
            rows = ",\n".join(f"    {json.dumps(row)}" for row in value)
            lines.append(f"  {json.dumps(key)}: [\n{rows}\n  ]")
        else:
            lines.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    return "{\n" + ",\n".join(lines) + "\n}"


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path``, creating the file if
    it is missing; the bytes of earlier records are kept as they are."""
    entry = format_record(record)
    if path.exists():
        text = path.read_text()
        if not isinstance(json.loads(text), list):
            raise ValueError(f"{path} does not hold a JSON list")
        head = text.rstrip()[:-1].rstrip()  # drop the closing bracket
        text = f"{head}{',' if head != '[' else ''}\n{entry}\n]\n"
    else:
        text = f"[\n{entry}\n]\n"
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text(text)
    os.replace(scratch, path)


def run_once(checkout: Path, command: Sequence[str], workload: str, seed: int,
             seconds: float, trace: int) -> Run:
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    return parse_run(done.stdout, done.stderr)


def run_pairs(
    checkouts: dict[str, Path], command: Sequence[str], args: argparse.Namespace,
    pairs: int, seconds: float, trace: int, keys_per_s: float,
) -> dict[str, list[Run]]:
    """``pairs`` alternating pairs, each run printed as it ends."""
    runs: dict[str, list[Run]] = {"parent": [], "change": []}
    label = "traced pair" if trace else "pair"
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(checkouts[side], command, args.workload, args.seed, seconds, trace)
            runs[side].append(run)
            if run.metrics is None:
                detail = f"FAILED: {run.failure}"
            elif trace:
                detail = "ok"
            else:
                detail = " ".join(f"{k}={v:.4g}" for k, v in run.metrics.items())
            share = budget_share(run, keys_per_s)
            if share is not None:
                detail += f" (sat_rps as measured {run.measured_rate:.1f}, {share:.0%} of keys"
                detail += f", ABOVE {BUDGET_WARN:.0%})" if share > BUDGET_WARN else ")"
            print(f"{label} {pair + 1} {side}: {detail}", flush=True)
    return runs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    sides = {side: side_identity(checkout) for side, checkout in checkouts.items()}
    keys_per_s = scheduled_keys_per_s()
    print(f"{args.workload}: {args.pairs} pairs and {TRACED_PAIRS} traced pairs, "
          f"seed {args.seed}, {spec['run_seconds']} s per run, "
          f"{TRACED_SECONDS:g} s per traced run")
    runs = run_pairs(checkouts, spec["command"], args, args.pairs, spec["run_seconds"],
                     0, keys_per_s)
    traced = run_pairs(checkouts, spec["command"], args, TRACED_PAIRS, TRACED_SECONDS,
                       1, keys_per_s)
    every = [run for each in (runs, traced) for side in each.values() for run in side]
    hosts = {json.dumps(run.host, sort_keys=True) for run in every if run.host is not None}
    if len(hosts) > 1:
        print("the runs disagree on the host; nothing recorded:\n  " + "\n  ".join(sorted(hosts)))
        return 1
    rows = reduce_pairs(spec["end_to_end"], runs["parent"], runs["change"])
    layers = reduce_layers(spec["per_layer"], traced["parent"], traced["change"])
    print("\n".join(format_rows(rows) + format_layers(layers) + format_budget(runs, keys_per_s)))
    failed = {side: sum(run.metrics is None for run in runs[side] + traced[side])
              for side in runs}
    print(f"failed runs: parent {failed['parent']}, change {failed['change']}")
    peaks = peak_shares(runs, keys_per_s)
    host = json.loads(hosts.pop()) if hosts else None
    append_record(TRAJECTORY, build_record(args, spec, host, sides, failed, peaks, rows, layers))
    print(f"recorded in {TRAJECTORY.name}")
    return 1 if any(failed.values()) or any(row.worse_than_bound for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end half of the benchmark: set-up, checks and end-to-end metrics.

End-to-end metrics carry the same names on every workload:

=============  ==========================  ==================================
metric         camera                      serve_churn
=============  ==========================  ==================================
throughput     frames/s (fps)              sat-phase answered req/s (sat_rps)
                                           at the reference CPU speed
p50_ms         process_frame time          rate phase, due time -> answer
accuracy       id_accuracy, first replay   answers naming the drawn identity
ok_ratio       frames served cleanly or operations answered / offered
setup_s        median of 2 x N_SETUPS set-ups (training, snapshot, serve,
               systems, warm-up) at the reference CPU speed: N_SETUPS
               before the window, N_SETUPS after
peak_rss_mb    peak resident memory of the process
=============  ==========================  ==================================

``ok_ratio`` is ``1 - error_ratio``: the complement never reads 0.  The
report also prints p95 and p99 (ungated; see :func:`end_to_end`) and the
CPU-bound metrics as measured beside their values at the reference speed
(``host.SpeedGauge``).
"""

from __future__ import annotations

import json
import resource
import statistics

import numpy as np

import inputs as inputs_mod
from inputs import N_ACTORS
import workloads
from host import SpeedGauge
from spans import clock, due_latencies, percentile, tail_supported

WORKLOADS = ("camera", "serve_churn")
N_SETUPS = 3
#: Open-loop arrival rate of the rate phase.
RATE_RPS = 1000.0
#: Requests kept in flight by the saturation loop.
SAT_OUTSTANDING = 256
#: Keys scheduled per second of saturation phase (an upper bound on rate).
SAT_KEYS_PER_S = 16000
#: One frame interval of the paper's 30 fps camera: the p99 latency limit.
LATENCY_LIMIT_MS = 1000.0 / 30.0

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
    "throughput": "1/s", "p50_ms": "ms", "accuracy": "ratio",
}


class CheckFailed(Exception):
    """An answer or accounting check failed; the run has no result."""


def build_inputs(workload: str, seed: int, seconds: float):
    if workload == "camera":
        return inputs_mod.camera_inputs(seed)
    return inputs_mod.serve_inputs(
        seed,
        rate_rps=RATE_RPS,
        rate_seconds=seconds * workloads.RATE_SHARE,
        sat_requests=int(SAT_KEYS_PER_S * seconds * (1.0 - workloads.RATE_SHARE)),
    )


def build_rig(workload: str, data, obs=None):
    if workload == "camera":
        return workloads.CameraRig(data, obs=obs)
    return workloads.ServeRig(data, obs=obs)


def drive(workload: str, rig, data, seconds: float, log=None):
    if workload == "camera":
        return workloads.drive_camera(rig, data, seconds, log=log)
    return workloads.drive_serve(rig, data, seconds, outstanding=SAT_OUTSTANDING)


def set_up(workload: str, data, repeats: int, gauge: SpeedGauge):
    """Set the program up ``repeats`` times.

    Returns the last rig, still running, and each set-up's time as
    measured and at the reference speed (``host.SpeedGauge``).
    """
    measured, at_reference, rig = [], [], None
    for _ in range(repeats):
        if rig is not None:
            rig.close()
        began = clock()
        rig = build_rig(workload, data)
        ended = clock()
        measured.append(ended - began)
        at_reference.append((ended - began) * gauge.speed(began, ended))
    return rig, measured, at_reference


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #
#: Rows per in-process predict_batch call of the checks; bounds the
#: temporary memory the checks add to the run's peak.
ORACLE_CHUNK = 2048


def _oracles(rig, signatures: np.ndarray) -> list[dict]:
    """In-process ``predict_batch`` answers under every served snapshot."""
    answers = []
    for snapshot in rig.snapshots:
        classifier = snapshot.to_classifier()
        parts = [classifier.predict_batch(signatures[begin : begin + ORACLE_CHUNK])
                 for begin in range(0, len(signatures), ORACLE_CHUNK)]
        answers.append({field: np.concatenate([getattr(part, field) for part in parts])
                        for field in ("labels", "neurons", "distances", "rejected")})
    return answers


def check_camera(rig, data, run) -> dict:
    """Every observation must equal in-process predict_batch on its signature."""
    observations = [obs for *_, frame_obs in run.records for obs in frame_obs]
    if not observations:
        raise CheckFailed("the camera run produced no observations")
    bits = np.unpackbits(np.stack([obs.bits for obs in observations]), axis=1)
    labels = np.array([obs.label for obs in observations])
    distances = np.array([obs.distance for obs in observations])
    (oracle,) = _oracles(rig, bits[:, : rig.snapshots[0].n_bits])
    differs = (oracle["labels"] != labels) | (oracle["distances"] != distances)
    wrong = int(np.count_nonzero(differs))
    if wrong:
        raise CheckFailed(f"{wrong} of {len(labels)} observations differ from predict_batch")
    matched = total = 0
    for cam, k, first_pass, frame_obs in run.records:
        if not first_pass:
            continue
        truth = data.cameras[cam].truth[k]
        for obs in frame_obs:
            top, left, bottom, right = obs.box
            overlap = np.bincount(
                truth[top:bottom, left:right][obs.mask], minlength=N_ACTORS + 1
            )[1:]
            total += 1
            matched += int(overlap.max() > 0 and obs.label == int(overlap.argmax()))
    frames = len(run.frame_s)
    return {
        "attempted": frames,
        "failed": run.errors,
        "observations": len(labels),
        "accuracy": matched / total,
        "accuracy_n": total,
    }


def check_serve(rig, data, run) -> dict:
    """Every answer must equal predict_batch under one of the served
    snapshots, and every offered operation must have ended exactly once."""
    oracles = _oracles(rig, data.pool)
    offered = answered = refused = failed = correct_identity = 0
    for ledger in (run.rate, run.sat):
        status = ledger.view("status")
        keys = ledger.keys[: ledger.offered]
        unresolved = int(np.count_nonzero(status == workloads.UNRESOLVED))
        if unresolved:
            raise CheckFailed(f"{unresolved} requests never resolved")
        ok = status == workloads.ANSWERED
        matches = np.zeros(len(keys), dtype=bool)
        for oracle in oracles:
            matches |= (
                (ledger.view("label") == oracle["labels"][keys])
                & (ledger.view("neuron") == oracle["neurons"][keys])
                & (ledger.view("distance") == oracle["distances"][keys])
                & (ledger.view("rejected") == oracle["rejected"][keys])
            )
        wrong = int(np.count_nonzero(ok & ~matches))
        if wrong:
            raise CheckFailed(f"{wrong} answers differ from predict_batch")
        offered += ledger.offered
        answered += int(np.count_nonzero(ok))
        refused += int(np.count_nonzero(status == workloads.REFUSED))
        failed += int(np.count_nonzero(status == workloads.FAILED))
        correct_identity += int(
            np.count_nonzero(ok & (ledger.view("label") == data.pool_identity[keys]))
        )
    if answered + refused + failed != offered:
        raise CheckFailed("request accounting does not add up")
    writes = run.writes
    return {
        "attempted": offered + writes.offered,
        "failed": refused + failed + writes.failed,
        "refused": refused,
        "answered": answered,
        "writes": writes.offered,
        "swaps": writes.swaps,
        "rollouts": writes.rollouts,
        "accuracy": correct_identity / max(answered, 1),
        "accuracy_n": answered,
    }


# --------------------------------------------------------------------- #
# end-to-end metrics
# --------------------------------------------------------------------- #
#: Samples per window of the windowed median latency.
P50_WINDOW = 1000


def windowed_p50_ms(values) -> float:
    """Median over consecutive windows of P50_WINDOW samples of each
    window's median, so a host stall shifts one window, not the run."""
    values = np.asarray(values, dtype=np.float64)
    windows = np.array_split(values, max(len(values) // P50_WINDOW, 1))
    return statistics.median(percentile(window, 50) for window in windows) * 1e3


def block_rate(completions, blocks, speed=lambda start, end: 1.0) -> float:
    """Completions per second inside the ``(start, end)`` blocks: their
    number over the blocks' total length, each block's length scaled by
    ``speed(start, end)`` to seconds at the reference speed."""
    completions = np.asarray(completions)
    inside = sum(int(np.count_nonzero((completions >= start) & (completions < end)))
                 for start, end in blocks)
    return inside / sum((end - start) * speed(start, end) for start, end in blocks)


def end_to_end(workload: str, run, checked: dict,
               gauge: SpeedGauge) -> tuple[dict, dict, dict]:
    """(gated metric values, sample counts, report-only figures) of one
    window; the report-only figures are the tails and the throughput as
    measured.

    Throughput is the mean rate over the whole measured time -- frames
    over the summed frame times, or answers over the summed saturation
    blocks -- which averages the host's speed over the run, where a median
    of short windows took whichever speed held longest.  The saturation
    rate is CPU-bound, so it is given at the reference speed
    (``host.SpeedGauge``).  A frame waits for the service's batch deadline
    for about half its time, which does not scale with the CPU's speed, so
    the frame rate is as measured.  p50 is a median over P50_WINDOW-sample
    windows.  Tails are printed but not gated: over ten runs of one build
    the camera's p99 frame time spread by 0.26 of its median (IQR /
    median), three times as much as its p95.
    """
    ok_ratio = 1.0 - checked["failed"] / checked["attempted"]
    if workload == "camera":
        times = np.asarray(run.frame_s)
        throughput = measured = len(times) / times.sum()
        completed = len(times)
    else:
        answered = run.rate.view("status") == workloads.ANSWERED
        times = due_latencies(run.rate.view("due"), run.rate.view("done"), answered)
        sat_done = run.sat.view("done")[run.sat.view("status") == workloads.ANSWERED]
        throughput = block_rate(sat_done, run.sat_windows, gauge.speed)
        measured = block_rate(sat_done, run.sat_windows)
        completed = len(sat_done)
    values = {
        "throughput": throughput,
        "p50_ms": windowed_p50_ms(times),
        "ok_ratio": ok_ratio,
        "accuracy": checked["accuracy"],
    }
    counts = {"throughput": completed, "p50_ms": len(times),
              "ok_ratio": checked["attempted"], "accuracy": checked["accuracy_n"]}
    report = {q: percentile(times, q) * 1e3 if tail_supported(len(times), q) else None
              for q in (95, 99)}
    report["throughput"] = measured
    return values, counts, report


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_end_to_end(workload: str, values: dict, counts: dict, report: dict,
                     setup_measured: list, checked: dict) -> None:
    """The report, in each workload's own metric names, with units and counts."""
    if workload == "camera":
        rows = [("fps", "throughput", "frames/s"), ("frame_p50_ms", "p50_ms", "ms"),
                ("id_accuracy", "accuracy", "ratio")]
        prefix = "frame_"
    else:
        rows = [("sat_rps", "throughput", "req/s"), ("p50_ms", "p50_ms", "ms"),
                ("identity_accuracy", "accuracy", "ratio")]
        prefix = ""
    print(f"end-to-end ({workload})")
    for label, key, unit in rows:
        note = ""
        if key == "throughput" and workload != "camera":
            note = f" at the reference speed (as measured {report['throughput']:.1f})"
        print(f"  {label:<20} {values[key]:>12.4f} {unit:<9} n={counts[key]}{note}")
    for q in (95, 99):
        label, value = f"{prefix}p{q}_ms", report[q]
        if value is None:
            print(f"  {label:<20} {'n/a':>12} {'ms':<9} n={counts['p50_ms']}"
                  f" (fewer than 10 samples beyond p{q}; not gated)")
        else:
            verdict = "meets" if value <= LATENCY_LIMIT_MS else "MISSES"
            print(f"  {label:<20} {value:>12.4f} {'ms':<9} n={counts['p50_ms']} ({verdict}"
                  f" the {LATENCY_LIMIT_MS:.1f} ms limit of one frame at 30 fps; not gated)")
    print(f"  {'error_ratio':<20} {1.0 - values['ok_ratio']:>12.4f} {'ratio':<9} "
          f"n={counts['ok_ratio']}")
    print(f"  {'setup_s':<20} {values['setup_s']:>12.4f} {'s':<9} n={len(setup_measured)}"
          f" at the reference speed (as measured {statistics.median(setup_measured):.4f})")
    print(f"  {'peak_rss_mb':<20} {values['peak_rss_mb']:>12.4f} {'MB':<9} n=1")
    print("  accounting: " + ", ".join(f"{k}={v}" for k, v in checked.items()
                                       if not k.startswith("accuracy")))


def result_line(attempted: int, failed: int, values: dict, units: dict) -> str:
    """The last line of a run; only runs whose checks all passed print it."""
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in values.items()}
    return json.dumps({"correct": True, "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


def run_untraced(workload: str, seed: int, seconds: float, gauge: SpeedGauge) -> None:
    data = build_inputs(workload, seed, seconds)
    print(f"inputs: workload={workload} seed={seed} sha256={inputs_mod.digest(data)}")
    rig, setup_measured, setup_times = set_up(workload, data, N_SETUPS, gauge)
    try:
        run = drive(workload, rig, data, seconds)
    finally:
        rig.close()
    # Set up as often again after the window, so the median samples the
    # host across the whole run rather than its first seconds.
    spare, measured, at_reference = set_up(workload, data, N_SETUPS, gauge)
    spare.close()
    setup_measured += measured
    setup_times += at_reference
    check = check_camera if workload == "camera" else check_serve
    checked = check(rig, data, run)
    values, counts, report = end_to_end(workload, run, checked, gauge)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = peak_rss_mb()
    print_end_to_end(workload, values, counts, report, setup_measured, checked)
    print(result_line(checked["attempted"], checked["failed"], values, UNITS))

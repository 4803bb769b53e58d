"""Benchmark of dedstar: census, stream and algebra workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones, from calls into the library's public functions wrapped by
this benchmark.  Progress and the full per-function trace go to stderr.
See ``perfbench/README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List, Sequence, Tuple

import algebra
import batch
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "_out"
LIB_MODULES = ("moore", "stars", "extvec", "rationals", "cli")
WORKLOADS = ("census", "stream", "algebra")
SETUP_REPEATS = 7

END_TO_END = ("setup_s", "families_per_s", "first_record_s", "peak_rss_mb",
              "queries_per_s", "query_p50_us", "query_p99_us")
UNITS = {"setup_s": "s", "families_per_s": "1/s", "first_record_s": "s",
         "peak_rss_mb": "MB", "queries_per_s": "1/s", "query_p50_us": "us",
         "query_p99_us": "us", "trace_overhead_frac": "ratio", "cli.bytes_out": "bytes"}

_TRACED_LAYERS = (
    "moore.count_moore", "moore.family_to_record", "cli.record_write", "cli.main",
    "moore.closure", "moore.contains", "stars.apply", "stars.is_closed", "stars.star_le",
    "stars.classify", "extvec.vec_mul", "extvec.vec_colon", "extvec.vec_inf",
    "extvec.vec_le", "rationals.vector_of_module", "rationals.module_member",
    "rationals.colon_oracle", "moore.moore_generate", "moore.family_join",
    "moore.family_meet", "stars.star_meet", "stars.star_join", "stars.v_of",
    "stars.d_of_overring", "moore.hasse", "moore.poset_iso",
)
PER_LAYER = tuple(
    f"{layer}.{kind}" for layer in _TRACED_LAYERS for kind in ("calls", "self_s")
) + ("moore.enumerate_moore.calls", "moore.enumerate_moore.first_s",
     "moore.enumerate_moore.next_s", "cli.bytes_out", "trace_overhead_frac")


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count" if metric.endswith(".calls") else "s"


def load_library() -> SimpleNamespace:
    """Import dedstar from this checkout's ``src``."""
    modules = {m: importlib.import_module("dedstar." + m) for m in LIB_MODULES}
    origin = Path(modules["moore"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"dedstar imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def set_up(workload: str, seed: int):
    lib = load_library()
    if workload == "algebra":
        return lib, algebra.build_pool(lib, seed)
    return lib, batch.census_argvs() if workload == "census" else batch.stream_argvs()


def fresh_setup_s(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter on this file until it has
    imported the benchmark and the library and built the workload's inputs.

    The child prints its ``perf_counter`` once set up and exits; its exit is
    not counted.  On Linux ``perf_counter`` reads the system-wide monotonic
    clock, which the bounds check below confirms.
    """
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    ready = float(child.stdout.split()[-1])
    if not start < ready < time.perf_counter():
        raise RuntimeError("the set-up child's clock is not this process's clock")
    return ready - start


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    index = min(len(sorted_values), max(1, math.ceil(len(sorted_values) * q)))
    return sorted_values[index - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Result:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.unscaled: Dict[str, float] = {}  # end-to-end metrics at scale 1

    def emit(self) -> None:
        failed = min(self.failed, self.attempted)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in self.metrics.items()},
        }))


def scaled(fn):
    """Call fn between two timings of the speed reference; return its result
    and the factor that scales times measured meanwhile to nominal speed."""
    before = speed.reference_s()
    out = fn()
    return out, speed.NOMINAL_S / statistics.fmean((before, speed.reference_s()))


# ---------------------------------------------------------------------------
# census and stream


def _batch_job(workload, lib, argvs, seed, out_path, result, tracer=None):
    """One checked batch job.

    Returns its time and its time to the first record, scaled to nominal
    speed and unscaled, and the scale used for the whole job.  The sampler
    times the speed reference during the job; its own time is taken out
    before scaling.
    """
    sampler = speed.Sampler()
    job = batch.run_job(lib.cli, argvs, str(out_path), tracer, sampler)
    scale = sampler.scale()
    job_raw = job.end - job.start - sampler.spent_before(job.end)
    first_raw = job.first_record - job.start - sampler.spent_before(job.first_record)
    timed = (job_raw * scale, first_raw * sampler.scale(until=job.first_record))
    if workload == "census":
        with open(out_path, encoding="utf-8") as fh:
            failed = batch.check_census(fh.read().splitlines(), job.codes)
        result.attempted += len(batch.CENSUS_ORDER)
    else:
        with open(out_path, "rb") as fh:
            failed = batch.check_stream(fh, seed)
        if job.codes != [0]:
            failed = batch.STREAM_RECORDS
        result.attempted += batch.STREAM_RECORDS
    result.failed += failed
    log(f"{workload} job {job_raw:.3f} s unscaled, {timed[0]:.3f} s scaled by "
        f"{scale:.4f} from {len(sampler.samples)} samples; exit codes {job.codes}, "
        f"{failed} failed")
    return timed, (job_raw, first_raw), scale


def batch_metrics(jobs: Sequence[Tuple[float, float]], families: int) -> Dict[str, float]:
    """End-to-end metrics from (job time, time to first record) per job."""
    times = sorted(job for job, _ in jobs)
    job_s = statistics.median(times)
    return {
        "families_per_s": families / job_s,
        "first_record_s": statistics.median(first for _, first in jobs),
        "queries_per_s": 1.0 / job_s,
        "query_p50_us": job_s * 1e6,
        "query_p99_us": nearest_rank(times, 0.99) * 1e6,
    }


def run_batch(workload, lib, argvs, args, result: Result) -> None:
    families = batch.CENSUS_FAMILIES if workload == "census" else batch.STREAM_RECORDS
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload}.out"
    try:
        if args.trace:
            _trace_batch(workload, lib, argvs, args, result, out_path)
            return
        jobs: List[Tuple[float, float]] = []
        raw: List[Tuple[float, float]] = []
        # Whole jobs only: stop before a job that would end past --seconds.
        while not jobs or sum(job for job, _ in jobs) + statistics.median(
                job for job, _ in jobs) <= args.seconds:
            timed, unscaled, _ = _batch_job(workload, lib, argvs, args.seed, out_path, result)
            jobs.append(timed)
            raw.append(unscaled)
        result.metrics.update(batch_metrics(jobs, families))
        result.unscaled.update(batch_metrics(raw, families))
    finally:
        if out_path.exists():
            out_path.unlink()
        if OUT_DIR.exists() and not any(OUT_DIR.iterdir()):
            OUT_DIR.rmdir()


def _trace_batch(workload, lib, argvs, args, result, out_path) -> None:
    tracer = tracing.Tracer()
    if workload == "census":
        # The census is cheap enough to pair an untraced job with the traced one.
        (untraced, _), _, _ = _batch_job(workload, lib, argvs, args.seed, out_path, result)
    tracer.install(vars(lib))
    try:
        (traced, _), _, scale = _batch_job(
            workload, lib, argvs, args.seed, out_path, result, tracer)
    finally:
        tracer.uninstall()
    result.metrics.update(tracing.layer_metrics(tracer.stats, PER_LAYER, 1, scale))
    result.metrics["cli.bytes_out"] = os.path.getsize(out_path)
    if workload == "census":
        overhead = traced / untraced - 1.0
    else:
        # An untraced stream job as well would take most of a run's time
        # limit, so the stream's overhead is the wrapped calls times the
        # measured cost of one wrapper, over the traced job's remainder.
        calls = sum(slot[0] for slot in tracer.stats.values())
        cost = calls * tracing.wrapper_cost_s()
        overhead = cost / (traced / scale - cost)
    result.metrics["trace_overhead_frac"] = overhead
    _log_trace(tracer)


# ---------------------------------------------------------------------------
# algebra


def pass_metrics(stats: algebra.PassStats, scale: float) -> Dict[str, float]:
    lat = sorted(stats.latency_ns)
    job_s = sum(lat) / 1e9 * scale
    return {
        "families_per_s": stats.family_answers / job_s,
        "first_record_s": nearest_rank(lat, 0.5) / 1e9 * scale,
        "queries_per_s": len(lat) / job_s,
        "query_p50_us": nearest_rank(lat, 0.5) / 1e3 * scale,
        "query_p99_us": nearest_rank(lat, 0.99) / 1e3 * scale,
    }


def run_algebra(lib, pool, args, result: Result) -> None:
    state = algebra.LoopState(pool)
    if args.trace:
        tracer = tracing.Tracer()
        untraced: List[float] = []
        traced: List[float] = []
        scales: List[float] = []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            spent, scale = scaled(lambda: sum(state.execute().latency_ns))
            untraced.append(spent * scale)
            tracer.install(vars(lib))
            try:
                spent, scale = scaled(lambda: sum(state.execute().latency_ns))
            finally:
                tracer.uninstall()
            traced.append(spent * scale)
            scales.append(scale)
        result.metrics.update(tracing.layer_metrics(
            tracer.stats, PER_LAYER, len(traced), statistics.fmean(scales)))
        result.metrics["cli.bytes_out"] = 0
        result.metrics["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        _log_trace(tracer)
    else:
        # Each pass is scaled by the speed reference timed on either side of
        # it, and the run reports medians over whole passes.
        # Latencies are reduced pass by pass, so memory does not grow with
        # the number of passes a run makes.
        deadline = time.perf_counter_ns() + int(args.seconds * 1e9)
        before = speed.reference_s()
        per_pass: List[Dict[str, float]] = []
        raw: List[Dict[str, float]] = []
        while not per_pass or time.perf_counter_ns() < deadline:
            stats = state.execute(deadline)
            after = speed.reference_s()
            if stats.complete or not per_pass:
                per_pass.append(pass_metrics(
                    stats, speed.NOMINAL_S / statistics.fmean((before, after))))
                raw.append(pass_metrics(stats, 1.0))
            before = after
        for into, passes in ((result.metrics, per_pass), (result.unscaled, raw)):
            into.update({k: statistics.median(m[k] for m in passes) for k in passes[0]})
    result.attempted = state.sent
    result.failed = state.failures()
    log(f"algebra: {len(pool)} queries in the pool, {result.attempted} sent, "
        f"{result.failed} failed")


def _log_trace(tracer: tracing.Tracer) -> None:
    log("trace: name calls total_s self_s")
    for name, (calls, total, self_s) in sorted(tracer.stats.items()):
        log(f"  {name} {calls} {total:.6f} {self_s:.6f}")


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the clock and exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dedstar" / "__init__.py").is_file():
        log(f"no dedstar sources at {SRC}; run from the root of a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        set_up(args.workload, args.seed)
        print(time.perf_counter())
        return 0
    # Set-up is timed in fresh processes, so that every repeat pays for
    # interpreter start and every import; this process sets up once.
    setups = [] if args.trace else [
        scaled(lambda: fresh_setup_s(args)) for _ in range(SETUP_REPEATS)]
    lib, inputs = set_up(args.workload, args.seed)
    result = Result()
    if args.workload == "algebra":
        run_algebra(lib, inputs, args, result)
    else:
        run_batch(args.workload, lib, inputs, args, result)
    if not args.trace:
        result.metrics["setup_s"] = statistics.median(took * scale for took, scale in setups)
        result.unscaled["setup_s"] = statistics.median(took for took, _ in setups)
        result.metrics["peak_rss_mb"] = result.unscaled["peak_rss_mb"] = peak_rss_mb()
        result.metrics = {k: result.metrics[k] for k in END_TO_END}
        log("unscaled " + json.dumps({k: result.unscaled[k] for k in END_TO_END}))
    else:
        result.metrics = {k: result.metrics[k] for k in PER_LAYER}
    result.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())

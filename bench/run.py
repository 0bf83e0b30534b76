#!/usr/bin/env python3
"""Benchmark of the segue pipeline: the ingest, train and serve workloads.

Run from the repository root:

    python3 bench/run.py --workload serve --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1

Inputs are generated from ``--seed`` by ``bench/inputs.py`` in a separate
process before timing starts. The workload then runs rounds against the
library in ``src/`` for about ``--seconds`` seconds, checks every output, and
prints each metric by name and unit. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` half the
time runs untraced and half traced, and the metrics are the per-layer ones.
A results file with the environment, the tail percentile used, the output
fingerprint and (when traced) every span goes to ``.bench_results/``.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
benchmark could not run (no ``src/segue``, bad arguments, input generation
failed); no result line is printed in the last case.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
WORKLOAD_NAMES = ("ingest", "train", "serve")
TAIL_SAMPLES_BEYOND = 10
TAIL_FLOOR_PERCENTILE = 90
PREPARE_TIMEOUT_S = 120

# Times are wall seconds, as a user waits for them. Process CPU seconds of the
# same spans go to the results file.
END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class CannotRun(Exception):
    """The benchmark cannot produce a result here."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="segue benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=_int_at_least(0), default=0)
    parser.add_argument("--seconds", type=_int_at_least(1), default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except CannotRun as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    return parse


def _import_library() -> None:
    """Import segue from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "segue" / "__init__.py").is_file():
        raise CannotRun(f"no segue package under {SRC}")
    sys.path.insert(0, str(SRC))
    import segue

    if Path(segue.__file__).resolve().parent != SRC / "segue":
        raise CannotRun(f"segue imported from {segue.__file__}, not from {SRC}")


def prepare(workload: str, seed: int, work: Path) -> None:
    """Generate the inputs in a child process, so their cost reaches no metric."""
    command = [
        sys.executable, str(BENCH / "inputs.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(work), "--src", str(SRC),
    ]
    try:
        subprocess.run(command, check=True, timeout=PREPARE_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise CannotRun(f"input generation failed: {exc}") from None


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    _import_library()
    work = WORK_ROOT / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        prepare(workload, seed, work)
        result = measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result["record"], indent=1))
    details = result["record"]["details"]
    for name, entry in result["line"]["metrics"].items():
        print(f"{workload}: {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{workload}: {details['summary']}")
    for problem in details["problems"]:
        print(f"{workload}: CHECK FAILED: {problem}")
    print(f"{workload}: results in {path.relative_to(ROOT)}")
    print(json.dumps(result["line"]))
    return 0 if result["line"]["correct"] else 1


def run_rounds(workload, budget_s: float, tracer=None, name: str = "") -> None:
    """Run rounds until the next one would likely end past the budget; at least one."""
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        if tracer is None:
            workload.round()
        else:
            with tracer.span(f"{name}.round"):
                workload.round()
        durations.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(durations) > budget_s:
            return


def measure(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, Samples
    from layers import TARGETS, per_layer_metrics

    samples = Samples()
    workload = WORKLOADS[name](work, seed, samples)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(TARGETS)
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    workload.warm_up()
    samples.drop_round_times()

    started_wall, started_cpu = time.perf_counter(), time.process_time()
    run_rounds(workload, seconds / 2 if trace else seconds)
    untraced_rounds = len(samples.round_s)
    cpu_util = (time.process_time() - started_cpu) / (time.perf_counter() - started_wall)
    if tracer is not None:
        tracer.install(TARGETS)
        run_rounds(workload, seconds / 2, tracer, name)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.final_check()
    if not samples.latency_s:
        raise CannotRun("no operation succeeded: " + "; ".join(samples.problems))

    wall = sorted(t[1] for t in samples.latency_s)
    tail_s, tail_percentile = tail(wall)
    cpu = sorted(t[0] for t in samples.latency_s)
    details = {
        "work_unit": workload.unit,
        "rounds": len(samples.round_s),
        "operations_timed": len(wall),
        "tail_percentile": tail_percentile,
        "failed_share": samples.failed / samples.attempted,
        "cpu_time": {
            "setup_s": statistics.median(t[0] for t in samples.setup_s),
            "work_per_s": _rate(samples.work, [t[0] for t in samples.round_s]),
            "op_ms_p50": 1000.0 * statistics.median(cpu),
            "op_ms_tail": 1000.0 * tail(cpu)[0],
        },
        "fingerprint": _fingerprint(samples.digests),
        "problems": samples.problems,
        "op_ms": [1000.0 * t[1] for t in samples.latency_s],
        "round_s": [t[1] for t in samples.round_s],
        "setup_samples_s": [t[1] for t in samples.setup_s],
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(t[1] for t in samples.setup_s),
            "work_per_s": _rate(samples.work, [t[1] for t in samples.round_s]),
            "op_ms_p50": 1000.0 * statistics.median(wall),
            "op_ms_tail": 1000.0 * tail_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        rounds = [t[1] for t in samples.round_s]
        traced = rounds[untraced_rounds:]
        overhead = statistics.median(traced) / statistics.median(rounds[:untraced_rounds]) - 1.0
        layered = per_layer_metrics(tracer, len(traced), cpu_util, overhead)
        metrics = {key: value for key, (value, _) in layered.items()}
        units = {key: unit for key, (_, unit) in layered.items()}
        details["absent"] = tracer.absent
        details["untraced_rounds"] = untraced_rounds
    details["cpu_util"] = cpu_util
    details["summary"] = (
        f"{samples.attempted} operations attempted, {samples.failed} failed "
        f"(failed_share {details['failed_share']:.4g}); {details['rounds']} rounds; "
        f"tail is p{tail_percentile} of {len(wall)} operations; "
        f"fingerprint {details['fingerprint'][:16]}"
    )
    line = {
        "correct": not samples.problems,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "metrics": line["metrics"],
        "details": details,
    }
    if tracer is not None:
        record["spans"] = tracer.records()
    return {"line": line, "record": record}


def tail(sorted_values: list[float]) -> tuple[float, int]:
    """Value at the highest percentile with at least ten samples beyond it, never below p90.

    With fewer than 100 samples no percentile at or above p90 has ten samples
    beyond it, and p90 is reported; the sample count goes with it.
    """
    count = len(sorted_values)
    rule = (100 * (count - TAIL_SAMPLES_BEYOND)) // count if count > TAIL_SAMPLES_BEYOND else 0
    percentile = max(rule, TAIL_FLOOR_PERCENTILE)
    rank = -(-percentile * count // 100)  # nearest rank, 1-based
    return sorted_values[rank - 1], percentile


def _rate(work: list[float], seconds: list[float]) -> float:
    """Work of every timed round over their summed time: the whole run, not a few rounds."""
    return sum(work) / sum(seconds)


def _fingerprint(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    except (TypeError, KeyError):  # numpy before 1.26 has no mode argument
        build = {}
    threads, config = _blas_runtime()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": build.get("name"),
            "version": build.get("version"),
            "runtime_config": config,
            "threads": threads,
            "thread_settings": {
                key: os.environ.get(key)
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_runtime() -> tuple[int | None, str | None]:
    """OpenBLAS thread count and build string, asked of the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = config = None
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.argtypes, function.restype = [], ctypes.c_int
                threads = int(function())
                break
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                       "openblas_get_config"):
            if hasattr(lib, symbol):
                function = getattr(lib, symbol)
                function.argtypes, function.restype = [], ctypes.c_char_p
                config = function().decode(errors="replace").strip()
                break
        if threads is not None:
            return threads, config
    return None, None


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode == 2 or not lines:
            raise CannotRun(f"workload {workload} did not run")
        status = max(status, done.returncode)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())

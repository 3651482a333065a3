"""exchnet benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts fresh worker
processes (``bench/worker.py``), so exchnet's caches start cold as they do
for a command-line user, and runs them one at a time with BLAS limited to a
single thread.  This script pins itself to one CPU, and its children
inherit that.  Set-up is timed in SETUP_PROBES extra workers that only set
up, plus the measured worker; ``setup_s`` is their median.  A traced run
(``--trace 1``) runs the workload untraced and then traced, in two
workers, and reports the tracing overhead.  The workers and this script
share the clock (``time.perf_counter`` is system-wide on Linux).

Times are reported at the reference machine speed.  A probe process
(``bench/probe.py``) on the workers' CPU times a fixed computation
every 50 ms, and each request or set-up time is divided by the machine's
speed factor while it ran, from those samples.  The raw times are in the run
record, and ``trace.wall_s`` and the per-layer times are raw.  See
bench/NOTES.md for why, and ``bench/probe_check.py`` for the check that
exchnet's work does not move the probe.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full record (environment, output digest, failures,
per-request latencies) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 150
# Typical time of probe.reference() on the 2-CPU machine the benchmark was
# defined on; the samples taken while a request ran give its speed.
REF_NOMINAL_S = 0.0002
SPEED_PAD_S = 0.1
SPEED_MIN_SAMPLES = 5
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


@contextlib.contextmanager
def speed_probe():
    """Run ``probe.py`` for the length of the block; the list it yields holds
    the probe's samples once the block has ended."""
    proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    samples: list = []
    try:
        if proc.stdout.readline().strip() != "READY":
            raise BenchError("the speed probe did not start")
        yield samples
        proc.stdin.close()
        samples += json.loads(proc.stdout.readline())
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdin.close()
        proc.stdout.close()


def run_worker(root: Path, workdir: Path, args, trace: int = 0,
               setup_only: bool = False):
    """Start one worker; return (start time, raw seconds from start to
    READY, summary or None for a set-up-only worker)."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--root", str(root), "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, **THREAD_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode} "
                         f"(killed if it ran past {WORKER_TIMEOUT_S} s)")
    summary = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return start, setup_s, summary


def at_reference_speed(starts: list, latencies: list, samples: list) -> list:
    """Each request's latency at REF_NOMINAL_S per reference computation.

    A probe time d means the machine ran at speed REF_NOMINAL_S / d, and
    the samples are spread evenly in time, so a request's nominal time is
    its latency times the mean of REF_NOMINAL_S / d over the samples taken
    while it ran (widened by SPEED_PAD_S, and to the SPEED_MIN_SAMPLES
    nearest for short requests): the latency over the harmonic mean of d.
    The harmonic mean follows a speed that switches within a request, which
    the median does not, and a sample slowed by preemption barely moves
    it."""
    if not samples:
        return list(latencies)
    times = [t for t, _ in samples]
    out = []
    for start, lat in zip(starts, latencies):
        lo = bisect.bisect_left(times, start - SPEED_PAD_S)
        hi = bisect.bisect_right(times, start + lat + SPEED_PAD_S)
        while hi - lo < SPEED_MIN_SAMPLES and (lo > 0 or hi < len(times)):
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        ref = statistics.harmonic_mean([d for _, d in samples[lo:hi]])
        out.append(lat * REF_NOMINAL_S / ref)
    return out


def environment() -> dict:
    try:
        import numpy

        numpy = numpy.__version__
    except ImportError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "cpus": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "exchnet" / "cli.py").is_file() or not (
        root / "BENCHMARK.json"
    ).is_file():
        sys.stderr.write("run from the root of an exchnet checkout\n")
        return 2
    env = environment()
    # pin to one CPU; the probe and the workers inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with speed_probe() as samples:
            if args.trace:
                plain = run_worker(root, scratch / "plain", args)[2]
                _, _, res = run_worker(root, scratch / "run", args, trace=1)
            else:
                setups = [run_worker(root, scratch / f"probe{k}", args, setup_only=True)
                          for k in range(SETUP_PROBES)]
                setups.append(run_worker(root, scratch / "run", args))
                res = setups[-1][2]
    except BenchError as err:
        sys.stderr.write(f"benchmark failed: {err}\n")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    def wall(summary) -> float:
        return sum(at_reference_speed(summary["starts"], summary["latencies"], samples))

    raw_wall = sum(res["latencies"])
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, digest=res["digest"],
                  raw_wall_s=raw_wall, wall_s=wall(res))
    attempted, failed, problems = res["attempted"], res["failed"], res["problems"]
    if args.trace:
        overhead = wall(res) - wall(plain)
        values = dict(res["layers"], **{"trace.wall_s": raw_wall,
                                        "trace.overhead_s": overhead})
        attempted += plain["attempted"]
        failed += plain["failed"]
        problems = plain["problems"] + problems
        if plain["digest"] != res["digest"]:
            problems.append("traced outputs differ from untraced ones")
        record.update(untraced_raw_wall_s=sum(plain["latencies"]),
                      untraced_wall_s=wall(plain), overhead_s=overhead)
        summary_line = (f"traced wall {wall(res):.2f} s, untraced {wall(plain):.2f} s "
                        f"(reference speed): overhead {overhead:+.2f} s "
                        f"({overhead / wall(plain):+.1%})")
    else:
        setup_times = [at_reference_speed([start], [s], samples)[0]
                       for start, s, _ in setups]
        lat = at_reference_speed(res["starts"], res["latencies"], samples)
        values = {
            "wall_s": sum(lat),
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_p95_ms": 1000 * statistics.quantiles(lat, n=20, method="inclusive")[-1],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1 - failed / attempted,
        }
        record.update(setup_samples_s=setup_times, latency_samples=len(lat))
        summary_line = f"wall {sum(lat):.2f} s at reference speed, {raw_wall:.2f} s raw"
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        sys.stderr.write(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}\n")
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    record.update(attempted=attempted, failed=failed, problems=problems,
                  speed_factor=raw_wall / wall(res), metrics=metrics,
                  ops=res["ops"], starts=res["starts"], speed_samples=samples)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in problems[:20]:
        print(f"problem: {line}")
    print(f"digest {res['digest']}  ({res['attempted']} requests; {summary_line}; "
          f"record in .bench_out/{name})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

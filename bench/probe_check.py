"""Check that exchnet's own work does not move the speed probe.

    python3 bench/probe_check.py --workload NAME --seed N --seconds S \
        [--baseline loop|idle]

Run from the root of a source checkout.  It runs one untraced worker of the
workload with ``probe.py`` beside it on the same CPU, as ``run.py`` does,
and every WINDOW_S it stops the worker with SIGSTOP or continues it with
SIGCONT.  While the worker is stopped, the CPU runs the baseline: a neutral
busy loop (another process, ``while True: pass``, continued and stopped in
turn with the worker) or nothing at all (``idle``).  The machine's speed
drifts over seconds, so each baseline window is compared with the worker
window right after it: the ratio of their probe times (harmonic means, as
``run.py`` takes them).  A median ratio near 1 against the loop, on every
workload, means that what exchnet does while it runs (Fraction pivoting,
numpy, a large heap) does not change the probe's time, so dividing request
times by it removes only the machine's speed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import BENCH, THREAD_ENV, speed_probe
from workloads import WORKLOADS

WINDOW_S = 0.5
MIN_SAMPLES = 4


def window_times(samples: list, events: list) -> list:
    """Harmonic mean of the probe times in each window between consecutive
    events, as (worker running, mean); a sample counts if it lies wholly
    inside the window."""
    out = []
    for (t0, running), (t1, _) in zip(events, events[1:]):
        inside = [d for s, d in samples if t0 < s and s + d < t1]
        if len(inside) >= MIN_SAMPLES:
            out.append((running, statistics.harmonic_mean(inside)))
        else:
            out.append((running, None))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--baseline", choices=["loop", "idle"], default="loop")
    args = ap.parse_args()

    root = Path.cwd()
    workdir = root / ".bench_work" / f"probe-check-{os.getpid()}"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--root", str(root), "--workdir", str(workdir)]
    with speed_probe() as samples:
        spin = subprocess.Popen([sys.executable, "-c", "while True: pass"])
        os.kill(spin.pid, signal.SIGSTOP)
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                env=dict(os.environ, **THREAD_ENV))
        events = [(time.perf_counter(), True)]  # (time, worker running after it)
        try:
            while proc.poll() is None:
                time.sleep(WINDOW_S)
                running = not events[-1][1]
                if args.baseline == "loop":
                    os.kill(spin.pid, signal.SIGSTOP if running else signal.SIGCONT)
                os.kill(proc.pid, signal.SIGCONT if running else signal.SIGSTOP)
                events.append((time.perf_counter(), running))
        finally:
            spin.kill()
            spin.wait()
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGCONT)
            proc.wait()
            shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(f"worker failed with exit code {proc.returncode}\n")
        return 1

    windows = window_times(samples, events)
    ratios = [work / loop for (r0, loop), (r1, work) in zip(windows, windows[1:])
              if not r0 and r1 and loop and work]
    if len(ratios) < 4:
        sys.stderr.write("too few windows to compare\n")
        return 1
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    loop = [m for r, m in windows if not r and m]
    work = [m for r, m in windows if r and m]
    print(f"{args.workload} seed {args.seed}: {len(ratios)} pairs of windows, "
          f"probe time beside exchnet / {args.baseline} {med:.3f} (quartiles "
          f"{q1:.3f}-{q3:.3f}); median window {1e3 * statistics.median(work):.4f} ms "
          f"beside exchnet, {1e3 * statistics.median(loop):.4f} ms {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

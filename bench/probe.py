"""Machine-speed probe, a process of its own.

    python3 bench/probe.py

Started by ``run.py`` on the CPU the workers run on, it wakes every
PERIOD_S and times a fixed computation (``reference``) that runs no exchnet
code.  It shares the
CPU with the worker, which is the point, but no interpreter lock, heap or
garbage collector.  Each wake runs ``reference`` twice and keeps the time of
the second, so that the caches the worker evicted in between are warm
again.  It prints ``READY`` once started, and when its standard input is
closed it prints the samples, ``[[start, seconds], ...]`` on the
``time.perf_counter`` clock, as one JSON line and exits.
"""

from __future__ import annotations

import json
import select
import sys
import time
from fractions import Fraction

PERIOD_S = 0.05


def reference() -> None:
    """A fixed piece of pure-Python work in the style of exchnet's inner
    loops (Fraction sums in a dict, integer bit tricks)."""
    acc: dict = {}
    for i in range(30):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7 + i % 11)
    bits = 0
    for i in range(700):
        bits ^= (i * 2654435761) >> (i & 15)


def main() -> int:
    samples = []
    print("READY", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        reference()
        start = time.perf_counter()
        reference()
        samples.append((start, time.perf_counter() - start))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run in a fresh process.

Set-up imports exchnet and writes the workload's inputs, then prints
``READY``.  The timed loop calls ``exchnet.cli.main`` once per operation,
one after another (a closed loop with one client).  Checks, the output
digest and, with ``--trace 1``, the per-layer metrics follow outside the
timed loop; the last line printed is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    import exchnet.cli  # noqa: F401  (set-up: the import is what a user pays)

    import workloads

    args.workdir.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, args.seconds, args.workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    cli = sys.modules["exchnet.cli"]
    starts, latencies, runs = [], [], []
    os.chdir(args.workdir)
    for op in ops:
        if op.before is not None:
            op.before(args.workdir)
        out, err = io.StringIO(), io.StringIO()
        crash = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception:  # a crash is a failed operation, not a stop
                code, crash = None, traceback.format_exc()
            latencies.append(time.perf_counter() - start)
            starts.append(start)
        runs.append((op, code, out.getvalue(), crash))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = {}
    problems = []
    if tracer is not None:
        caches = tracer_mod.cache_counts()
        problems += [f"wrapper left behind: {w}" for w in tracer.uninstall()]
        problems += [f"tracer self-test: {e}" for e in tracer_mod.self_test()]
        summary["layers"] = tracer.metrics(caches)
        out_dir = args.root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")

    import oracle

    schemas = oracle.load_schemas(args.root)
    digest = hashlib.sha256()
    failed = 0
    for op, code, stdout, crash in runs:
        text = (args.workdir / op.out).read_text() if op.out and code == 0 else stdout
        digest.update(json.dumps([op.argv, code, text]).encode())
        errs = []
        if crash:
            errs.append(crash.strip().splitlines()[-1])
        elif code != op.code:
            errs.append(f"exit code {code}, want {op.code}")
        else:
            try:
                if op.schema:
                    errs += oracle.schema_errors(json.loads(text), schemas[op.schema])
                errs += op.check(text)
            except Exception:  # a malformed output fails its own check only
                errs.append(traceback.format_exc().strip().splitlines()[-1])
        if errs:
            failed += 1
            problems.append(f"{' '.join(op.argv)}: {'; '.join(errs[:3])}")

    summary.update(
        attempted=len(ops),
        failed=failed,
        problems=problems,
        starts=starts,
        latencies=latencies,
        peak_rss_mb=peak_rss_mb,
        digest=digest.hexdigest(),
        ops=[[" ".join(op.argv), lat] for (op, *_), lat in zip(runs, latencies)],
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload's worker process.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
imports arczeta, seeds the workload's op sequence, runs the canonical op once
and prints a `ready` line with that first op's time, then the check of that
op against the stored output.  It then answers one JSON line per command
read from stdin:

  op       run the next op; reply with its time and check result
  threads  compare the canonical op's bytes under --threads 1 and 2
  exit     reply with peak RSS (and write the spans of a traced run), exit

With --trace, ops alternate between untraced and traced, so both are timed
under the same machine conditions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    # Ops print to a captured sys.stdout; replies go to the real one.
    reply = sys.stdout
    import arczeta
    src = Path(args.src).resolve()
    if src not in Path(arczeta.__file__).resolve().parents:
        raise SystemExit("arczeta was imported from %s, not %s"
                         % (arczeta.__file__, src))
    import numpy

    wl = workloads.Workload(args.workload, args.seed, arczeta)
    t = perf_counter()
    try:
        status, output = wl.run(wl.canonical)
        error = None
    except Exception:
        error = traceback.format_exc(limit=3)
    cold_op_s = perf_counter() - t
    send(reply, {"ready": True, "python": sys.version.split()[0],
                 "numpy": numpy.__version__, "cold_op_s": cold_op_s})
    if error is None:
        try:
            error = wl.check_canonical(status, output)
        except Exception:
            error = traceback.format_exc(limit=3)
    send(reply, {"canonical_error": error})

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
    count = 0
    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "op":
            op = wl.next_op()
            traced = tracer is not None and count % 2 == 1
            send(reply, run_op(wl, op, count, tracer if traced else None))
            count += 1
        elif cmd == "threads":
            try:
                same = wl.threads_identical()
            except Exception:
                traceback.print_exc()
                same = False
            send(reply, {"identical": same})
        elif cmd == "exit":
            if tracer is not None and args.spans_out:
                tracer.dump(args.spans_out)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send(reply, {"peak_rss_mb": rss / 1024.0})
            return
        else:
            raise SystemExit("unknown command %r" % cmd)


def run_op(wl, op, op_id, tracer):
    """Time one op (gc.collect() first, outside the timing), then check it.
    An op that raises has no time; a check that raises fails the op."""
    gc.collect()
    record = None
    try:
        if tracer is None:
            t = perf_counter()
            status, output = wl.run(op)
            dt = perf_counter() - t
        else:
            dt, status, output, record = run_traced(wl, op, op_id, tracer)
    except Exception:
        return {"dt": None, "why": traceback.format_exc(limit=3)}
    try:
        why = wl.check(op, status, output)
    except Exception:
        why = traceback.format_exc(limit=3)
    out = {"dt": dt, "why": why}
    if record is not None:
        out["trace"] = record
        if wl.name == "symbolic-transfer":
            record["counts"]["motive.max_den_terms"] = (
                workloads.max_den_terms(output))
    return out


def run_traced(wl, op, op_id, tracer):
    """One op with the tracer's patches in place and the CLI command body
    wrapped as the `cli` span."""
    cli = op.func if wl.name != "symbolic-transfer" else None
    tracer.install()
    try:
        if cli is not None:
            op.func = tracer.wrap("cli", cli.__name__, cli)
        t = perf_counter()
        (status, output), record = tracer.run_op(op_id, lambda: wl.run(op))
        dt = perf_counter() - t
    finally:
        if cli is not None:
            op.func = cli
        tracer.uninstall()
    return dt, status, output, record


def send(stream, obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


if __name__ == "__main__":
    main()

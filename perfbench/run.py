"""arczeta benchmark: the process that launches the worker and reports.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The load is a closed loop with one client:
the next op is sent only after the previous one has returned.  The workload
runs in a worker process of its own (worker.py).

setup_s is the launch-to-ready time (import, input generation, one
canonical op) of SETUP_LAUNCHES fresh workers, averaged without the fastest
and the slowest.  The first of them does the measuring; the others are
launched one at a time at evenly spaced points of the measuring window, so
that they sample the whole window rather than the few seconds before it.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402

# Launch times fall in two clusters about 1.5x apart (the host's fast and
# slow states), so a median of them jumps between clusters from run to run;
# their trimmed mean does not.
SETUP_LAUNCHES = 15
# Ops a run needs so that ten samples lie beyond its p90.
MIN_OPS = 100
# Workloads whose counting accepts --threads; their set-up compares the
# canonical op's bytes under --threads 1 and --threads 2.
THREADED = ("verify", "zeta-count")

PER_LAYER_SELF = ("cli", "polynomials.parse", "arcs.estimate", "arcs.jets",
                  "arcs.count", "arcs.padic", "series.expand",
                  "series.truncated", "motive", "spectrum", "resolution",
                  "castling")
PER_LAYER_COUNTS = ("polynomials.parse.calls", "arcs.estimate.calls",
                    "arcs.estimate.rows", "arcs.jets.calls", "arcs.count.calls",
                    "arcs.padic.calls", "series.expand.calls",
                    "series.truncated.calls", "motive.max_den_terms",
                    "spectrum.calls")
# End-to-end figures in the result line; the others are printed only (see
# NOTES.md: on a host whose speed flips between two states their run-to-run
# spread is too wide to hold a change to a bound).
GATED = ("latency_p90_s", "peak_rss_mb", "setup_s")
# Limit on the median gap between a traced op's time on the worker's clock
# and the tracer's root self time plus every layer's self time.  The gap is
# the tracer's own entry and exit, 20-45 us on a 2-vCPU guest; a span lost
# or counted twice moves it by that span's time on every op.
SELF_TIME_SLACK_S = 100e-6
# A worker that stays silent this long is taken as hung.
REPLY_TIMEOUT_S = 120


class Worker:
    """A worker process speaking one JSON line per command."""

    def __init__(self, root, name, seed, trace, spans_out=None):
        env = dict(os.environ)
        src = root / "src"
        env["PYTHONPATH"] = str(src)
        env["PYTHONHASHSEED"] = "0"
        # Every launch compiles from source and leaves no bytecode behind.
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = "1"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(seed), "--src", str(src)]
        if trace:
            cmd.append("--trace")
        if spans_out:
            cmd += ["--spans-out", str(spans_out)]
        self.name = name
        t = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, text=True,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        # A reader thread lets _read give up on a worker that hangs.
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()
        try:
            self.hello = self._read()
            self.hello["ready_s"] = perf_counter() - t
            self.canonical_error = self._read()["canonical_error"]
        except BaseException:
            self.kill()
            raise

    def ask(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put("")

    def _read(self):
        try:
            line = self.lines.get(timeout=REPLY_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("worker %s sent no reply in %d s"
                               % (self.name, REPLY_TIMEOUT_S)) from None
        if not line:
            self.proc.wait()
            raise RuntimeError("worker %s exited with code %s"
                               % (self.name, self.proc.returncode))
        return json.loads(line)

    def close(self):
        """Ask for the final record and wait for the process to end."""
        try:
            return self.ask("exit")
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.reader.join()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Tally:
    """Ops attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, what, why):
        self.attempted += 1
        if why:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("%s: %s" % (what, why))


def launch(root, name, seed, trace, tally, spans_out=None):
    """A fresh worker whose canonical op has been checked."""
    worker = Worker(root, name, seed, trace, spans_out)
    tally.add(name + " canonical op", worker.canonical_error)
    return worker


def measure(worker, root, seed, seconds, tally):
    """Run ops until `seconds` have passed and MIN_OPS ops have run, or
    twice `seconds` have passed.  The other SETUP_LAUNCHES - 1 launches
    happen at evenly spaced points of the window, while the measuring worker
    waits.  Returns (op replies, fresh workers' hello lines)."""
    replies, hellos = [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(replies) >= MIN_OPS \
                or elapsed >= 2 * seconds:
            return replies, hellos
        if len(hellos) < SETUP_LAUNCHES - 1 \
                and (len(hellos) + 1) * seconds / SETUP_LAUNCHES <= elapsed:
            fresh = launch(root, worker.name, seed, False, tally)
            fresh.close()
            hellos.append(fresh.hello)
            continue
        r = worker.ask("op")
        replies.append(r)
        tally.add(worker.name + " op %d" % len(replies), r["why"])


def upper_percentile(values, p):
    """Nearest-rank percentile: with n values, ceil(p n) of them lie at or
    below the result."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def trimmed_mean(values):
    """Mean of values without the smallest and the largest."""
    ordered = sorted(values)
    return statistics.mean(ordered[1:-1])


def end_to_end(replies, hellos, final):
    """Every end-to-end figure as name -> (value, unit, sample count)."""
    times = [r["dt"] for r in replies if r["dt"] is not None]
    if not times:
        raise RuntimeError("no op completed")
    n = len(times)
    return {
        "ops_per_s": (n / sum(times), "1/s", n),
        "latency_p10_s": (upper_percentile(times, 0.1), "s", n),
        "latency_p50_s": (statistics.median(times), "s", n),
        "latency_p90_s": (upper_percentile(times, 0.9), "s", n),
        "peak_rss_mb": (final["peak_rss_mb"], "MB", 1),
        "setup_s": (trimmed_mean(h["ready_s"] for h in hellos), "s",
                    len(hellos)),
        "cold_op_s": (trimmed_mean(h["cold_op_s"] for h in hellos), "s",
                      len(hellos)),
    }


def per_layer(replies):
    """Per-layer figures as name -> (value, unit): medians over the traced
    ops, and the traced against the untraced median op time."""
    traced = [r for r in replies if r.get("trace")]
    plain = [r["dt"] for r in replies
             if r["dt"] is not None and not r.get("trace")]
    if not traced or not plain:
        raise RuntimeError("a traced run needs at least two ops")
    out = {}
    for layer in PER_LAYER_SELF:
        out[layer + ".self_s"] = (statistics.median(
            r["trace"]["self_s"].get(layer, 0.0) for r in traced), "s")
    counts = [r["trace"]["counts"] for r in traced]
    for name in PER_LAYER_COUNTS:
        out[name] = (statistics.median_low(c.get(name, 0) for c in counts),
                     "count")
    # motive.ops: entries into the motive layer from another layer.
    out["motive.ops"] = (statistics.median_low(
        c.get("motive.calls", 0) for c in counts), "count")
    out["trace.overhead_frac"] = (
        statistics.median(r["dt"] for r in traced) / statistics.median(plain)
        - 1.0, "frac")
    return out, len(traced)


def self_time_gaps(replies):
    """Per traced op, the worker's own timing of the op minus the tracer's
    root self time and every layer's self time, in seconds."""
    return [r["dt"] - r["trace"]["root_self_s"]
            - sum(r["trace"]["self_s"].values())
            for r in replies if r.get("trace")]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "arczeta" / "__init__.py").is_file():
        print("error: run from the root of an arczeta checkout "
              "(no src/arczeta here)", file=sys.stderr)
        return 2

    name = args.workload
    trace = bool(args.trace)
    spans = None
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        spans = HERE / "out" / ("spans-%s-seed%d.jsonl" % (name, args.seed))
    tally = Tally()
    worker = launch(root, name, args.seed, trace, tally, spans)
    try:
        if name in THREADED:
            same = worker.ask("threads")["identical"]
            tally.add(name + " threads check",
                      None if same else "--threads 2 changed the output")
        replies, hellos = measure(worker, root, args.seed, args.seconds, tally)
        final = worker.close()
    finally:
        worker.kill()
    hellos.insert(0, worker.hello)

    print("# arczeta benchmark: python %s, numpy %s, nproc %d, seed %d, "
          "%s s, trace %d" % (worker.hello["python"], worker.hello["numpy"],
                              os.cpu_count(), args.seed, args.seconds,
                              args.trace))
    metrics = {}
    correct = True
    if trace:
        values, samples = per_layer(replies)
        gaps = self_time_gaps(replies)
        gap = statistics.median(gaps)
        ok = 0.0 <= gap <= SELF_TIME_SLACK_S
        print("%s self-time check: op time minus summed self times, median "
              "%.1f us (%.1f to %.1f us) over %d ops, must lie in 0..%.0f us "
              "(%s)" % (name, 1e6 * gap, 1e6 * min(gaps), 1e6 * max(gaps),
                        len(gaps), 1e6 * SELF_TIME_SLACK_S,
                        "ok" if ok else "FAILED"))
        correct &= ok
        for key, (value, unit) in values.items():
            print("%-18s %-24s %14.6g %-5s n=%d"
                  % (name, key, value, unit, samples))
            metrics[key] = {"value": value, "unit": unit}
    else:
        values = end_to_end(replies, hellos, final)
        for key, (value, unit, samples) in values.items():
            print("%-18s %-14s %12.6g %-4s n=%d%s"
                  % (name, key, value, unit, samples,
                     "" if key in GATED else "  (printed only)"))
            if key in GATED:
                metrics[key] = {"value": value, "unit": unit}
    print("%-18s %-14s %12.6g %-4s n=%d"
          % (name, "failed_frac", tally.failed / tally.attempted, "frac",
             tally.attempted))
    for why in tally.reasons:
        print("%s FAILED %s" % (name, why.strip().splitlines()[-1]))
    correct &= tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

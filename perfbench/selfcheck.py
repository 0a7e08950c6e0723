"""Run the benchmark several times on the same code and report how much each
end-to-end metric spreads, against the bound BENCHMARK.json gives it.

    python3 perfbench/selfcheck.py --runs 10
    python3 perfbench/selfcheck.py --runs 5 --workload symbolic-transfer

Run from the root of a checkout.  Seeds are first-seed, first-seed+1, ...;
each round runs every chosen workload once, so drift in machine speed lands
on all of them alike.  The spread of a metric is the distance between the
first and third quartiles of its values (statistics.quantiles, n=4) as a
share of their median; every metric in BENCHMARK.json, setup_s too, is held
to its bound.  With --against an earlier record, each median is also
compared with that record's.  Figures run.py prints without gating them are
summarised too.  Also recorded: nproc, the Python and numpy versions, and
the load average at the start and end of each run.  The record is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
# A metric line of run.py: workload, metric, value, unit, sample count.
PRINTED = re.compile(r"^\S+\s+(\S+)\s+(\S+)\s+\S+\s+n=\d+")


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="repeat to choose several; default all")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", type=Path,
                    help="an earlier record to compare the medians with")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "seconds": args.seconds}
    print("# selfcheck: %s" % json.dumps(env))
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            load0 = os.getloadavg()
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - t0
            load1 = os.getloadavg()
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit("run failed: %s seed %d" % (name, seed))
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            printed = {m.group(1): float(m.group(2))
                       for m in map(PRINTED.match, lines[:-1]) if m}
            run = {"workload": name, "seed": seed, "wall_s": wall,
                   "load_start": load0, "load_end": load1,
                   "correct": result["correct"],
                   "attempted": result["attempted"],
                   "failed": result["failed"],
                   "metrics": {k: v["value"]
                               for k, v in result["metrics"].items()},
                   "printed": printed}
            runs.append(run)
            print("%-18s seed %-3d wall %.1fs load %.2f->%.2f correct=%s "
                  "failed=%d/%d %s"
                  % (name, seed, wall, load0[0], load1[0], run["correct"],
                     run["failed"], run["attempted"],
                     " ".join("%s=%.5g" % kv for kv in run["metrics"].items())),
                  flush=True)

    earlier = (json.loads(args.against.read_text())["summary"]
               if args.against else {})
    summary = {}
    ok = all(r["correct"] for r in runs)
    print("\n%-18s %-14s %12s %8s %7s %8s %s"
          % ("workload", "metric", "median", "spread", "bound", "vs-rec",
             "verdict"))
    for name in names:
        for metric, spec in bounds.items():
            values = [r["metrics"][metric] for r in runs
                      if r["workload"] == name]
            s = spread(values)
            if s <= spec["bound"] / 3:
                verdict = "steady"
            elif s <= spec["bound"]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO NOISY"
                ok = False
            median = statistics.median(values)
            shift = "-"
            before = earlier.get("%s.%s" % (name, metric))
            if before:
                change = median / before["median"] - 1.0
                shift = "%+.1f%%" % (100 * change)
                worse = change if spec["better"] == "lower" else -change
                if worse > spec["bound"]:
                    verdict += ", MEDIAN WORSE THAN THE RECORD'S"
                    ok = False
            print("%-18s %-14s %12.6g %7.1f%% %6.0f%% %8s %s"
                  % (name, metric, median, 100 * s, 100 * spec["bound"],
                     shift, verdict))
            summary["%s.%s" % (name, metric)] = {
                "median": statistics.median(values), "spread": s,
                "bound": spec["bound"]}
    extra = sorted({k for r in runs for k in r["printed"]} - set(bounds))
    for name in names:
        for metric in extra:
            values = [r["printed"][metric] for r in runs
                      if r["workload"] == name and metric in r["printed"]]
            if len(values) < 2 or statistics.median(values) == 0:
                continue
            print("%-18s %-14s %12.6g %7.1f%% %7s (printed only)"
                  % (name, metric, statistics.median(values),
                     100 * spread(values), "-"))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("selfcheck-%d.json" % time.time())
    path.write_text(json.dumps({"env": env, "runs": runs,
                                "summary": summary}, indent=1))
    print("record: %s" % path)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

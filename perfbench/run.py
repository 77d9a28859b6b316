#!/usr/bin/env python3
"""Build the simulator benchmark and run one workload.

    python3 perfbench/run.py --workload train_4p4 --seed 1 \
        --seconds 10 --trace 0

Run it from the root of the repository. The first run configures and
builds perfbench/ (and the libraries under src/ it measures) into the
directory named by $CARGO_TARGET_DIR, else .bench_build; later runs
only check the build is current. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones; the last line of stdout is the
result as one JSON object. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import stats  # noqa: E402

WORKLOADS = ("train_4p4", "fleet_mix", "serve_51b")
# Extra processes that only set up, so set-up time is a median.
SETUP_RUNS = 4
# Every process this script starts must end within this many seconds.
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure once, then bring the binary up to date."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=880)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Run the binary, timing set-up from just before the spawn."""
    t0 = time.monotonic_ns()
    proc = subprocess.run([binary, *args, "--t0-ns", str(t0)],
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d"
                         % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    binary = build()
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--digests", os.path.join(HERE, "digests.tsv")]
    setups = []
    if not a.trace:
        for _ in range(SETUP_RUNS):
            r = run_binary(binary, common + ["--setup-only"])
            if not r["ok"]:
                raise SystemExit("perfbench: set-up op failed")
            setups.append((r["setup_ns"], r["cal_ns"]))
    raw = run_binary(binary, common + ["--seconds", str(a.seconds),
                                       "--trace", str(a.trace)])
    for err in raw["errors"]:
        log("perfbench: failed op: " + err)

    lat = [op[stats.OP_LAT] / 1e6 for op in raw["ops"]]
    tail_ms, pct, n = stats.tail(lat)
    head = ", ".join("%s %.17g" % kv for kv in raw["headline"].items())
    print("%s seed %d: %d ops, %d failed (op_fail_frac %.3g); "
          "op tail = p%.1f of %d samples (%d beyond), unscaled "
          "%.3f ms; %s"
          % (a.workload, a.seed, raw["attempted"], raw["failed"],
             raw["failed"] / raw["attempted"], pct, n,
             min(stats.TAIL_BEYOND, n - 1), tail_ms, head))
    print("digests: " + " ".join("%s=%s" % kv
                                 for kv in raw["digests"].items()))
    if a.trace:
        metrics = stats.per_layer(raw)
        units = stats.PER_LAYER_UNITS
    else:
        cal_ns = statistics.median(ns for _, ns in raw["cal"])
        setups.append((raw["setup_ns"], cal_ns))
        metrics = stats.end_to_end(raw, setups)
        units = stats.END_TO_END_UNITS
        events = sum(op[stats.OP_EVENTS] for op in raw["ops"])
        busy_s = sum(op[stats.OP_LAT] for op in raw["ops"]) / 1e9
        print("%s %.6g; sim_events_per_s %.6g"
              % (stats.WORK_NAMES[a.workload], metrics["work_per_s"],
                 events / busy_s * cal_ns / stats.CAL_REF_NS))
        raw_metrics = stats.end_to_end(raw, setups, scaled=False)
        print("host calibration %.4f ms (reference %.1f ms); unscaled: %s"
              % (cal_ns / 1e6, stats.CAL_REF_NS / 1e6,
                 ", ".join("%s %.6g" % (k, raw_metrics[k])
                           for k in units)))
    for name, unit in units.items():
        print("  %-28s %16.6f %s" % (name, metrics[name], unit))
    print(json.dumps(stats.result_line(raw, metrics, units)))


if __name__ == "__main__":
    main()

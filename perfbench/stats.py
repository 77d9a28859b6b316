"""Arithmetic of the benchmark: percentiles, span self time, metrics.

run.py feeds this module the raw JSON the perfbench binary prints and
gets back the metrics of BENCHMARK.json. Everything here is pure, so
test_stats.py checks it without building anything.
"""

import statistics

# Samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10

# Host times are scaled to a host on which the calibration kernel
# (calibrationNs() in perfbench.cc) takes this long, so that the host's
# own drift in speed cancels out. The unscaled values are printed too.
CAL_REF_NS = 2.0e6
# An op is scaled by the median calibration sample taken within this
# much host time of it.
CAL_NEAR_NS = 600_000_000

# Fields of one op record, as the binary prints them.
(OP_KIND, OP_START, OP_LAT, OP_TRACED, OP_OK, OP_WORK, OP_EVENTS,
 OP_CPU) = range(8)

# Per-layer metrics: name -> unit. Order is the order printed.
PER_LAYER_UNITS = {
    "plan.profile_ms": "ms",
    "plan.partition_ms": "ms",
    "plan.mapping_ms": "ms",
    "plan.mapping_orders": "count",
    "plan.share": "frac",
    "model.workload_ms": "ms",
    "runtime.step_ms": "ms",
    "runtime.spans": "count",
    "simcore.events": "count",
    "simcore.ns_per_event": "ns",
    "simcore.events_per_s": "1/s",
    "simcore.fingerprint_ms": "ms",
    "xfer.flows": "count",
    "xfer.rate_recomputes": "count",
    "xfer.flows_touched": "count",
    "xfer.skip_ratio": "frac",
    "obs.critical_path_ms": "ms",
    "fleet.setup_ms": "ms",
    "fleet.run_ms": "ms",
    "fleet.step_sim_ms": "ms",
    "fleet.plan_cache.hit_rate": "frac",
    "fleet.plan_cache.misses": "count",
    "fleet.preemptions": "count",
    "fleet.backfills": "count",
    "fault.failures": "count",
    "fault.retries": "count",
    "serve.setup_ms": "ms",
    "serve.plan_ms": "ms",
    "serve.run_ms": "ms",
    "serve.iterations": "count",
    "serve.swap_gb": "GB",
    "serve.ns_per_iteration": "ns",
    "op.self_ms": "ms",
    "trace.overhead": "frac",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

# What one op's work item is, per workload (for the printed name).
WORK_NAMES = {
    "train_4p4": "train_steps_per_s",
    "fleet_mix": "fleet_jobs_per_s",
    "serve_51b": "serve_requests_per_s",
}


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n). The value is the sample with
    exactly `beyond` samples ranked above it, and the percentile is the
    share of samples at or below it. With too few samples there is no
    such percentile: the maximum is returned at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return xs[-1], 100.0, n
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    end = lo
    for a, b in clipped:
        if b <= end:
            continue
        a = max(a, end)
        total += b - a
        end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children
    cover of it (children may nest, overlap each other or spill past
    the parent; only the covered part of the parent counts once).

    `spans` is a list of [layer, start, end, parent, op]; returns a
    list of self times in the same order.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered(children[i], s[1], s[2])
            for i, s in enumerate(spans)]


def layer_times(raw):
    """Per layer name: (self ns, inclusive ns, calls) over all spans."""
    names = raw["layers"]
    out = {}
    for s, own in zip(raw["spans"], self_times(raw["spans"])):
        t = out.setdefault(names[s[0]], [0, 0, 0])
        t[0] += own
        t[1] += s[2] - s[1]
        t[2] += 1
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def scale_for(cal, lo=None, hi=None):
    """Host-to-reference time factor from the calibration samples
    ([time, ns] pairs) taken in [lo, hi], else from all of them."""
    inside = [ns for t, ns in cal if lo is None or lo <= t <= hi]
    return CAL_REF_NS / statistics.median(inside or [ns for _, ns in cal])


def op_scales(raw):
    """Each op's host-to-reference factor, from the calibration samples
    taken within CAL_NEAR_NS of the op (samples come every 0.25 s)."""
    return [scale_for(raw["cal"], op[OP_START] - CAL_NEAR_NS,
                      op[OP_START] + op[OP_LAT] + CAL_NEAR_NS)
            for op in raw["ops"]]


def end_to_end(raw, setups, scaled=True):
    """The end-to-end metrics of an untraced run. Host times are scaled
    by the calibration (see CAL_REF_NS) unless `scaled` is off.

    `setups` are (set-up ns, calibration ns) of separate processes,
    this run's own included; their median is reported.
    """
    ops = raw["ops"]
    scales = op_scales(raw) if scaled else [1.0] * len(ops)
    lat_ms = [op[OP_LAT] * k / 1e6 for op, k in zip(ops, scales)]
    cpu_ms = [op[OP_CPU] * k / 1e6 for op, k in zip(ops, scales)]
    return {
        "setup_s": statistics.median(
            ns / 1e9 * (CAL_REF_NS / cal if scaled else 1.0)
            for ns, cal in setups),
        "work_per_s": sum(op[OP_WORK] for op in ops) / (sum(lat_ms) / 1e3),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail(lat_ms)[0],
        "cpu_ms_per_op": sum(cpu_ms) / len(ops),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    """The per-layer metrics of a traced run, per traced op (probe
    layers are charged to the op they followed); host times are scaled
    by the run's calibration (see CAL_REF_NS)."""
    ops = raw["ops"]
    traced = [op[OP_LAT] for op in ops if op[OP_TRACED]]
    plain = [op for op in ops if not op[OP_TRACED]]
    n = max(raw["traced_ops"], 1)
    c = raw["counters"]
    t = layer_times(raw)
    scale = scale_for(raw["cal"])

    def self_ms(name):
        return t.get(name, [0, 0, 0])[0] * scale / 1e6 / n

    def incl_ns(name):
        return t.get(name, [0, 0, 0])[1] * scale

    op_ms = incl_ns("op") / 1e6 / n
    plan_ms = (self_ms("plan.profile") + self_ms("plan.partition") +
               self_ms("plan.mapping"))
    engine_ns = incl_ns("runtime.step") + incl_ns("serve.run")
    step_sims = t.get("fleet.step_sim", [0, 0, 0])
    plain_ns = sum(op[OP_LAT] for op in plain) * scale
    touched = c.get("xfer.flows_touched", 0.0)
    skipped = c.get("xfer.flows_skipped", 0.0)
    hits = c.get("fleet.plan_cache.hits", 0.0)
    misses = c.get("fleet.plan_cache.misses", 0.0)
    return {
        "plan.profile_ms": self_ms("plan.profile"),
        "plan.partition_ms": self_ms("plan.partition"),
        "plan.mapping_ms": self_ms("plan.mapping"),
        "plan.mapping_orders": c.get("plan.mapping_orders", 0.0) / n,
        "plan.share": _ratio(plan_ms, op_ms),
        "model.workload_ms": self_ms("model.workload"),
        "runtime.step_ms": self_ms("runtime.step"),
        "runtime.spans": _ratio(c.get("runtime.spans", 0.0),
                                c.get("runtime.steps", 0.0)),
        "simcore.events": c.get("simcore.events", 0.0) / n,
        "simcore.ns_per_event": _ratio(engine_ns,
                                       c.get("simcore.events", 0.0)),
        "simcore.events_per_s": _ratio(
            sum(op[OP_EVENTS] for op in plain), plain_ns / 1e9),
        "simcore.fingerprint_ms": self_ms("simcore.fingerprint"),
        "xfer.flows": c.get("xfer.flows", 0.0) / n,
        "xfer.rate_recomputes": c.get("xfer.rate_recomputes", 0.0) / n,
        "xfer.flows_touched": touched / n,
        "xfer.skip_ratio": _ratio(skipped, touched + skipped),
        "obs.critical_path_ms": self_ms("obs.critical_path"),
        "fleet.setup_ms": self_ms("fleet.setup"),
        "fleet.run_ms": self_ms("fleet.run"),
        "fleet.step_sim_ms": _ratio(step_sims[1] * scale / 1e6,
                                    step_sims[2]),
        "fleet.plan_cache.hit_rate": _ratio(hits, hits + misses),
        "fleet.plan_cache.misses": misses / n,
        "fleet.preemptions": c.get("fleet.preemptions", 0.0) / n,
        "fleet.backfills": c.get("fleet.backfills", 0.0) / n,
        "fault.failures": c.get("fault.failures", 0.0) / n,
        "fault.retries": c.get("fault.retries", 0.0) / n,
        "serve.setup_ms": self_ms("serve.setup"),
        "serve.plan_ms": self_ms("serve.plan"),
        "serve.run_ms": self_ms("serve.run"),
        "serve.iterations": c.get("serve.iterations", 0.0) / n,
        "serve.swap_gb": c.get("serve.swap_bytes", 0.0) / 1e9 / n,
        "serve.ns_per_iteration": _ratio(incl_ns("serve.run"),
                                         c.get("serve.iterations", 0.0)),
        "op.self_ms": self_ms("op"),
        "trace.overhead": (
            _ratio(statistics.median(traced),
                   statistics.median(op[OP_LAT] for op in plain)) - 1.0
            if traced and plain else 0.0),
    }


def result_line(raw, metrics, units):
    """The benchmark's result object (printed as the last line)."""
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }

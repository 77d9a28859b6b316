/**
 * @file
 * bench_fleet — throughput and determinism of the fleet-scale
 * multi-job simulator (src/fleet), the scaled-up version of the
 * paper's Fig. 15/16 datacenter framing (see EXPERIMENTS.md
 * "BENCH_fleet.json").
 *
 * Three sections:
 *
 *  1. Plan-cache speedup. A 200-job homogeneous Poisson fleet
 *     (GPT-3B jobs on commodity 2+2 servers) runs uncached-serial,
 *     cached-serial, and cached at several --threads widths. The
 *     planner (MIP partition + cross-mapping search) dominates an
 *     uncached homogeneous fleet, so the PlanCache must buy >= 3x
 *     (CPU and wall), with a >= 90% hit rate — and the fleet
 *     fingerprint (per-job timings + trace digests, job-id order)
 *     must be bit-identical across every width *and* vs the
 *     uncached run (a cache hit is indistinguishable from a fresh
 *     solve).
 *
 *  2. Mobius vs ZeRO fleet. The same arrival process run once with
 *     Mobius jobs and once with DeepSpeed-style ZeRO jobs; reports
 *     the JCT distribution (p50/p99/mean), queueing delay, and
 *     utilization for each. The two fleets fan out through
 *     bench::runParallel.
 *
 *  3. Goodput under faults. A mixed-priority fleet with transient
 *     transfer faults, preemption, and backfill; goodput (clean
 *     step-seconds per occupied second) must land in (0, 1], at
 *     least one preemption must occur, and the fingerprint must be
 *     bit-identical across thread widths — the preemption
 *     determinism gate.
 *
 *  4. Timeline tracing overhead + identity. The cached-serial
 *     section-1 fleet reruns with FleetOptions::trace enabled:
 *     recording overhead must stay <= 5% CPU (min of 2 repeats
 *     each way; the `fleet.trace.overhead` scalar), tracing must
 *     not perturb the run (traced and untraced fingerprints
 *     bit-identical), the section-3 fleet's decision-log/report
 *     JSONL must be byte-identical across thread widths and with
 *     the plan cache on or off, and every job's attribution
 *     categories must sum to its JCT within 1e-9.
 *
 * Usage: bench_fleet [--quick] [--out FILE] [--threads N]
 *                    [--jobs N] [--no-plan-cache]
 *                    [--timeline FILE]
 *
 *   --quick         smaller fleets; this is the tier-1 ctest smoke.
 *                   Exits nonzero when any gate fails. Speed gates
 *                   are CPU-time based (std::clock) so they hold
 *                   under a loaded `ctest -j`.
 *   --threads       width list override: 0 (default) sweeps
 *                   {1, 4, hw}; N > 0 sweeps {1, N}.
 *   --jobs          size of the section-1 fleet (default 200).
 *   --no-plan-cache diagnostic: skip the cached runs and gates,
 *                   report only the uncached baseline.
 *   --timeline      write the section-4 faulted fleet's Chrome
 *                   timeline to FILE (open in Perfetto) and its
 *                   report JSONL next to it (.json -> .jsonl; feed
 *                   to tools/fleet_report).
 *   --out           JSON output path (default BENCH_fleet.json).
 *                   Top-level scalars are folded into
 *                   BENCH_index.json by tools/bench_index.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/args.hh"
#include "bench_util.hh"
#include "fleet/fleet_sim.hh"

using namespace mobius;

namespace
{

/** Quick-tier gates (the acceptance bar for the fleet rewrite). */
constexpr double kMinSpeedup = 3.0;
constexpr double kMinHitRate = 0.90;
/** Relative CPU overhead tracing may add, plus an absolute slack
 *  so micro-noise on a sub-second baseline cannot trip the gate. */
constexpr double kMaxTraceOverhead = 0.05;
constexpr double kTraceOverheadSlack = 0.02;
/** Per-job attribution drift bound: |sum(categories) - jct|. */
constexpr double kMaxAttribDrift = 1e-9;

/** The homogeneous section-1/2 inventory: 4 commodity 2+2 boxes. */
std::vector<FleetServerDesc>
commodityFleet(int count)
{
    FleetServerDesc desc;
    desc.klass = "commodity";
    desc.groups = {2, 2};
    desc.count = count;
    return {desc};
}

/** One timed FleetSim::run(). */
struct FleetRun
{
    FleetMetrics m;
    double wall = 0.0; //!< wall seconds in run()
    double cpu = 0.0;  //!< process CPU seconds in run()
};

/** Time one FleetSim::run(). */
FleetRun
timedRun(FleetSim &sim)
{
    FleetRun r;
    double c0 = bench::cpuNow(), w0 = bench::wallNow();
    r.m = sim.run();
    r.cpu = bench::cpuNow() - c0;
    r.wall = bench::wallNow() - w0;
    return r;
}

/** Build and fill (but do not run) the section-1 homogeneous
 *  fleet. Returned by pointer: FleetSim pins a mutex-holding plan
 *  cache, and section 4 inspects sims after their run. */
std::unique_ptr<FleetSim>
makeHomogeneous(int jobs, int threads, bool plan_cache,
                System system, FleetTraceConfig trace = {})
{
    FleetOptions opts;
    opts.servers = commodityFleet(4);
    opts.threads = threads;
    opts.planCache = plan_cache;
    opts.trace = trace;
    auto sim = std::make_unique<FleetSim>(std::move(opts));

    JobSpec proto;
    proto.model = gpt3b();
    proto.system = system;
    proto.serverClass = "commodity";
    proto.steps = 3;
    sim->submitPoisson(proto, jobs, 1.0, 42);
    return sim;
}

/** Build, fill, and run the section-1 homogeneous fleet. */
FleetRun
runHomogeneous(int jobs, int threads, bool plan_cache,
               System system)
{
    auto sim = makeHomogeneous(jobs, threads, plan_cache, system);
    return timedRun(*sim);
}

/** Build and fill (but do not run) the section-3/4 faulted
 *  priority fleet. */
std::unique_ptr<FleetSim>
makeFaulted(int jobs, int threads, bool plan_cache = true,
            FleetTraceConfig trace = {})
{
    FleetOptions opts;
    opts.servers = commodityFleet(2);
    FleetServerDesc dc;
    dc.klass = "dc";
    dc.dataCenter = true;
    dc.groups = {4};
    dc.count = 1;
    opts.servers.push_back(dc);
    opts.threads = threads;
    opts.planCache = plan_cache;
    opts.preemption = true;
    opts.backfill = true;
    opts.faults.xfailProb = 0.01;
    opts.faults.retryBudget = 10;
    opts.faults.retryBackoff = 1e-4;
    opts.trace = trace;
    auto sim = std::make_unique<FleetSim>(std::move(opts));

    // Low-priority (5) jobs saturate the commodity servers; every
    // fourth job arrives as priority 0 and must evict one of them.
    // Every fifth job requests the DC box instead — when the
    // commodity head-of-line is blocked, those are the jobs EASY
    // backfill lets jump the queue.
    for (int i = 0; i < jobs; ++i) {
        JobSpec spec;
        spec.model = gpt3b();
        spec.serverClass = (i % 5 == 4) ? "dc" : "commodity";
        spec.steps = 4;
        spec.arrival = 0.3 * i;
        spec.priority = (i % 4 == 3) ? 0 : 5;
        spec.faultSeed = 100 + static_cast<std::uint64_t>(i);
        sim->submit(std::move(spec));
    }
    return sim;
}

/** Build, fill, and run the section-3 faulted priority fleet. */
FleetRun
runFaulted(int jobs, int threads)
{
    auto sim = makeFaulted(jobs, threads);
    return timedRun(*sim);
}

/** Exact-equality check of the cross-width identity fields. */
bool
sameMetrics(const FleetMetrics &a, const FleetMetrics &b)
{
    return a.fingerprint == b.fingerprint &&
        a.jctP50 == b.jctP50 && a.jctP99 == b.jctP99 &&
        a.waitP99 == b.waitP99 && a.makespan == b.makespan &&
        a.utilization == b.utilization &&
        a.sched.preemptions == b.sched.preemptions;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        const bool quick = args.has("quick");
        const std::string out = args.get("out", "BENCH_fleet.json");
        const int threads = bench::threadsArg(args);
        const bool no_cache = args.has("no-plan-cache");
        const int jobs = static_cast<int>(
            args.getInt("jobs", quick ? 200 : 600));
        const std::string timeline_out = args.get("timeline", "");
        args.rejectUnused();

        int hw = static_cast<int>(
            std::thread::hardware_concurrency());
        if (hw <= 0)
            hw = 4;
        // Width 4 runs even on fewer cores: oversubscribed workers
        // still interleave, which is what the determinism gates
        // need to bite on single-core CI.
        std::vector<int> widths;
        if (threads > 0)
            widths = {1, threads};
        else {
            widths = {1, 4};
            if (hw > 4)
                widths.push_back(hw);
        }

        // --- Section 1: plan-cache + job-pump speedup.
        bench::section(strfmt("Fleet: %d homogeneous GPT-3B jobs "
                              "on 4x commodity 2+2",
                              jobs));

        FleetRun uncached = runHomogeneous(
            jobs, 1, false, System::Mobius);
        std::printf("\n  uncached serial: %6.2fs wall, %6.2fs cpu "
                    "(%5.1f jobs/sec)\n",
                    uncached.wall, uncached.cpu,
                    jobs / std::max(uncached.wall, 1e-9));

        std::vector<FleetRun> cached;
        double best_wall = uncached.wall;
        if (!no_cache) {
            for (int w : widths) {
                cached.push_back(runHomogeneous(
                    jobs, w, true, System::Mobius));
                const FleetRun &r = cached.back();
                std::printf("  cached %2d-thread: %6.2fs wall, "
                            "%6.2fs cpu (%5.1f jobs/sec, hit rate "
                            "%.3f)\n",
                            w, r.wall, r.cpu,
                            jobs / std::max(r.wall, 1e-9),
                            r.m.planHitRate);
                best_wall = std::min(best_wall, r.wall);
            }
        }

        bool hit_ok = true, speedup_ok = true, ident_ok = true;
        double speedup_cpu = 1.0, speedup_wall = 1.0;
        double hit_rate = 0.0;
        if (!no_cache) {
            const FleetRun &serial = cached.front();
            hit_rate = serial.m.planHitRate;
            hit_ok = hit_rate >= kMinHitRate;
            speedup_cpu =
                uncached.cpu / std::max(serial.cpu, 1e-9);
            speedup_wall =
                uncached.wall / std::max(best_wall, 1e-9);
            speedup_ok = speedup_cpu >= kMinSpeedup &&
                speedup_wall >= kMinSpeedup;
            for (const FleetRun &r : cached)
                ident_ok =
                    ident_ok && sameMetrics(r.m, serial.m);
            // A cache hit must be indistinguishable from a fresh
            // solve: the uncached fleet is the oracle.
            ident_ok = ident_ok && sameMetrics(uncached.m, serial.m);

            std::printf("\n  plan-cache speedup: %.2fx cpu, %.2fx "
                        "wall (>= %.1fx): %s\n",
                        speedup_cpu, speedup_wall, kMinSpeedup,
                        speedup_ok ? "ok" : "FAIL");
            std::printf("  hit rate %.3f (>= %.2f): %s\n", hit_rate,
                        kMinHitRate, hit_ok ? "ok" : "FAIL");
            std::printf("  fingerprints across %zu widths + "
                        "uncached: %s\n",
                        cached.size(),
                        ident_ok ? "bit-identical"
                                 : "NONDETERMINISTIC");
        }
        std::printf("  JCT p50 %.1fs p99 %.1fs, wait p99 %.1fs, "
                    "utilization %.2f, makespan %.0fs\n",
                    uncached.m.jctP50, uncached.m.jctP99,
                    uncached.m.waitP99, uncached.m.utilization,
                    uncached.m.makespan);

        // --- Section 2: Mobius vs ZeRO fleet JCT distribution.
        bench::section("Fleet: Mobius vs ZeRO JCT distribution");
        const int mix_jobs = quick ? 30 : 60;
        std::vector<FleetRun> mix(2);
        bench::runParallel(2, threads, "fleets", [&](int i) {
            mix[static_cast<std::size_t>(i)] = runHomogeneous(
                mix_jobs, 1, true,
                i == 0 ? System::Mobius
                       : System::DeepSpeed);
        });
        const FleetMetrics &fm = mix[0].m;
        const FleetMetrics &fz = mix[1].m;
        std::printf("  %-10s %9s %9s %9s %9s %6s\n", "system",
                    "jct p50", "jct p99", "jct mean", "wait p99",
                    "util");
        std::printf("  %-10s %8.1fs %8.1fs %8.1fs %8.1fs %6.2f\n",
                    "mobius", fm.jctP50, fm.jctP99, fm.jctMean,
                    fm.waitP99, fm.utilization);
        std::printf("  %-10s %8.1fs %8.1fs %8.1fs %8.1fs %6.2f\n",
                    "zero", fz.jctP50, fz.jctP99, fz.jctMean,
                    fz.waitP99, fz.utilization);

        // --- Section 3: goodput under faults, with preemption.
        bench::section("Fleet: goodput under faults "
                       "(preemption + backfill)");
        const int fault_jobs = quick ? 40 : 80;
        FleetRun f1 = runFaulted(fault_jobs, 1);
        FleetRun f4 = runFaulted(fault_jobs, widths.back());
        bool fault_ident_ok = sameMetrics(f1.m, f4.m);
        bool goodput_ok =
            f1.m.goodput > 0.0 && f1.m.goodput <= 1.0;
        bool preempt_ok = f1.m.sched.preemptions > 0 &&
            f1.m.sched.backfills > 0;
        std::printf("\n  %d jobs, %llu preemptions, %llu "
                    "backfills: goodput %.3f, utilization %.2f\n",
                    fault_jobs,
                    (unsigned long long)f1.m.sched.preemptions,
                    (unsigned long long)f1.m.sched.backfills,
                    f1.m.goodput, f1.m.utilization);
        std::printf("  preemption determinism (1 vs %d threads): "
                    "%s\n",
                    widths.back(),
                    fault_ident_ok ? "bit-identical"
                                   : "NONDETERMINISTIC");
        std::printf("  goodput in (0, 1]: %s, preemptions and "
                    "backfills > 0: %s\n",
                    goodput_ok ? "ok" : "FAIL",
                    preempt_ok ? "ok" : "FAIL");

        // --- Section 4: timeline tracing — overhead + identity.
        bench::section("Fleet: timeline tracing overhead + "
                       "identity");
        FleetTraceConfig tcfg;
        tcfg.enabled = true;

        // Recording overhead on the cached-serial homogeneous
        // fleet, min CPU of 2 repeats each way (std::clock, so a
        // loaded `ctest -j` cannot fail the gate on wall noise).
        double base_cpu = 1e300, traced_cpu = 1e300;
        FleetMetrics base_m, traced_m;
        std::unique_ptr<FleetSim> traced_homo;
        for (int rep = 0; rep < 2; ++rep) {
            auto sim = makeHomogeneous(jobs, 1, true,
                                       System::Mobius);
            FleetRun r = timedRun(*sim);
            base_cpu = std::min(base_cpu, r.cpu);
            base_m = r.m;
        }
        for (int rep = 0; rep < 2; ++rep) {
            traced_homo = makeHomogeneous(jobs, 1, true,
                                          System::Mobius, tcfg);
            FleetRun r = timedRun(*traced_homo);
            traced_cpu = std::min(traced_cpu, r.cpu);
            traced_m = r.m;
        }
        double trace_overhead =
            traced_cpu / std::max(base_cpu, 1e-9) - 1.0;
        bool overhead_ok = traced_cpu <=
            base_cpu * (1.0 + kMaxTraceOverhead) +
                kTraceOverheadSlack;
        // Tracing observes; it must not perturb what the fleet
        // *does* (the fingerprint folds the decision stream).
        bool perturb_ok =
            traced_m.fingerprint == base_m.fingerprint;

        // Byte-identity of the full report (decision log + job
        // attribution + summary) across thread widths and with the
        // plan cache off, on the preemption/backfill fleet.
        auto t1 = makeFaulted(fault_jobs, 1, true, tcfg);
        timedRun(*t1);
        auto tn = makeFaulted(fault_jobs, widths.back(), true,
                              tcfg);
        timedRun(*tn);
        auto tnc = makeFaulted(fault_jobs, 1, false, tcfg);
        timedRun(*tnc);
        std::string report1 = t1->reportJsonl();
        bool report_ident_ok = report1 == tn->reportJsonl() &&
            report1 == tnc->reportJsonl();
        bool timeline_ident_ok =
            t1->timelineJson() == tn->timelineJson();

        // Per-job attribution must cover residence time exactly:
        // queue-wait + in-step categories + preemption-lost = JCT.
        double worst_drift = 0.0;
        for (const FleetSim *sim :
             {t1.get(), traced_homo.get()}) {
            for (const FleetJobAttribution &ja :
                 sim->attribution().jobs)
                worst_drift =
                    std::max(worst_drift,
                             std::fabs(ja.t.total() - ja.jct));
        }
        bool attrib_sum_ok = worst_drift <= kMaxAttribDrift;

        std::printf("\n  recording overhead: %.2fs -> %.2fs cpu "
                    "(%+.1f%%, ceiling %.0f%%): %s\n",
                    base_cpu, traced_cpu, 100.0 * trace_overhead,
                    100.0 * kMaxTraceOverhead,
                    overhead_ok ? "ok" : "FAIL");
        std::printf("  zero perturbation (traced vs untraced "
                    "fingerprint): %s\n",
                    perturb_ok ? "bit-identical"
                               : "NONDETERMINISTIC");
        std::printf("  report JSONL across 1/%d threads + cache "
                    "off: %s\n",
                    widths.back(),
                    report_ident_ok ? "byte-identical"
                                    : "NONDETERMINISTIC");
        std::printf("  timeline JSON across widths: %s\n",
                    timeline_ident_ok ? "byte-identical"
                                      : "NONDETERMINISTIC");
        std::printf("  attribution sums: worst |total - jct| "
                    "%.3g (<= %g): %s\n",
                    worst_drift, kMaxAttribDrift,
                    attrib_sum_ok ? "ok" : "FAIL");
        std::printf("  %llu events recorded, %llu truncated\n",
                    (unsigned long long)t1->fleetTrace()
                        .eventCount(),
                    (unsigned long long)t1->fleetTrace()
                        .truncated());

        if (!timeline_out.empty()) {
            std::ofstream tos(timeline_out);
            tos << t1->timelineJson();
            if (!tos)
                fatal("cannot write '%s'", timeline_out.c_str());
            std::string jsonl_out = timeline_out;
            const std::string ext = ".json";
            if (jsonl_out.size() >= ext.size() &&
                jsonl_out.compare(jsonl_out.size() - ext.size(),
                                  ext.size(), ext) == 0)
                jsonl_out.resize(jsonl_out.size() - ext.size());
            jsonl_out += ".jsonl";
            std::ofstream ros(jsonl_out);
            ros << report1;
            if (!ros)
                fatal("cannot write '%s'", jsonl_out.c_str());
            std::printf("  wrote %s (Perfetto) and %s "
                        "(fleet_report)\n",
                        timeline_out.c_str(), jsonl_out.c_str());
        }

        bool ok = hit_ok && speedup_ok && ident_ok &&
            fault_ident_ok && goodput_ok && preempt_ok &&
            overhead_ok && perturb_ok && report_ident_ok &&
            timeline_ident_ok && attrib_sum_ok;

        // --- JSON.
        std::string json = "{\n  \"schema\": \"mobius-bench/1\",\n  \"quick\": ";
        json += quick ? "true" : "false";
        json += strfmt(",\n  \"jobs\": %d", jobs);
        json += strfmt(",\n  \"fleet_jobs_per_sec\": %.17g",
                       jobs / std::max(best_wall, 1e-9));
        json += strfmt(
            ",\n  \"uncached_serial_wall_seconds\": %.17g",
            uncached.wall);
        json += strfmt(
            ",\n  \"uncached_serial_cpu_seconds\": %.17g",
            uncached.cpu);
        if (!no_cache) {
            json += strfmt(
                ",\n  \"cached_serial_wall_seconds\": %.17g",
                cached.front().wall);
            json += strfmt(
                ",\n  \"cached_serial_cpu_seconds\": %.17g",
                cached.front().cpu);
            json += strfmt(",\n  \"plan_speedup_cpu\": %.17g",
                           speedup_cpu);
            json += strfmt(",\n  \"plan_speedup_wall\": %.17g",
                           speedup_wall);
            json += strfmt(",\n  \"plan_speedup_floor\": %g",
                           kMinSpeedup);
            json += strfmt(",\n  \"plan_hit_rate\": %.17g",
                           hit_rate);
            json += strfmt(",\n  \"plan_hit_rate_floor\": %g",
                           kMinHitRate);
            json += strfmt(
                ",\n  \"plan_hits\": %llu,\n  \"plan_misses\": "
                "%llu",
                (unsigned long long)cached.front().m.planHits,
                (unsigned long long)cached.front().m.planMisses);
            json += ",\n  \"cache_identity_ok\": ";
            json += ident_ok ? "true" : "false";
            json += ",\n  \"sims\": [";
            for (std::size_t i = 0; i < cached.size(); ++i) {
                json += i ? ",\n    " : "\n    ";
                json += strfmt(
                    "{\"threads\":%d,\"wall_seconds\":%.17g,"
                    "\"jobs_per_sec\":%.17g}",
                    widths[i], cached[i].wall,
                    jobs / std::max(cached[i].wall, 1e-9));
            }
            json += "\n  ]";
        }
        json += strfmt(",\n  \"jct_p50\": %.17g,\n  \"jct_p99\": "
                       "%.17g,\n  \"wait_p99\": %.17g",
                       uncached.m.jctP50, uncached.m.jctP99,
                       uncached.m.waitP99);
        json += strfmt(",\n  \"utilization\": %.17g",
                       uncached.m.utilization);
        json += strfmt(
            ",\n  \"fingerprint\": \"%016llx\"",
            (unsigned long long)uncached.m.fingerprint);
        json += strfmt(
            ",\n  \"mix_jobs\": %d"
            ",\n  \"jct_p50_mobius\": %.17g"
            ",\n  \"jct_p99_mobius\": %.17g"
            ",\n  \"jct_mean_mobius\": %.17g"
            ",\n  \"jct_p50_zero\": %.17g"
            ",\n  \"jct_p99_zero\": %.17g"
            ",\n  \"jct_mean_zero\": %.17g",
            mix_jobs, fm.jctP50, fm.jctP99, fm.jctMean, fz.jctP50,
            fz.jctP99, fz.jctMean);
        json += strfmt(
            ",\n  \"fault_jobs\": %d"
            ",\n  \"goodput_faulted\": %.17g"
            ",\n  \"fleet_preemptions\": %llu"
            ",\n  \"fleet_backfills\": %llu",
            fault_jobs, f1.m.goodput,
            (unsigned long long)f1.m.sched.preemptions,
            (unsigned long long)f1.m.sched.backfills);
        json += strfmt(",\n  \"fleet.trace.overhead\": %.17g",
                       trace_overhead);
        json += strfmt(
            ",\n  \"fleet.trace.overhead_ceiling\": %g",
            kMaxTraceOverhead);
        json += strfmt(
            ",\n  \"fleet.trace.events\": %llu"
            ",\n  \"fleet.trace.truncated\": %llu",
            (unsigned long long)t1->fleetTrace().eventCount(),
            (unsigned long long)t1->fleetTrace().truncated());
        json += strfmt(
            ",\n  \"fleet.trace.attrib_worst_drift\": %.17g",
            worst_drift);
        json += ",\n  \"trace_overhead_ok\": ";
        json += overhead_ok ? "true" : "false";
        json += ",\n  \"trace_identity_ok\": ";
        json += (perturb_ok && report_ident_ok &&
                 timeline_ident_ok)
            ? "true"
            : "false";
        json += ",\n  \"trace_attrib_sum_ok\": ";
        json += attrib_sum_ok ? "true" : "false";
        json += strfmt(
            ",\n  \"decision_fingerprint\": \"%016llx\"",
            (unsigned long long)uncached.m.decisionFingerprint);
        json += ",\n  \"determinism_ok\": ";
        json += (ident_ok && fault_ident_ok) ? "true" : "false";
        json += ",\n  \"ok\": ";
        json += ok ? "true" : "false";
        json += "\n}\n";

        std::ofstream os(out);
        os << json;
        if (!os)
            fatal("cannot write '%s'", out.c_str());
        std::printf("\n  wrote %s\n", out.c_str());

        return ok ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

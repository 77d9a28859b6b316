/**
 * @file
 * bench_resilience — goodput under injected faults, Mobius vs the
 * DeepSpeed (ZeRO-3 + hetero memory) baseline, plus the
 * recovery-cost-vs-checkpoint-interval tradeoff (see EXPERIMENTS.md
 * "BENCH_resilience.json").
 *
 * Experiment A sweeps the per-attempt transient transfer failure
 * probability (xfail) and measures goodput = clean step time /
 * faulted step time for both systems under the same retry policy.
 * Experiment B crashes one GPU mid-step and sweeps the periodic
 * checkpoint interval, reading the injector's recovery and
 * checkpoint cost counters.
 *
 * Usage: bench_resilience [--quick] [--out FILE] [--threads N]
 *
 *   --quick   GPT-8B on the 2+2 server only (this is the tier-1
 *             ctest smoke). Exits nonzero when a fixed fault seed is
 *             not bit-identical across repeats, when the faulted
 *             Mobius trace violates pipeline dependency order
 *             (Eq. 8-11), when Mobius's goodput falls more than 2
 *             points below ZeRO's at any fault rate, or when the
 *             checkpoint-interval tradeoff loses its ordering.
 *   --out     JSON output path (default BENCH_resilience.json in
 *             the working directory).
 *   --threads worker threads for the goodput-curve sweep (0 =
 *             hardware concurrency, the default). Each (model, topo,
 *             system) curve is an independent replica dispatched
 *             through simcore/replica_runner.hh into its own slot;
 *             the reduction runs in curve order after the join, so
 *             the output is bit-identical at any thread count.
 *
 * Expected shape: Mobius overlaps prefetch behind compute, so a
 * retried transfer often hides in slack that ZeRO — which blocks on
 * every parameter gather — does not have; Mobius goodput therefore
 * degrades no worse than ZeRO's at equal fault rates. For recovery,
 * longer checkpoint intervals lose more work per crash while shorter
 * ones pay more checkpoint overhead — the classic tradeoff, here
 * measured from the injector's exact counters.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "base/args.hh"
#include "bench_util.hh"
#include "fault/fault_plan.hh"
#include "simcore/replica_runner.hh"

using namespace mobius;

namespace
{

/** Tier-1 gate: Mobius goodput may trail ZeRO by at most this. */
constexpr double kGoodputMargin = 0.02;

/** The swept per-attempt transient failure probabilities. */
const std::vector<double> kFaultRates = {0.0, 0.005, 0.01, 0.02};

/** Retry policy shared by both systems at every swept rate. */
constexpr int kRetryBudget = 10;
constexpr double kRetryBackoff = 1e-4;

/** Seed for every faulted run (determinism is itself a gate). */
constexpr std::uint64_t kFaultSeed = 42;

/** One faulted (or clean) step: stats plus the injector counters. */
struct FaultedStep
{
    double stepTime = 0.0;
    FaultCounters counters;
    bool orderOk = true; //!< Eq. 8-11 under faults (Mobius only)
};

/**
 * Eq. 8-11 restated on the faulted trace: activations flow forward
 * (Eq. 8), microbatches stay ordered per stage (Eq. 10), backward
 * follows the last forward (Eq. 11), and retries never duplicate or
 * drop a kernel — every (stage, microbatch) F and B span exists
 * exactly once.
 */
bool
pipelineOrderHolds(TraceRecorder &trace, int stages, int mbs)
{
    auto one = [&](const std::string &name, TraceSpan &out) {
        auto v = trace.named(name);
        if (v.size() != 1)
            return false;
        out = v[0];
        return true;
    };
    for (int j = 0; j < stages; ++j) {
        for (int m = 0; m < mbs; ++m) {
            TraceSpan f, b, fp, bp;
            if (!one(strfmt("F%d,%d", j, m), f) ||
                !one(strfmt("B%d,%d", j, m), b))
                return false;
            if (j > 0 && one(strfmt("F%d,%d", j - 1, m), fp) &&
                f.start < fp.end - 1e-9)
                return false;
            if (j > 0 && one(strfmt("B%d,%d", j - 1, m), bp) &&
                bp.start < b.end - 1e-9)
                return false;
            if (m > 0) {
                TraceSpan fm, bm;
                if (one(strfmt("F%d,%d", j, m - 1), fm) &&
                    f.start < fm.end - 1e-9)
                    return false;
                if (one(strfmt("B%d,%d", j, m - 1), bm) &&
                    b.start < bm.end - 1e-9)
                    return false;
            }
        }
    }
    TraceSpan blast, flast;
    return one(strfmt("B%d,0", stages - 1), blast) &&
        one(strfmt("F%d,%d", stages - 1, mbs - 1), flast) &&
        blast.start >= flast.end - 1e-9;
}

/**
 * Run one step of @p system under @p faults (may be empty for a
 * clean run). Mobius executes @p plan, computed once by the caller
 * and held fixed so the sweep isolates the fault model, not the
 * planner's reaction to it, and its trace is checked for Eq. 8-11.
 */
FaultedStep
faultedStep(System system, const Server &server, const Workload &work,
            const MobiusPlan *plan, const FaultPlan &faults,
            std::uint64_t seed)
{
    RunContext ctx(server,
                   {.faults = faults.empty() ? nullptr : &faults,
                    .faultSeed = seed});
    FaultedStep r;
    r.stepTime = runStep(ctx, system, work.cost(), plan).stepTime;
    if (plan)
        r.orderOk = pipelineOrderHolds(
            ctx.trace(), plan->stageCount(),
            work.cost().cfg().numMicrobatches);
    if (ctx.faults())
        r.counters = ctx.faults()->counters();
    return r;
}

/** One goodput-vs-fault-rate point for one system. */
struct GoodputPoint
{
    double rate = 0.0;
    double stepTime = 0.0;
    double goodput = 1.0; //!< clean step time / faulted step time
    std::uint64_t failures = 0;
    std::uint64_t retries = 0;
};

/** One (model, topo, system) goodput curve. */
struct GoodputCurve
{
    std::string model;
    std::string topo;
    System system = System::Mobius;
    double cleanStepTime = 0.0;
    bool orderOk = true;
    std::vector<GoodputPoint> points;
};

GoodputCurve
runGoodputCurve(const GptConfig &cfg, const std::vector<int> &groups,
                const std::string &topo_name, System system)
{
    GoodputCurve r;
    r.model = cfg.name;
    r.topo = topo_name;
    r.system = system;

    Server server = makeCommodityServer(groups);
    Workload work(cfg, server);
    std::optional<MobiusPlan> plan;
    if (system == System::Mobius)
        plan = planMobius(server, work.cost());
    const MobiusPlan *fixed = plan ? &*plan : nullptr;

    FaultedStep clean =
        faultedStep(system, server, work, fixed, {}, kFaultSeed);
    r.cleanStepTime = clean.stepTime;
    r.orderOk = clean.orderOk;

    for (double rate : kFaultRates) {
        GoodputPoint p;
        p.rate = rate;
        if (rate <= 0.0) {
            p.stepTime = clean.stepTime;
            p.goodput = 1.0;
        } else {
            FaultPlan fp;
            fp.xfailProb = rate;
            fp.retryBudget = kRetryBudget;
            fp.retryBackoff = kRetryBackoff;
            FaultedStep s = faultedStep(system, server, work, fixed,
                                        fp, kFaultSeed);
            p.stepTime = s.stepTime;
            p.goodput = clean.stepTime / s.stepTime;
            p.failures = s.counters.failures;
            p.retries = s.counters.retries;
            r.orderOk = r.orderOk && s.orderOk;
        }
        r.points.push_back(p);
    }
    return r;
}

/** One recovery-cost point: crash recovery vs checkpoint cadence. */
struct RecoveryPoint
{
    double interval = 0.0;           //!< checkpoint interval, seconds
    double stepTime = 0.0;
    double recoverySeconds = 0.0;    //!< restart + lost work replayed
    double checkpointSeconds = 0.0;  //!< summed checkpoint ticks
    std::uint64_t checkpoints = 0;
};

/**
 * Crash gpu1 at a fixed fraction of the clean step and sweep the
 * checkpoint interval. Recovery cost = restart + work since the
 * last checkpoint, so longer intervals lose more; shorter intervals
 * pay more checkpoint overhead.
 */
std::vector<RecoveryPoint>
runRecoveryCurve(const GptConfig &cfg, const std::vector<int> &groups,
                 double clean_step)
{
    Server server = makeCommodityServer(groups);
    Workload work(cfg, server);
    MobiusPlan plan = planMobius(server, work.cost());

    std::vector<RecoveryPoint> out;
    for (double frac : {1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2}) {
        FaultPlan fp;
        fp.checkpointInterval = clean_step * frac;
        fp.checkpointCost = clean_step * 0.005;
        fp.restartCost = clean_step * 0.02;
        fp.crashes.push_back({1, clean_step * 0.37});
        FaultedStep s = faultedStep(System::Mobius, server, work,
                                    &plan, fp, kFaultSeed);
        RecoveryPoint p;
        p.interval = fp.checkpointInterval;
        p.stepTime = s.stepTime;
        p.recoverySeconds = s.counters.recoverySeconds;
        p.checkpointSeconds = s.counters.checkpointSeconds;
        p.checkpoints = s.counters.checkpoints;
        out.push_back(p);
    }
    return out;
}

void
printGoodputCurve(const GoodputCurve &r)
{
    std::printf("\n  %s / %s / %s: clean %.3fs, order %s\n",
                r.model.c_str(), r.topo.c_str(), systemName(r.system),
                r.cleanStepTime,
                r.orderOk ? "ok" : "VIOLATED");
    std::printf("    %8s %10s %8s %9s %8s\n", "rate", "step", "goodput",
                "failures", "retries");
    for (const GoodputPoint &p : r.points)
        std::printf("    %8.3f %9.4fs %8.3f %9llu %8llu\n", p.rate,
                    p.stepTime, p.goodput,
                    (unsigned long long)p.failures,
                    (unsigned long long)p.retries);
}

std::string
goodputCurveJson(const GoodputCurve &r)
{
    std::string json = "{\"model\":\"" + r.model + "\"";
    json += ",\"topo\":\"" + r.topo + "\"";
    json += strfmt(",\"system\":\"%s\"", systemName(r.system));
    json += strfmt(",\"clean_step_time\":%.17g", r.cleanStepTime);
    json += ",\"order_ok\":";
    json += r.orderOk ? "true" : "false";
    json += ",\"points\":[";
    for (std::size_t i = 0; i < r.points.size(); ++i) {
        const GoodputPoint &p = r.points[i];
        json += i ? "," : "";
        json += strfmt("{\"rate\":%.17g,\"step_time\":%.17g,"
                       "\"goodput\":%.17g,\"failures\":%llu,"
                       "\"retries\":%llu}",
                       p.rate, p.stepTime, p.goodput,
                       (unsigned long long)p.failures,
                       (unsigned long long)p.retries);
    }
    json += "]}";
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        const bool quick = args.has("quick");
        const std::string out =
            args.get("out", "BENCH_resilience.json");
        const int threads = bench::threadsArg(args);
        args.rejectUnused();

        bench::section("Resilience: goodput under transient faults, "
                       "Mobius vs DeepSpeed");

        struct Config
        {
            GptConfig model;
            std::vector<int> groups;
            std::string topo;
        };
        std::vector<Config> configs = {{gpt8b(), {2, 2}, "2+2"}};
        if (!quick)
            configs.push_back({gpt8b(), {4, 4}, "4+4"});

        // One replica per (model, topo, system) goodput curve:
        // independent simulations, per-slot results, printed and
        // gated in job order after the join (bit-identical at any
        // thread count).
        struct Job
        {
            Config config;
            System system;
        };
        std::vector<Job> jobs;
        for (const Config &c : configs)
            for (System system : {System::Mobius, System::DeepSpeed})
                jobs.push_back({c, system});

        std::vector<GoodputCurve> curves(jobs.size());
        bench::runParallel(
            jobs.size(), threads, "curves", [&](int i) {
                const Job &j = jobs[static_cast<std::size_t>(i)];
                curves[static_cast<std::size_t>(i)] =
                    runGoodputCurve(j.config.model, j.config.groups,
                                    j.config.topo, j.system);
            });
        for (const GoodputCurve &r : curves)
            printGoodputCurve(r);

        // Gate 1: at every swept rate on the 8B 2+2 config, Mobius
        // goodput trails ZeRO by at most kGoodputMargin.
        const GoodputCurve *mob = nullptr, *zero = nullptr;
        for (const GoodputCurve &r : curves) {
            if (r.model == gpt8b().name && r.topo == "2+2") {
                (r.system == System::Mobius ? mob : zero) = &r;
            }
        }
        bool goodput_ok = mob && zero;
        double margin = 1.0; // min over rates of (mobius - zero)
        if (goodput_ok) {
            for (std::size_t i = 0; i < mob->points.size(); ++i) {
                double gap = mob->points[i].goodput -
                    zero->points[i].goodput;
                margin = std::min(margin, gap);
                goodput_ok =
                    goodput_ok && gap >= -kGoodputMargin;
            }
        }

        // Gate 2: pipeline dependency order (Eq. 8-11) holds on
        // every faulted Mobius trace.
        bool order_ok = true;
        for (const GoodputCurve &r : curves)
            if (r.system == System::Mobius)
                order_ok = order_ok && r.orderOk;

        // Gate 3: a fixed fault seed is bit-identical across
        // repeats — same step time, same counters, span for span.
        bench::section("Resilience: determinism across repeats");
        bool deterministic = true;
        {
            Server server = makeCommodityServer({2, 2});
            Workload work(gpt8b(), server);
            MobiusPlan plan = planMobius(server, work.cost());
            FaultPlan fp;
            fp.xfailProb = 0.02;
            fp.retryBudget = kRetryBudget;
            fp.retryBackoff = kRetryBackoff;
            FaultedStep a = faultedStep(System::Mobius, server, work,
                                        &plan, fp, kFaultSeed);
            FaultedStep b = faultedStep(System::Mobius, server, work,
                                        &plan, fp, kFaultSeed);
            deterministic = a.stepTime == b.stepTime &&
                a.counters.failures == b.counters.failures &&
                a.counters.retries == b.counters.retries &&
                a.counters.backoffSeconds == b.counters.backoffSeconds;
            std::printf("\n  seed %llu twice: %.6fs vs %.6fs, "
                        "%llu vs %llu failures — %s\n",
                        (unsigned long long)kFaultSeed, a.stepTime,
                        b.stepTime,
                        (unsigned long long)a.counters.failures,
                        (unsigned long long)b.counters.failures,
                        deterministic ? "bit-identical"
                                      : "NONDETERMINISTIC");
        }

        // Gate 4: the checkpoint-interval tradeoff orders correctly
        // — longer intervals lose more work per crash, shorter
        // intervals pay more checkpoint overhead.
        bench::section("Resilience: recovery cost vs checkpoint "
                       "interval (GPU crash, GPT-8B 2+2)");
        double clean_8b_2p2 = mob ? mob->cleanStepTime : 0.0;
        std::vector<RecoveryPoint> recovery = runRecoveryCurve(
            gpt8b(), {2, 2}, clean_8b_2p2);
        std::printf("\n    %10s %10s %10s %10s %6s\n", "interval",
                    "step", "recovery", "ckpt cost", "ticks");
        for (const RecoveryPoint &p : recovery)
            std::printf("    %9.4fs %9.4fs %9.4fs %9.4fs %6llu\n",
                        p.interval, p.stepTime, p.recoverySeconds,
                        p.checkpointSeconds,
                        (unsigned long long)p.checkpoints);
        bool recovery_ok = recovery.size() == 4 &&
            recovery.back().recoverySeconds >
                recovery.front().recoverySeconds &&
            recovery.front().checkpointSeconds >
                recovery.back().checkpointSeconds;

        double goodput_m_p02 =
            mob ? mob->points.back().goodput : 0.0;
        double goodput_z_p02 =
            zero ? zero->points.back().goodput : 0.0;

        std::printf("\n  goodput margin (Mobius - ZeRO, min over "
                    "rates, 8B 2+2): %+.4f (>= %+.2f) %s\n",
                    margin, -kGoodputMargin,
                    goodput_ok ? "ok" : "FAIL");
        std::printf("  pipeline order under faults (Eq. 8-11): %s\n",
                    order_ok ? "ok" : "FAIL");
        std::printf("  fixed-seed determinism: %s\n",
                    deterministic ? "ok" : "FAIL");
        std::printf("  recovery/checkpoint ordering: %s\n",
                    recovery_ok ? "ok" : "FAIL");

        std::string json = "{\n  \"schema\": \"mobius-bench/1\",\n  \"quick\": ";
        json += quick ? "true" : "false";
        json += strfmt(",\n  \"goodput_margin_tolerance\": %g",
                       kGoodputMargin);
        json += strfmt(",\n  \"goodput_mobius_p02\": %.17g",
                       goodput_m_p02);
        json += strfmt(",\n  \"goodput_zero_p02\": %.17g",
                       goodput_z_p02);
        json += strfmt(",\n  \"goodput_margin_min\": %.17g", margin);
        json += ",\n  \"goodput_ok\": ";
        json += goodput_ok ? "true" : "false";
        json += ",\n  \"order_ok\": ";
        json += order_ok ? "true" : "false";
        json += ",\n  \"deterministic\": ";
        json += deterministic ? "true" : "false";
        json += strfmt(",\n  \"recovery_shortest_interval_seconds\":"
                       " %.17g",
                       recovery.front().recoverySeconds);
        json += strfmt(",\n  \"recovery_longest_interval_seconds\":"
                       " %.17g",
                       recovery.back().recoverySeconds);
        json += ",\n  \"recovery_ordering_ok\": ";
        json += recovery_ok ? "true" : "false";
        json += ",\n  \"recovery\": [";
        for (std::size_t i = 0; i < recovery.size(); ++i) {
            const RecoveryPoint &p = recovery[i];
            json += i ? ",\n    " : "\n    ";
            json += strfmt("{\"interval\":%.17g,\"step_time\":%.17g,"
                           "\"recovery_seconds\":%.17g,"
                           "\"checkpoint_seconds\":%.17g,"
                           "\"checkpoints\":%llu}",
                           p.interval, p.stepTime, p.recoverySeconds,
                           p.checkpointSeconds,
                           (unsigned long long)p.checkpoints);
        }
        json += "\n  ],\n  \"curves\": [";
        for (std::size_t i = 0; i < curves.size(); ++i) {
            json += i ? ",\n    " : "\n    ";
            json += goodputCurveJson(curves[i]);
        }
        json += "\n  ]\n}\n";

        std::ofstream os(out);
        os << json;
        if (!os)
            fatal("cannot write '%s'", out.c_str());
        std::printf("\n  wrote %s\n", out.c_str());

        return goodput_ok && order_ok && deterministic && recovery_ok
            ? 0
            : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

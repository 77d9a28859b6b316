/**
 * @file
 * mobius_sim — command-line driver for one-off experiments.
 *
 *     mobius_sim --model 15b --topo 2+2 --system mobius
 *     mobius_sim --model 8b --topo 4+4 --system deepspeed --json
 *     mobius_sim --model 15b --system mobius --mapping seq \
 *                --partition min --mbs 2 --trace out.json
 *     mobius_sim --model 8b --whatif rc0=2 --whatif-exact
 *     mobius_sim --model 8b --whatif-sweep rc0=0.5:2:7 --json
 *     mobius_sim --model custom --hidden 6144 --blocks 48 ...
 *
 * Options:
 *   --model 3b|8b|15b|51b|custom   (default 15b)
 *   --hidden/--blocks/--heads N    (custom model only)
 *   --topo 4|2+2|1+3|4+4|...       root-complex groups (default 2+2)
 *   --dc                           data-center server (4x V100)
 *   --system mobius|deepspeed|gpipe|dspipe|tp   (default mobius)
 *   --mbs N                        microbatch size (default Table 3)
 *   --microbatches N               per step (default = #GPUs)
 *   --partition mip|exact|min|max  (default mip; exact = faithful
 *                                  Eq. 3-11 branch-and-bound, only
 *                                  for uniform layer stacks)
 *   --mip-max-nodes N              exact-MIP node budget per stage
 *                                  count (default 200000)
 *   --mip-time-limit SEC           exact-MIP wall-clock budget per
 *                                  stage count (default unlimited)
 *   --mip-threads N                exact-MIP stage-sweep workers;
 *                                  0 = one per core (default 1)
 *   --mapping cross|seq            (default cross)
 *   --cpu-adam PARAMS_PER_SEC      CPU optimizer model (default off)
 *   --steps N                      fine-tuning length estimate
 *   --json                         machine-readable output (includes
 *                                  a "manifest" object identifying
 *                                  the run for tools/trace_diff)
 *   --trace FILE                   write Chrome tracing JSON
 *                                  (spans + live counter tracks +
 *                                  the run manifest as metadata)
 *   --metrics FILE                 write the metrics registry as
 *                                  JSON; a sibling .csv is written
 *                                  next to it
 *   --metrics-interval SEC         counter sampling period in
 *                                  simulated seconds (default 0.01,
 *                                  must be > 0)
 *   --gantt                        print the ASCII schedule
 *   --explain                      print the critical-path blame
 *                                  table (where the step's time went)
 *   --explain-json                 same, as JSON on stdout (embedded
 *                                  under "attribution" with --json)
 *   --explain-top K                path entries in reports (def. 10,
 *                                  must be >= 1)
 *   --whatif RESOURCE=FACTOR       counterfactual speedup over the
 *                                  completed-span DAG (obs/whatif.hh);
 *                                  repeatable, all specs combine into
 *                                  one scenario. Resources: rcN,
 *                                  gpuN, cpu, compute, transfer,
 *                                  optimizer, link:NAME
 *   --whatif-sweep RES=LO:HI:N     sensitivity curve over N factors
 *                                  in [LO, HI] (ASCII, or JSON under
 *                                  "whatif_sweep" with --json)
 *   --whatif-exact                 validate every what-if prediction
 *                                  by re-simulating with the
 *                                  perturbed server and report the
 *                                  drift
 *   --faults FILE|SPEC             inject faults (fault/fault_plan.hh):
 *                                  a JSON plan file, or an inline
 *                                  ';'-separated spec, e.g.
 *                                  "degrade:rc0=0.25@0.1+0.3;
 *                                  xfail=0.01;retry=6+1e-4". Events:
 *                                  degrade:RES=F@START+DUR,
 *                                  flaky:RES=F~GAP+DUR, xfail=P,
 *                                  crash:gpuN@T, ckpt=INTERVAL+COST,
 *                                  restart=SEC, retry=BUDGET+BACKOFF.
 *                                  RES uses the --whatif resource
 *                                  grammar and is validated before
 *                                  the simulation.
 *   --fault-seed N                 RNG seed for stochastic fault
 *                                  events (default 1); a fixed seed
 *                                  makes the faulted run bit-identical
 *                                  across repeats
 *   --prof                         profile the simulator itself
 *                                  (obs/prof.hh host zones) and print
 *                                  the self-time table; prof.* gauges
 *                                  are folded into --metrics output
 *   --prof-folded FILE             write flamegraph-compatible folded
 *                                  stacks of the host profile
 *                                  (implies --prof)
 */

#include <cstdio>
#include <fstream>
#include <memory>

#include "base/args.hh"
#include "fault/fault_plan.hh"
#include "obs/critical_path.hh"
#include "obs/metrics.hh"
#include "obs/whatif.hh"
#include "runtime/report.hh"
#include "obs/sampler.hh"

using namespace mobius;

namespace
{

GptConfig
pickModel(const Args &args)
{
    std::string name = args.get("model", "15b");
    if (name == "3b")
        return gpt3b();
    if (name == "8b")
        return gpt8b();
    if (name == "15b")
        return gpt15b();
    if (name == "51b")
        return gpt51b();
    if (name == "custom") {
        GptConfig cfg;
        cfg.name = "custom";
        cfg.hidden = args.getInt("hidden", 4096);
        cfg.numBlocks = args.getInt("blocks", 40);
        cfg.heads = args.getInt("heads", cfg.hidden / 128);
        cfg.microbatchSize = 1;
        return cfg;
    }
    fatal("unknown --model '%s'", name.c_str());
}

/** @return @p path with its extension replaced by ".csv". */
std::string
csvSibling(const std::string &path)
{
    std::size_t dot = path.find_last_of('.');
    std::size_t slash = path.find_last_of("/\\");
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + ".csv";
    }
    return path.substr(0, dot) + ".csv";
}

/** Sum of a counter's value, or 0 when it was never created. */
double
counterOr0(const MetricsRegistry &reg, const std::string &name)
{
    const Counter *c = reg.findCounter(name);
    return c ? c->value() : 0.0;
}

/**
 * Print the per-GPU phase breakdown (compute / exposed comm /
 * overlapped comm / idle / prefetch wait), the simulated analogue of
 * the paper's Fig. 8 utilisation split.
 */
void
printPhaseTable(RunContext &ctx, const MetricsRegistry &reg,
                double step_time)
{
    std::printf("\nper-GPU phase breakdown (seconds):\n");
    std::printf("  %-6s %9s %9s %9s %9s %9s\n", "gpu", "compute",
                "exposed", "overlap", "idle", "pf-wait");
    for (int g = 0; g < ctx.numGpus(); ++g) {
        double compute = ctx.usage().computeTime(g);
        double exposed = ctx.usage().exposedCommTime(g);
        double overlap = ctx.usage().overlappedCommTime(g);
        double idle = step_time - compute - exposed;
        if (idle < 0.0)
            idle = 0.0;
        double wait = counterOr0(
            reg, "gpu" + std::to_string(g) + ".prefetch.wait_seconds");
        std::printf("  gpu%-3d %9.4f %9.4f %9.4f %9.4f %9.4f\n", g,
                    compute, exposed, overlap, idle, wait);
    }
}

/**
 * One simulated step's fixed configuration, shared by the baseline
 * run and every what-if ground-truth re-run (which must execute the
 * SAME schedule on perturbed hardware to isolate the counterfactual).
 */
struct StepSetup
{
    const Workload *work = nullptr;
    System system = System::Mobius;
    PlanOptions popts;
    /** When set, Mobius skips planning and executes this plan (the
     *  baseline plan is held fixed across what-if re-runs). */
    const MobiusPlan *plan = nullptr;
};

/**
 * Run one step of @p setup.system on @p ctx. For Mobius, the plan
 * comes from setup.plan when present; otherwise planMobius() runs
 * and, when @p plan_out is non-null, the result is stored there.
 */
StepStats
runSetup(RunContext &ctx, const StepSetup &setup,
         std::unique_ptr<MobiusPlan> *plan_out)
{
    MOBIUS_PROF_ZONE("sim.step");
    const Workload &work = *setup.work;
    const MobiusPlan *plan = setup.plan;
    std::unique_ptr<MobiusPlan> owned;
    if (setup.system == System::Mobius && !plan) {
        owned = std::make_unique<MobiusPlan>(
            planMobius(ctx.server(), work.cost(), setup.popts));
        plan = owned.get();
        if (MetricsRegistry *m = ctx.activeMetrics()) {
            m->gauge("plan.profiling_seconds")
                .set(plan->profilingSeconds);
            m->gauge("plan.solve_seconds").set(plan->solveSeconds);
            m->gauge("plan.mapping_seconds")
                .set(plan->mappingSeconds);
            m->gauge("plan.stages").set(plan->stageCount());
        }
    }
    StepStats stats = runStep(ctx, setup.system, work.cost(), plan);
    if (owned && plan_out)
        *plan_out = std::move(owned);
    return stats;
}

/**
 * Ground truth for one what-if scenario: re-simulate the step on a
 * copy of @p server with the specs' link capacities rescaled and the
 * engine-rate factors applied, holding the schedule (plan) fixed.
 * @return the re-simulated step time.
 */
double
exactStepTime(const Server &server, const StepSetup &setup,
              double cpu_adam, const std::vector<WhatIfSpec> &specs)
{
    Server perturbed = perturbServer(server, specs);
    StepSetup s = setup;
    s.popts.metrics = nullptr; // keep the main registry pristine
    RunContext ctx(perturbed,
                   {.cpuAdamThroughput = cpu_adam,
                    .perturb = runPerturbation(
                        specs, server.topo.numGpus())});
    return runSetup(ctx, s, nullptr).stepTime;
}

/** Record one what-if result into the metrics registry. */
void
recordWhatIfMetrics(MetricsRegistry &reg, const WhatIfResult &r)
{
    reg.gauge("whatif.base.seconds").set(r.baseStepTime);
    reg.gauge("whatif.predicted.seconds").set(r.predicted);
    reg.gauge("whatif.predicted.low_seconds").set(r.predictedLow);
    reg.gauge("whatif.predicted.high_seconds").set(r.predictedHigh);
    reg.gauge("whatif.matched.spans")
        .set(static_cast<double>(r.matchedSpans));
    if (r.exact > 0.0) {
        reg.gauge("whatif.exact.seconds").set(r.exact);
        reg.gauge("whatif.drift.fraction").set(r.drift());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);

        GptConfig model = pickModel(args);
        bool dc = args.has("dc");
        std::string topo = args.get("topo", "2+2");
        Server server = dc
            ? makeDataCenterServer(4)
            : makeCommodityServer(parseTopoGroups(topo));
        Workload work(model, server, args.getInt("mbs", -1),
                      args.getInt("microbatches", -1));

        System system = parseSystem(args.get("system", "mobius"));
        double cpu_adam = args.getDouble("cpu-adam", 0.0);
        bool json = args.has("json");
        std::string trace_file = args.get("trace", "");
        std::string metrics_file = args.get("metrics", "");
        double metrics_interval = args.getDoubleIn(
            "metrics-interval", 0.01, 1e-9, 1e9);
        bool gantt = args.has("gantt");
        bool explain = args.has("explain");
        bool explain_json = args.has("explain-json");
        std::string prof_folded = args.get("prof-folded", "");
        bool prof_on = args.has("prof") || !prof_folded.empty();
        int explain_top =
            args.getIntIn("explain-top", 10, 1, 1000000);
        int steps = args.getIntIn("steps", 0, 0, 1000000000);

        StepSetup setup;
        setup.work = &work;
        setup.system = system;
        std::string part = args.get("partition", "mip");
        setup.popts.partition = part == "mip" ? PartitionAlgo::Mip
            : part == "exact" ? PartitionAlgo::ExactMip
            : part == "min"   ? PartitionAlgo::MinStage
            : part == "max"   ? PartitionAlgo::MaxStage
            : (fatal("unknown --partition '%s'", part.c_str()),
               PartitionAlgo::Mip);
        setup.popts.mip.maxNodes = static_cast<std::uint64_t>(
            args.getInt("mip-max-nodes", 200000));
        setup.popts.mip.timeLimitSeconds =
            args.getDouble("mip-time-limit", 0.0);
        setup.popts.mip.threads = args.getInt("mip-threads", 1);
        std::string mapping = args.get("mapping", "cross");
        setup.popts.mapping = mapping == "cross"
            ? MappingAlgo::Cross
            : mapping == "seq" ? MappingAlgo::Sequential
            : (fatal("unknown --mapping '%s'", mapping.c_str()),
               MappingAlgo::Cross);

        // What-if flags: every --whatif occurrence adds one spec to
        // a single combined scenario; --whatif-sweep traces a curve
        // over one resource. Parsed against the server so unknown
        // resources fail before the (possibly long) simulation.
        std::vector<WhatIfSpec> whatif_specs;
        for (const std::string &s : args.getStrings("whatif"))
            whatif_specs.push_back(parseWhatIfSpec(s, server));
        bool have_sweep = args.has("whatif-sweep");
        WhatIfSweepSpec sweep_spec;
        if (have_sweep) {
            sweep_spec =
                parseWhatIfSweepSpec(args.get("whatif-sweep"));
            parseWhatIfSpec(strfmt("%s=%.17g",
                                   sweep_spec.resource.c_str(),
                                   sweep_spec.lo),
                            server);
        }
        bool whatif_exact = args.has("whatif-exact");
        if (whatif_exact && whatif_specs.empty() && !have_sweep)
            fatal("--whatif-exact requires --whatif or "
                  "--whatif-sweep");

        // Fault plan: parsed against the server (same resource
        // grammar as --whatif) so bad plans fail before the run.
        FaultPlan fault_plan;
        std::string faults_arg = args.get("faults", "");
        if (!faults_arg.empty())
            fault_plan = loadFaultPlan(faults_arg, server);
        std::uint64_t fault_seed = static_cast<std::uint64_t>(
            args.getInt("fault-seed", 1));
        args.rejectUnused();

        RunManifest manifest;
        manifest.model = model.name;
        manifest.topo = dc ? "dc" : topo;
        manifest.system = systemName(system);
        manifest.partition = part;
        manifest.mapping = mapping;
        manifest.microbatchSize = work.train().microbatchSize;
        manifest.numMicrobatches = work.train().numMicrobatches;
        manifest.steps = 1;
        manifest.traceFile = trace_file;
        manifest.metricsFile = metrics_file;

        MetricsRegistry registry;
        setup.popts.metrics = &registry; // plan.mip.* / solver.lp.*
        RunContext ctx(server,
                       {.cpuAdamThroughput = cpu_adam,
                        .metrics = &registry,
                        .faults = fault_plan.empty() ? nullptr
                                                     : &fault_plan,
                        .faultSeed = fault_seed});
        if (!fault_plan.empty() && !json)
            std::printf("faults: %s (seed %llu)\n",
                        faultPlanSummary(fault_plan).c_str(),
                        static_cast<unsigned long long>(fault_seed));
        // Sample counters onto the trace/CSV timeline while the
        // simulation runs. Started before the executor, so the first
        // tick is already queued when events begin.
        std::unique_ptr<MetricsSampler> sampler;
        if (!trace_file.empty() || !metrics_file.empty()) {
            sampler = std::make_unique<MetricsSampler>(
                ctx.queue(), registry,
                trace_file.empty() ? nullptr : &ctx.trace(),
                metrics_interval);
            sampler->start();
        }
        std::unique_ptr<MobiusPlan> plan;
        if (prof_on)
            prof::setEnabled(true);
        StepStats stats = runSetup(ctx, setup, &plan);
        std::string plan_json = plan ? planToJson(*plan) : "";
        // What-if re-runs execute the baseline plan on perturbed
        // hardware; re-planning would mix two counterfactuals.
        setup.plan = plan.get();

        std::vector<WhatIfResult> whatif_results;
        if (!whatif_specs.empty()) {
            WhatIfResult r =
                evaluateWhatIf(ctx.trace(), server, whatif_specs);
            if (whatif_exact)
                r.exact = exactStepTime(server, setup, cpu_adam,
                                        whatif_specs);
            recordWhatIfMetrics(registry, r);
            whatif_results.push_back(std::move(r));
        }
        WhatIfSweep sweep;
        if (have_sweep) {
            sweep = sweepWhatIf(buildSpanDag(ctx.trace()), server,
                                sweep_spec);
            if (whatif_exact) {
                for (WhatIfResult &p : sweep.points)
                    p.exact = exactStepTime(server, setup, cpu_adam,
                                            p.specs);
            }
            registry.gauge("whatif.sweep.sensitivity")
                .set(sweep.sensitivity());
        }

        Bytes p32 = work.model().totalParamBytesFp32();
        StepAttribution attrib;
        if (explain || explain_json)
            attrib = attributeStep(ctx.trace());
        // Snapshot the host profile once everything that simulates
        // or walks the trace has run, and fold it into the registry
        // so the --metrics export carries prof.* alongside the
        // simulated metrics.
        prof::Snapshot prof_snap;
        if (prof_on) {
            prof::setEnabled(false);
            prof_snap = prof::snapshot();
            exportProfSnapshot(prof_snap, registry);
        }
        if (json) {
            std::printf("{\"server\":\"%s\",\"model\":\"%s\","
                        "\"manifest\":%s,\"stats\":%s",
                        server.name.c_str(), model.name.c_str(),
                        manifestToJson(manifest).c_str(),
                        stepStatsToJson(stats, p32).c_str());
            if (!plan_json.empty())
                std::printf(",\"plan\":%s", plan_json.c_str());
            if (explain || explain_json)
                std::printf(",\"attribution\":%s",
                            attributionToJson(attrib, explain_top)
                                .c_str());
            if (!whatif_results.empty())
                std::printf(
                    ",\"whatif\":%s",
                    whatIfResultJson(whatif_results.front())
                        .c_str());
            if (have_sweep)
                std::printf(",\"whatif_sweep\":%s",
                            whatIfSweepJson(sweep).c_str());
            if (steps > 0) {
                auto est = estimateFineTune(server, stats.stepTime,
                                            steps);
                std::printf(",\"finetune\":{\"steps\":%d,"
                            "\"hours\":%.4f,\"dollars\":%.2f}",
                            steps, est.hours, est.dollars);
            }
            std::printf("}\n");
        } else if (explain_json) {
            std::printf("%s\n",
                        attributionToJson(attrib, explain_top)
                            .c_str());
        } else {
            std::printf("server: %s\nmodel:  %s (%s FP32)\n"
                        "system: %s\n\n",
                        server.name.c_str(), model.name.c_str(),
                        formatBytes(p32).c_str(),
                        stats.system.c_str());
            std::printf("step time       : %s\n",
                        formatSeconds(stats.stepTime).c_str());
            std::printf("traffic         : %s (%.2fx model)\n",
                        formatBytes(stats.traffic.totalBytes())
                            .c_str(),
                        stats.trafficRatio(p32));
            std::printf("exposed comm    : %.1f%%\n",
                        100 * stats.exposedCommFraction());
            if (ctx.faults()) {
                const FaultCounters &fc =
                    ctx.faults()->counters();
                std::printf(
                    "faults          : %llu failed xfers, "
                    "%llu retries, %llu crashes, %llu ckpts "
                    "(%s injected)\n",
                    static_cast<unsigned long long>(fc.failures),
                    static_cast<unsigned long long>(fc.retries),
                    static_cast<unsigned long long>(fc.crashes),
                    static_cast<unsigned long long>(
                        fc.checkpoints),
                    formatSeconds(fc.seconds()).c_str());
            }
            if (steps > 0) {
                auto est = estimateFineTune(server, stats.stepTime,
                                            steps);
                std::printf("%d steps        : %.1f h, $%.2f\n",
                            steps, est.hours, est.dollars);
            }
            printPhaseTable(ctx, registry, stats.stepTime);
            if (explain)
                std::printf("\n%s",
                            attributionTable(attrib, explain_top)
                                .c_str());
            if (!whatif_results.empty())
                std::printf("\nwhat-if (counterfactual step "
                            "times):\n%s",
                            whatIfReport(whatif_results).c_str());
            if (have_sweep)
                std::printf("\n%s",
                            whatIfSweepAscii(sweep).c_str());
        }

        if (!trace_file.empty()) {
            std::ofstream os(trace_file);
            os << ctx.trace().toChromeJson(
                manifestToJson(manifest));
            if (!os)
                fatal("cannot write trace file '%s'",
                      trace_file.c_str());
            if (!json)
                std::printf("trace           : %s\n",
                            trace_file.c_str());
        }
        if (!metrics_file.empty()) {
            std::ofstream os(metrics_file);
            os << registry.toJson() << "\n";
            std::string csv_file = csvSibling(metrics_file);
            std::ofstream cs(csv_file);
            cs << registry.toCsv();
            if (!os || !cs)
                fatal("cannot write metrics file '%s' / '%s'",
                      metrics_file.c_str(), csv_file.c_str());
            if (!json)
                std::printf("metrics         : %s (+ %s)\n",
                            metrics_file.c_str(), csv_file.c_str());
        }
        if (!prof_folded.empty()) {
            std::ofstream os(prof_folded);
            os << prof::folded(prof_snap);
            if (!os)
                fatal("cannot write folded-stack file '%s'",
                      prof_folded.c_str());
            if (!json)
                std::printf("prof folded     : %s\n",
                            prof_folded.c_str());
        }
        if (prof_on && !json && !explain_json)
            std::printf("\n--- host self-profile ---\n%s",
                        prof::table(prof_snap).c_str());
        if (gantt)
            std::printf("\n%s\n",
                        ctx.trace().toAsciiGantt(96).c_str());
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

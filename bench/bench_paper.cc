/**
 * @file
 * The paper's evaluation (§4), one section per table or figure in
 * paper order — Table 1, Fig. 2, Table 3 + Fig. 5, Figs. 6-16 — then
 * ablations of Mobius's design choices and the §5 comparison with
 * tensor parallelism. Each section's comment states the shape the
 * paper reports; EXPERIMENTS.md maps every row to the paper and
 * tests/ gates the claims. Figs. 10/11 and Figs. 15/16 plot one
 * experiment each, which runs once.
 *
 *   bench_paper [--prof]
 *
 * `--prof` appends the host self-profile; any other option is an
 * error.
 */

#include <cmath>
#include <optional>

#include "bench_util.hh"
#include "fleet/job.hh"
#include "hw/gpu_spec.hh"
#include "train/trainer.hh"

using namespace mobius;

namespace
{

/** One experiment cell: a system run on a workload. */
struct RunResult
{
    StepStats stats;
    bool oom = false;
};

/** Run @p system end to end: plan (Mobius only, with @p opts), then
 *  execute one step. @p samples keeps every flow's bandwidth sample
 *  in the step's stats; only the CDF figures ask for it (Figs. 2, 7
 *  and 11 here, Fig. 16 through simulateJobStep()). */
RunResult
run(System system, const GptConfig &cfg, const Server &server,
    int microbatch = -1, int num_microbatches = -1,
    const PlanOptions &opts = {}, bool samples = false)
{
    Workload work(cfg, server, microbatch, num_microbatches);
    std::optional<MobiusPlan> plan;
    if (system == System::Mobius)
        plan = planMobius(server, work.cost(), opts);
    StepRunOptions step;
    step.xfer.bandwidthSamples = samples;
    return RunResult{runStep(system, server, work.cost(),
                             plan ? &*plan : nullptr, step)
                         .stats};
}

/** run() of a CDF figure's step, which keeps bandwidth samples. */
RunResult
runSampled(System system, const GptConfig &cfg, const Server &server,
           int microbatch = -1, const PlanOptions &opts = {})
{
    return run(system, cfg, server, microbatch, -1, opts, true);
}

/** A CDF of @p samples; fatal() when there are none, since every
 *  CDF figure's runs move bytes (a run that kept no samples would
 *  otherwise print quantiles of 0). */
BandwidthCdf
nonEmptyCdf(const std::string &what,
            const std::vector<BandwidthSample> &samples)
{
    BandwidthCdf cdf(samples);
    if (cdf.empty())
        fatal("%s: no bandwidth samples", what.c_str());
    return cdf;
}

/** run(), with a FatalError (Fig. 5's OOM) as a marked result. */
RunResult
runOrOom(System system, const GptConfig &cfg, const Server &server)
{
    try {
        return run(system, cfg, server);
    } catch (const FatalError &) {
        return RunResult{{}, true};
    }
}

/** "1.23 s" or "OOM". */
std::string
cell(const RunResult &r)
{
    if (r.oom)
        return "OOM";
    return strfmt("%7.2f s", r.stats.stepTime);
}

/** Print a byte-weighted bandwidth CDF as (GB/s, fraction) rows. */
void
printCdf(const std::string &label,
         const std::vector<BandwidthSample> &samples)
{
    BandwidthCdf cdf = nonEmptyCdf(label, samples);
    std::printf("  %-28s", (label + ":").c_str());
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
        std::printf("  p%-2.0f=%5.1f GB/s", q * 100,
                    cdf.quantile(q) / 1e9);
    }
    std::printf("  max=%5.1f GB/s\n", cdf.maxBandwidth() / 1e9);
}

/** Samples that crossed the host (exclude pure-NVLink flows). */
std::vector<BandwidthSample>
hostSamples(const StepStats &stats)
{
    std::vector<BandwidthSample> out;
    for (const auto &s : stats.traffic.samples()) {
        if (!s.peerOnly)
            out.push_back(s);
    }
    return out;
}

/**
 * Table 1: performance and price comparison of a 3090-Ti GPU and an
 * A100 GPU.
 */
void
table1()
{
    bench::section("Table 1: 3090-Ti vs A100");
    const GpuSpec &c = rtx3090Ti();
    const GpuSpec &d = a100();
    std::printf("%-28s %14s %14s\n", "", c.name.c_str(),
                d.name.c_str());
    std::printf("%-28s %13.0f$ %13.0f$\n", "Price", c.priceUsd,
                d.priceUsd);
    std::printf("%-28s %8.0f TFlops %8.0f TFlops\n",
                "FP32 Performance", c.fp32Flops / TFLOPS,
                d.fp32Flops / TFLOPS);
    std::printf("%-28s %14d %14d\n", "Tensor Cores", c.tensorCores,
                d.tensorCores);
    std::printf("%-28s %14s %14s\n", "GPUDirect P2P",
                c.gpudirectP2p ? "support" : "not support",
                d.gpudirectP2p ? "support" : "not support");
    std::printf("%-28s %14s %14s\n", "High-bandwidth Connectivity",
                c.nvlink ? "support" : "not support",
                d.nvlink ? "support" : "not support");
    std::printf("\nPrice ratio: %.1fx\n", d.priceUsd / c.priceUsd);
}

/**
 * Figure 2: GPU communication bandwidth CDF of DeepSpeed fine-tuning
 * the 15B model on a 4x3090-Ti server where every two GPUs share a
 * CPU root complex.
 *
 * Expected shape: most bytes move at about half the root-complex
 * bandwidth (~6.5 of 13.1 GB/s) because of contention.
 */
void
fig2()
{
    bench::section(
        "Figure 2: DeepSpeed bandwidth CDF, 15B on 4x3090-Ti (2+2)");
    Server server = makeCommodityServer({2, 2});
    auto r = runSampled(System::DeepSpeed, gpt15b(), server);

    BandwidthCdf cdf = nonEmptyCdf("Figure 2", r.stats.traffic.samples());
    std::printf("%10s %10s\n", "GB/s", "CDF");
    for (double bw = 1.0; bw <= 14.0; bw += 1.0) {
        std::printf("%10.1f %10.3f\n", bw,
                    cdf.fractionAtOrBelow(bw * 1e9));
    }
    std::printf("\nmedian %.2f GB/s, max %.2f GB/s "
                "(link peak %.1f GB/s)\n",
                cdf.quantile(0.5) / 1e9, cdf.maxBandwidth() / 1e9,
                kPcie3x16Bw / 1e9);
    std::printf("fraction of bytes at <= half the link peak: %.2f\n",
                cdf.fractionAtOrBelow(kPcie3x16Bw / 2 * 1.05));
}

/**
 * Table 3 and Figure 5: the model configurations, then per-step
 * training time of GPipe, DeepSpeed-pipeline,
 * DeepSpeed-heterogeneous-memory and Mobius for the four Table 3
 * models on GPU topologies 2+2, 1+3 and 4.
 *
 * Expected shape: GPipe and DeepSpeed-pipeline OOM beyond the 3B
 * model; Mobius is 3.8-5.1x faster than DeepSpeed with heterogeneous
 * memory; Mobius is nearly topology-insensitive while DeepSpeed
 * degrades as contention grows (Topo 4 worst).
 */
void
table3AndFig5()
{
    bench::section("Table 3: model configurations");
    std::printf("%-10s %8s %8s %8s %12s\n", "model", "heads",
                "hidden", "layers", "microbatch");
    for (const auto &cfg : table3Models()) {
        std::printf("%-10s %8d %8d %8d %12d\n", cfg.name.c_str(),
                    cfg.heads, cfg.hidden, cfg.numBlocks,
                    cfg.microbatchSize);
    }

    bench::section("Figure 5: per-step time, 4x 3090-Ti");
    const std::vector<std::string> topos{"2+2", "1+3", "4"};
    for (const auto &cfg : table3Models()) {
        std::printf("\n--- %s ---\n", cfg.name.c_str());
        std::printf("%-10s %10s %14s %12s %10s %9s\n", "topo",
                    "GPipe", "DS-pipeline", "DS-hetero", "Mobius",
                    "speedup");
        for (const auto &topo : topos) {
            Server server =
                makeCommodityServer(parseTopoGroups(topo));
            auto gpipe = runOrOom(System::GPipe, cfg, server);
            auto dspipe = runOrOom(System::DsPipeline, cfg, server);
            auto ds = run(System::DeepSpeed, cfg, server);
            auto mob = run(System::Mobius, cfg, server);
            double speedup =
                ds.stats.stepTime / mob.stats.stepTime;
            std::printf("%-10s %10s %14s %12s %10s %8.2fx\n",
                        ("Topo " + topo).c_str(), cell(gpipe).c_str(),
                        cell(dspipe).c_str(), cell(ds).c_str(),
                        cell(mob).c_str(), speedup);
        }
    }
}

/**
 * Figure 6: communication traffic of DeepSpeed and Mobius for the
 * 8B/15B/51B models, against the model parameter size.
 *
 * Expected shape: DeepSpeed moves ~1.5N x the model size (~6x at
 * N=4; the paper measures 7.3x with framework overheads), Mobius
 * ~1.5-1.8x.
 */
void
fig6()
{
    bench::section("Figure 6: communication traffic per step");
    Server server = makeCommodityServer({2, 2});
    std::printf("%-10s %14s %14s %14s %9s %9s\n", "model",
                "model size", "DeepSpeed", "Mobius", "DS ratio",
                "Mob ratio");
    for (const auto &cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        Workload work(cfg, server);
        Bytes p32 = work.model().totalParamBytesFp32();
        auto ds = run(System::DeepSpeed, cfg, server);
        auto mob = run(System::Mobius, cfg, server);
        std::printf("%-10s %14s %14s %14s %8.2fx %8.2fx\n",
                    cfg.name.c_str(), formatBytes(p32).c_str(),
                    formatBytes(ds.stats.traffic.totalBytes())
                        .c_str(),
                    formatBytes(mob.stats.traffic.totalBytes())
                        .c_str(),
                    ds.stats.trafficRatio(p32),
                    mob.stats.trafficRatio(p32));
    }

    std::printf("\nMobius traffic breakdown (15B):\n");
    auto mob = run(System::Mobius, gpt15b(), server);
    for (auto kind :
         {TrafficKind::Parameter, TrafficKind::Activation,
          TrafficKind::ActivationGrad, TrafficKind::Gradient}) {
        std::printf("  %-16s %14s\n", trafficKindName(kind),
                    formatBytes(mob.stats.traffic.bytesOf(kind))
                        .c_str());
    }
}

/**
 * Figure 7: GPU communication bandwidth CDFs of DeepSpeed and Mobius
 * for the 8B/15B/51B models across topologies 4, 2+2 and 1+3.
 *
 * Expected shape: Mobius moves more than half of its bytes above
 * 12 GB/s (max measured 13.1); DeepSpeed's mass sits near half of
 * the root-complex bandwidth.
 */
void
fig7()
{
    bench::section("Figure 7: bandwidth CDFs (quantiles)");
    for (const auto &cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        std::printf("\n--- %s ---\n", cfg.name.c_str());
        for (const std::string topo : {"4", "2+2", "1+3"}) {
            Server server =
                makeCommodityServer(parseTopoGroups(topo));
            auto ds = runSampled(System::DeepSpeed, cfg, server);
            auto mob = runSampled(System::Mobius, cfg, server);
            printCdf("DeepSpeed Topo " + topo,
                     ds.stats.traffic.samples());
            printCdf("Mobius    Topo " + topo,
                     mob.stats.traffic.samples());

            BandwidthCdf mc(mob.stats.traffic.samples());
            std::printf("  Mobius bytes above 12 GB/s: %.0f%%\n",
                        100.0 *
                            (1.0 - mc.fractionAtOrBelow(12e9)));
        }
    }
}

/**
 * Figure 8: proportion of per-step time that is communication not
 * overlapped by computation, DeepSpeed vs Mobius, 15B and 51B models
 * on topologies 4, 2+2 and 1+3.
 *
 * Expected shape: Mobius reduces the non-overlapped share by tens of
 * percentage points (paper: up to 46%), and overlaps best on Topo
 * 2+2 where cross mapping has the most freedom.
 */
void
fig8()
{
    bench::section("Figure 8: non-overlapped communication share");
    std::printf("%-10s %-10s %12s %12s %12s\n", "model", "topo",
                "DeepSpeed", "Mobius", "reduction");
    for (const auto &cfg : {gpt15b(), gpt51b()}) {
        for (const std::string topo : {"4", "2+2", "1+3"}) {
            Server server =
                makeCommodityServer(parseTopoGroups(topo));
            auto ds = run(System::DeepSpeed, cfg, server);
            auto mob = run(System::Mobius, cfg, server);
            double d = ds.stats.exposedCommFraction();
            double m = mob.stats.exposedCommFraction();
            std::printf("%-10s %-10s %11.1f%% %11.1f%% %11.1f%%\n",
                        cfg.name.c_str(), ("Topo " + topo).c_str(),
                        100 * d, 100 * m, 100 * (d - m));
        }
    }
}

/** A model and the microbatch sizes Figs. 9-11 sweep it over. */
struct MbsSweep
{
    GptConfig cfg;
    std::vector<int> mbs;
};

/** 8B with microbatch sizes 2/4/8 and 15B with 1/2/3. */
std::vector<MbsSweep>
mbsSweeps()
{
    return {{gpt8b(), {2, 4, 8}}, {gpt15b(), {1, 2, 3}}};
}

/**
 * Figure 9: per-step time under the three model partition
 * algorithms (MIP, maximum-stage, minimum-stage), normalized to the
 * MIP partition algorithm. 8B with microbatch sizes 2/4/8 and 15B
 * with 1/2/3, on Topo 2+2.
 *
 * Expected shape: the MIP partition is never slower; maximum-stage
 * is usually worst (no prefetch headroom); minimum-stage approaches
 * MIP when blocks/microbatches are large.
 */
void
fig9()
{
    bench::section("Figure 9: partition algorithm ablation");
    Server server = makeCommodityServer({2, 2});
    for (const MbsSweep &c : mbsSweeps()) {
        std::printf("\n--- %s ---\n", c.cfg.name.c_str());
        std::printf("%4s %10s %12s %12s %18s %18s\n", "mbs", "MIP",
                    "max-stage", "min-stage", "max/MIP", "min/MIP");
        for (int mbs : c.mbs) {
            auto step = [&](PartitionAlgo algo) {
                PlanOptions opts;
                opts.partition = algo;
                return run(System::Mobius, c.cfg, server, mbs, -1,
                           opts)
                    .stats.stepTime;
            };
            double mip = step(PartitionAlgo::Mip);
            double maxs = step(PartitionAlgo::MaxStage);
            double mins = step(PartitionAlgo::MinStage);
            std::printf("%4d %9.2fs %11.2fs %11.2fs %17.2fx "
                        "%17.2fx\n",
                        mbs, mip, maxs, mins, maxs / mip,
                        mins / mip);
        }
    }
}

/**
 * Figures 10 and 11: cross mapping vs sequential mapping on the
 * 8-GPU server (four GPUs per root complex), 8B with microbatch
 * sizes 2/4/8 and 15B with 1/2/3. Both figures plot the same 12
 * steps, which run once.
 *
 * Figure 10 is the per-step time. Expected shape: cross mapping is
 * ~11-18% faster; the gain shrinks as blocks/microbatches grow
 * (compute starts to dominate).
 *
 * Figure 11 is the per-step bandwidth CDFs. Expected shape: with
 * cross mapping more bytes move at higher bandwidth (the CDF shifts
 * right).
 */
void
figs10And11()
{
    Server server = makeCommodityServer({4, 4});
    struct Row
    {
        int mbs;
        StepStats seq, cross;
    };
    const std::vector<MbsSweep> sweeps = mbsSweeps();
    std::vector<std::vector<Row>> rows;
    for (const MbsSweep &c : sweeps) {
        std::vector<Row> &out = rows.emplace_back();
        for (int mbs : c.mbs) {
            PlanOptions seq;
            seq.mapping = MappingAlgo::Sequential;
            PlanOptions cross;
            cross.mapping = MappingAlgo::Cross;
            out.push_back(
                {mbs,
                 runSampled(System::Mobius, c.cfg, server, mbs, seq)
                     .stats,
                 runSampled(System::Mobius, c.cfg, server, mbs, cross)
                     .stats});
        }
    }

    bench::section("Figure 10: cross vs sequential mapping, 8 GPUs");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        std::printf("\n--- %s ---\n", sweeps[i].cfg.name.c_str());
        std::printf("%4s %14s %14s %14s\n", "mbs", "sequential",
                    "cross", "cross/seq");
        for (const Row &r : rows[i]) {
            double ts = r.seq.stepTime, tc = r.cross.stepTime;
            std::printf("%4d %13.2fs %13.2fs %13.3f\n", r.mbs, ts,
                        tc, tc / ts);
        }
    }

    bench::section("Figure 11: mapping bandwidth CDFs, 8 GPUs");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        std::printf("\n--- %s ---\n", sweeps[i].cfg.name.c_str());
        for (const Row &r : rows[i]) {
            std::printf(" mbs = %d\n", r.mbs);
            printCdf("  sequential", r.seq.traffic.samples());
            printCdf("  cross", r.cross.traffic.samples());
        }
    }
}

/**
 * Figure 12: Mobius's extra overheads — profiling (simulated wall
 * time with layer similarity), MIP solving (real wall time of our
 * search) and cross-mapping search (real wall time) — for 8B/15B/51B
 * on Topo 1+3.
 *
 * Expected shape: all overheads are seconds, negligible against
 * hours-to-days of fine-tuning; 8B and 15B profile in similar time
 * thanks to layer similarity; smaller hidden sizes cost more MIP
 * solving (larger search space).
 */
void
fig12()
{
    bench::section("Figure 12: planning overhead");
    Server server = makeCommodityServer({1, 3});
    std::printf("%-10s %14s %14s %16s %10s\n", "model",
                "profiling", "MIP solving", "cross mapping",
                "stages");
    for (const auto &cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        Workload work(cfg, server);
        MobiusPlan plan = planMobius(server, work.cost());
        std::printf("%-10s %13.2fs %13.4fs %15.4fs %10d\n",
                    cfg.name.c_str(), plan.profilingSeconds,
                    plan.solveSeconds, plan.mappingSeconds,
                    plan.stageCount());
    }

    std::printf("\nlayer-similarity ablation (profiling time):\n");
    std::printf("%-10s %18s %18s\n", "model", "with similarity",
                "without");
    for (const auto &cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        Workload work(cfg, server);
        ProfilerConfig with;
        ProfilerConfig without;
        without.useLayerSimilarity = false;
        auto a = profileModel(work.cost(), with);
        auto b = profileModel(work.cost(), without);
        std::printf("%-10s %17.2fs %17.2fs\n", cfg.name.c_str(),
                    a.profilingTime, b.profilingTime);
    }
}

/**
 * Figure 13: training-loss curves of Mobius vs GPipe.
 *
 * The paper fine-tunes GPT-2 on WikiText-2 with 8 GPUs (GPipe) and
 * 4 GPUs (Mobius) and shows nearly overlapping curves. We train a
 * mini GPT on the synthetic corpus with real gradients:
 *
 *  - the "GPipe" run uses monolithic microbatch accumulation;
 *  - the "Mobius" run uses the stage-partitioned pipeline trainer
 *    (graph cut at stage boundaries, stage-major execution order);
 *  - both are synchronous, so with the same effective batch their
 *    losses are IDENTICAL (printed delta is exactly 0);
 *  - a third run with a different microbatch count reproduces the
 *    paper's "slight difference due to randomness" footnote.
 */
void
fig13()
{
    bench::section("Figure 13: training loss, Mobius vs GPipe");
    MiniGptConfig mcfg;
    mcfg.vocab = 64;
    mcfg.width = 32;
    mcfg.heads = 4;
    mcfg.blocks = 6;
    mcfg.seqLen = 32;
    CorpusConfig ccfg;
    ccfg.vocab = 64;
    ccfg.numTokens = 20000;
    SyntheticCorpus corpus(ccfg);

    const int steps = 60;
    MiniGpt gpipe_model(mcfg);
    MonolithicTrainer gpipe(gpipe_model, AdamConfig{2e-3f});
    LossCurve gc = runTraining(gpipe_model, corpus, nullptr, &gpipe,
                               steps, 4, 5);

    MiniGpt mobius_model(mcfg);
    // Mobius-style partition: 8 pipeline layers into 4 stages.
    PipelineTrainer mobius(mobius_model,
                           partitionFromSizes({2, 2, 2, 2}),
                           AdamConfig{2e-3f});
    LossCurve mc = runTraining(mobius_model, corpus, &mobius,
                               nullptr, steps, 4, 5);

    MiniGpt other_model(mcfg);
    MonolithicTrainer other(other_model, AdamConfig{2e-3f});
    LossCurve oc = runTraining(other_model, corpus, nullptr, &other,
                               steps, 8, 5); // more microbatches

    std::printf("%6s %10s %10s %12s %14s\n", "step", "GPipe",
                "Mobius", "|delta|", "GPipe(8 mbs)");
    double max_delta = 0.0;
    for (int s = 0; s < steps; s += 5) {
        double d = std::fabs(gc.losses[s] - mc.losses[s]);
        max_delta = std::max(max_delta, d);
        std::printf("%6d %10.4f %10.4f %12.2e %14.4f\n", s,
                    gc.losses[s], mc.losses[s], d, oc.losses[s]);
    }
    std::printf("\nmax |GPipe - Mobius| over %d steps: %.3e "
                "(synchronous updates are identical)\n",
                steps, max_delta);
    std::printf("loss drop: %.3f -> %.3f (unigram entropy %.3f)\n",
                gc.losses.front(), gc.losses.back(),
                corpus.unigramEntropy());
}

/**
 * Figure 14: Mobius scalability — throughput training the 15B model
 * with 2..16 GPUs, microbatch size 1, batch size = #GPUs, half the
 * GPUs per CPU root complex. The paper stops at 8 GPUs; 9..16 extend
 * the sweep to an 8+8 server.
 *
 * Expected shape: measured throughput meets or exceeds perfect
 * linear scaling (per-GPU stage count falls as GPUs are added), with
 * a slight dip when the GPUs cannot split evenly across the two root
 * complexes.
 */
void
fig14()
{
    bench::section("Figure 14: scalability on the commodity server");
    std::printf("%6s %12s %16s %18s\n", "GPUs", "step time",
                "samples/s", "vs linear from 2");
    double base = 0.0;
    for (int gpus = 2; gpus <= 16; ++gpus) {
        Server server =
            makeCommodityServer({gpus / 2, gpus - gpus / 2});
        auto r = run(System::Mobius, gpt15b(), server, 1, gpus);
        double throughput = gpus / r.stats.stepTime;
        if (gpus == 2)
            base = throughput / 2.0;
        std::printf("%6d %11.2fs %16.3f %17.2fx\n", gpus,
                    r.stats.stepTime, throughput,
                    throughput / (base * gpus));
    }
}

/**
 * Figures 15 and 16: DeepSpeed and Mobius on the data-center server
 * (4x V100 + NVLink, EC2 p3.8xlarge pricing) and the commodity
 * 3090-Ti server, 8B and 15B models with microbatch size 2.
 *
 * The cells are fleet jobs: each (model, server, system) run is a
 * fleet JobSpec executed by fleet/job.hh simulateJobStep() — the
 * same description struct and step path bench_fleet drives at
 * scale, so these figures and the fleet bench cannot drift apart.
 * The eight jobs run once; Fig. 16 reads the four on the DC server.
 *
 * Figure 15 is the per-step training time and per-step price.
 * Expected shape: both systems speed up on the DC server; DeepSpeed
 * gains more (its all-to-all collectives ride NVLink) and beats
 * Mobius there; Mobius on the commodity box trades moderately more
 * time for a much lower price per step than DeepSpeed on the DC box.
 *
 * Figure 16 is the GPU-CPU bandwidth CDF on the DC server (NVLink
 * flows excluded). Expected shape: the contention gap between the
 * systems narrows (DeepSpeed's collectives moved to NVLink), but
 * Mobius still shows less host-link contention because fewer stage
 * transfers coincide.
 */
void
figs15And16()
{
    bench::section("Figure 15: data-center vs commodity server");
    Server dc = makeDataCenterServer(4);
    Server com = makeCommodityServer({2, 2});
    std::printf("(DC = %s @ $%.2f/h, C = %s @ $%.2f/h)\n",
                dc.name.c_str(), dc.dollarsPerHour,
                com.name.c_str(), com.dollarsPerHour);

    std::printf("\n(a) per-step time\n");
    std::printf("%-10s %14s %12s %14s %12s\n", "model", "DS (DC)",
                "DS (C)", "Mobius (DC)", "Mobius (C)");
    struct Cell
    {
        StepStats stats;
        double t, price;
    };
    auto job = [](const GptConfig &cfg, bool on_dc,
                  System system) {
        JobSpec spec;
        spec.model = cfg;
        spec.system = system;
        spec.dataCenter = on_dc;
        spec.groups = on_dc ? std::vector<int>{4}
                            : std::vector<int>{2, 2};
        spec.microbatchSize = 2;
        // Fig. 16 reads the DC cells' bandwidth samples. The four
        // Mobius cells are four distinct plan keys: nothing to memo.
        JobStepResult r =
            simulateJobStep(spec, nullptr, nullptr, nullptr, on_dc);
        double t = r.stats.stepTime;
        double price =
            t / 3600.0 * buildJobServer(spec).dollarsPerHour;
        return Cell{std::move(r.stats), t, price};
    };
    // Per model: DS (DC), DS (C), Mobius (DC), Mobius (C).
    std::vector<std::vector<Cell>> cells;
    for (const auto &cfg : {gpt8b(), gpt15b()}) {
        std::vector<Cell> &row = cells.emplace_back();
        row.push_back(job(cfg, true, System::DeepSpeed));
        row.push_back(job(cfg, false, System::DeepSpeed));
        row.push_back(job(cfg, true, System::Mobius));
        row.push_back(job(cfg, false, System::Mobius));
        std::printf("%-10s %13.2fs %11.2fs %13.2fs %11.2fs\n",
                    cfg.name.c_str(), row[0].t, row[1].t, row[2].t,
                    row[3].t);
    }

    std::printf("\n(b) per-step price\n");
    std::printf("%-10s %14s %12s %14s %12s\n", "model", "DS (DC)",
                "DS (C)", "Mobius (DC)", "Mobius (C)");
    const char *names[2] = {"GPT-8B", "GPT-15B"};
    for (int i = 0; i < 2; ++i) {
        std::printf("%-10s %13.5f$ %11.5f$ %13.5f$ %11.5f$\n",
                    names[i], cells[i][0].price, cells[i][1].price,
                    cells[i][2].price, cells[i][3].price);
    }

    std::printf("\nMobius(C) vs DeepSpeed(DC):\n");
    for (int i = 0; i < 2; ++i) {
        double dt =
            (cells[i][3].t - cells[i][0].t) / cells[i][0].t;
        double dp = (cells[i][3].price - cells[i][0].price) /
            cells[i][0].price;
        std::printf("  %-10s time %+5.0f%%, price %+5.0f%%\n",
                    names[i], 100 * dt, 100 * dp);
    }

    bench::section("Figure 16: GPU-CPU bandwidth CDF on DC server");
    for (int i = 0; i < 2; ++i) {
        std::printf("\n--- %s ---\n", names[i]);
        auto ds_host = hostSamples(cells[i][0].stats);
        auto mob_host = hostSamples(cells[i][2].stats);
        printCdf("DeepSpeed (host flows)", ds_host);
        printCdf("Mobius    (host flows)", mob_host);

        BandwidthCdf dcdf(ds_host), mcdf(mob_host);
        std::printf("  median host bandwidth: DS %.1f GB/s vs "
                    "Mobius %.1f GB/s\n",
                    dcdf.quantile(0.5) / 1e9,
                    mcdf.quantile(0.5) / 1e9);

        // The contention *volume* gap narrows on the DC server: most
        // of DeepSpeed's collectives moved onto NVLink.
        auto host_bytes = [](const std::vector<BandwidthSample> &v) {
            Bytes total = 0;
            for (const auto &s : v)
                total += s.bytes;
            return total;
        };
        std::printf("  host-link traffic: DS %s vs Mobius %s\n",
                    formatBytes(host_bytes(ds_host)).c_str(),
                    formatBytes(host_bytes(mob_host)).c_str());
    }
}

/** One ablation step of @p plan under executor config @p cfg. */
double
runWith(const Server &server, const Workload &work,
        const MobiusPlan &plan, MobiusExecutorConfig cfg)
{
    StepRunOptions opts;
    opts.exec.mobius = cfg;
    return runStep(System::Mobius, server, work.cost(), &plan, opts)
        .stats.stepTime;
}

/**
 * Ablations of Mobius's design choices (beyond the paper's own §4.3
 * and §4.4 ablations, Figs. 9-11):
 *
 *  1. stage granularity sweep — the tradeoff the MIP navigates;
 *  2. prefetch lookahead (0 / 1 / 2), split by contention regime;
 *  3. SSD-tier weight source — why §3.1 restricts offload to DRAM;
 *  4. resident forward tail — the fwd/bwd boundary reload bubble;
 *  5. activation checkpointing on/off — memory vs recompute;
 *  6. collective layer sync in the DeepSpeed baseline.
 */
void
ablations()
{
    bench::section("Ablation 1: stage granularity (15B, mbs 4, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server, 4);
        std::printf("%8s %12s %16s\n", "stages", "step time",
                    "layers/stage");
        for (int stages : {43, 22, 15, 11, 8, 6, 5}) {
            MobiusPlan plan;
            plan.partition =
                uniformPartition(work.cost().numLayers(), stages);
            plan.mapping = crossMapping(server.topo, stages).mapping;
            try {
                double t = runWith(server, work, plan, {});
                std::printf("%8d %11.2fs %16.1f\n", stages, t,
                            43.0 / stages);
            } catch (const FatalError &) {
                std::printf("%8d %12s\n", stages, "OOM");
            }
        }
    }

    bench::section("Ablation 2: prefetch lookahead (15B, mbs 4)");
    {
        std::printf("%-24s %10s %10s %10s\n", "topology",
                    "lookahead0", "lookahead1", "lookahead2");
        for (const auto &groups :
             {std::vector<int>{1, 1, 1, 1}, std::vector<int>{2, 2},
              std::vector<int>{4}}) {
            Server server = makeCommodityServer(groups);
            Workload work(gpt15b(), server, 4);
            MobiusPlan plan;
            plan.partition =
                uniformPartition(work.cost().numLayers(), 11);
            plan.mapping = crossMapping(server.topo, 11).mapping;
            double t[3];
            for (int la = 0; la < 3; ++la) {
                MobiusExecutorConfig cfg;
                cfg.prefetchLookahead = la;
                t[la] = runWith(server, work, plan, cfg);
            }
            std::printf("%-24s %9.2fs %9.2fs %9.2fs\n",
                        server.name.c_str(), t[0], t[1], t[2]);
        }
        std::printf("(prefetch helps on uncontended links; under a "
                    "shared root complex its\nflows fair-share "
                    "bandwidth away from critical loads)\n");
    }

    bench::section("Ablation 3: weight source tier (15B, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server);
        MobiusPlan plan = planMobius(server, work.cost());
        std::printf("%-26s %12s\n", "source", "step time");
        struct Tier
        {
            const char *name;
            double cap;
        };
        for (const Tier &tier :
             {Tier{"DRAM (no cap)", 0.0},
              Tier{"NVMe RAID (6 GB/s)", 6e9},
              Tier{"NVMe (3 GB/s)", 3e9},
              Tier{"SATA SSD (0.5 GB/s)", 0.5e9}}) {
            MobiusExecutorConfig cfg;
            cfg.weightSourceRateCap = tier.cap;
            double t = runWith(server, work, plan, cfg);
            std::printf("%-26s %11.2fs\n", tier.name, t);
        }
        std::printf("(the paper's §3.1 rationale for DRAM-only "
                    "offload)\n");
    }

    bench::section("Ablation 4: resident forward tail (15B, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server);
        MobiusPlan plan = planMobius(server, work.cost());
        MobiusExecutorConfig keep;
        MobiusExecutorConfig reload;
        reload.keepResidentTail = false;
        std::printf("keep tail resident: %.2fs, reload at "
                    "boundary: %.2fs\n",
                    runWith(server, work, plan, keep),
                    runWith(server, work, plan, reload));
    }

    bench::section(
        "Ablation 5: activation checkpointing (15B, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        for (bool ckpt : {true, false}) {
            Workload base(gpt15b(), server);
            TrainConfig tc = base.train();
            tc.activationCheckpointing = ckpt;
            ModelDesc model = makeGptModel(gpt15b());
            CostModel cost(model, server.topo.gpuSpec(0), tc);
            try {
                MobiusPlan plan = planMobius(server, cost);
                StepStats s =
                    runStep(System::Mobius, server, cost, &plan).stats;
                std::printf("checkpointing %-5s step %.2fs "
                            "(bwd/fwd compute ratio %.0f%%)\n",
                            ckpt ? "on" : "off", s.stepTime,
                            ckpt ? 300.0 : 200.0);
            } catch (const FatalError &e) {
                std::printf("checkpointing %-5s infeasible: %s\n",
                            ckpt ? "on" : "off", e.what());
            }
        }
    }

    bench::section("Ablation 6: DeepSpeed collective sync (15B)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server);
        for (bool sync : {true, false}) {
            StepRunOptions opts;
            opts.exec.zero.layerSync = sync;
            StepStats s = runStep(System::DeepSpeed, server,
                                  work.cost(), nullptr, opts)
                              .stats;
            std::printf("layer sync %-5s step %.2fs\n",
                        sync ? "on" : "off", s.stepTime);
        }
    }
}

/**
 * Related-work comparison (§5): Megatron-style tensor parallelism
 * with offloaded optimizer vs Mobius on the commodity server, across
 * microbatch sizes.
 *
 * Expected shape (the §5 argument): pipeline parallelism moves less
 * data than model parallelism — TP's per-layer activation
 * all-reduces grow with the batch while Mobius's weight streaming is
 * constant, so TP falls behind as the microbatch grows; and TP's
 * resident weight shards cap the trainable scale (51B OOMs on 24 GB
 * GPUs, which Mobius trains).
 */
void
relatedWork()
{
    bench::section("Related work: tensor parallelism vs Mobius "
                   "(4x 3090-Ti, Topo 2+2)");
    Server server = makeCommodityServer({2, 2});

    for (const auto &cfg : {gpt8b(), gpt15b()}) {
        std::printf("\n--- %s ---\n", cfg.name.c_str());
        std::printf("%4s %12s %16s %12s %14s %14s\n", "mbs",
                    "Mobius", "TensorParallel", "TP/Mobius",
                    "Mobius traffic", "TP traffic");
        for (int mbs : {1, 2, 4, 8}) {
            StepStats mob = run(System::Mobius, cfg, server, mbs).stats;
            try {
                StepStats tp =
                    run(System::TensorParallel, cfg, server, mbs).stats;
                std::printf(
                    "%4d %11.2fs %15.2fs %12.2f %14s %14s\n", mbs,
                    mob.stepTime, tp.stepTime,
                    tp.stepTime / mob.stepTime,
                    formatBytes(mob.traffic.totalBytes()).c_str(),
                    formatBytes(tp.traffic.totalBytes()).c_str());
            } catch (const FatalError &) {
                std::printf("%4d %11.2fs %15s\n", mbs,
                            mob.stepTime, "OOM");
            }
        }
    }

    std::printf("\nScale limit:\n");
    try {
        run(System::TensorParallel, gpt51b(), server);
        std::printf("  51B TP: ran (unexpected)\n");
    } catch (const FatalError &e) {
        std::printf("  51B TP: OOM (%s)\n", e.what());
    }
    std::printf("  51B Mobius: %.2f s per step\n",
                run(System::Mobius, gpt51b(), server).stats.stepTime);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        args.rejectUnused();

        table1();
        fig2();
        table3AndFig5();
        fig6();
        fig7();
        fig8();
        fig9();
        figs10And11();
        fig12();
        fig13();
        fig14();
        figs15And16();
        ablations();
        relatedWork();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

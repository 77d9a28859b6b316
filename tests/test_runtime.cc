/**
 * @file
 * Integration tests for the executors: Mobius, ZeRO (DeepSpeed) and
 * the all-in-GPU-memory pipelines, plus the high-level API. These
 * assert the paper's qualitative results hold on the simulator.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <ostream>
#include <set>
#include <string>

#include "base/logging.hh"
#include "runtime/api.hh"
#include "simcore/trace.hh"

namespace mobius
{

/** gtest prints System params by name, not as raw bytes. */
void
PrintTo(System system, std::ostream *os)
{
    *os << systemName(system);
}

namespace
{

/** Plan + run Mobius for a Table 3 config on a commodity topology. */
StepStats
mobiusStep(const GptConfig &cfg, const std::vector<int> &groups,
           MobiusPlan *plan_out = nullptr,
           PlanOptions opts = {})
{
    Server server = makeCommodityServer(groups);
    Workload work(cfg, server);
    MobiusPlan plan = planMobius(server, work.cost(), opts);
    StepStats stats =
        runStep(System::Mobius, server, work.cost(), &plan).stats;
    if (plan_out)
        *plan_out = plan;
    return stats;
}

/**
 * One step of @p system built by hand from a RunContext and the
 * system's executor, the way runStep() is documented to build it.
 */
StepRunResult
directStep(System system, const Server &server, const CostModel &cost,
           const MobiusPlan &plan)
{
    RunContext ctx(server);
    const int n = server.topo.numGpus();
    StepStats stats;
    switch (system) {
      case System::Mobius:
        stats = MobiusExecutor(ctx, cost, plan.partition, plan.mapping)
                    .run();
        break;
      case System::DeepSpeed:
        stats = ZeroHeteroExecutor(ctx, cost).run();
        break;
      case System::GPipe:
      case System::DsPipeline:
        stats = PipelineExecutor(ctx, cost,
                                 balancedComputePartition(cost, n),
                                 sequentialMapping(server.topo, n),
                                 system == System::GPipe
                                     ? PipelineSchedule::GPipe
                                     : PipelineSchedule::OneFOneB)
                    .run();
        break;
      case System::TensorParallel:
        stats = TensorParallelExecutor(ctx, cost).run();
        break;
    }
    return {stats, ctx.trace().spanCount(),
            spanFingerprint(ctx.trace())};
}

class RunStep : public ::testing::TestWithParam<System>
{
};

TEST_P(RunStep, MatchesDirectExecutor)
{
    const System system = GetParam();
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepRunResult want = directStep(system, server, work.cost(), plan);
    StepRunResult got =
        runStep(system, server, work.cost(),
                system == System::Mobius ? &plan : nullptr);

    EXPECT_EQ(got.stats.system, want.stats.system);
    EXPECT_EQ(got.stats.stepTime, want.stats.stepTime);
    EXPECT_EQ(got.stats.traffic.totalBytes(),
              want.stats.traffic.totalBytes());
    for (int k = 0; k < static_cast<int>(TrafficKind::NumKinds); ++k) {
        const auto kind = static_cast<TrafficKind>(k);
        EXPECT_EQ(got.stats.traffic.bytesOf(kind),
                  want.stats.traffic.bytesOf(kind))
            << trafficKindName(kind);
    }
    EXPECT_GT(got.spanCount, 0u);
    EXPECT_EQ(got.spanCount, want.spanCount);
    EXPECT_EQ(got.spanHash, want.spanHash);
}

/** Test id suffix: the System enumerator's name. */
std::string
systemParamName(const ::testing::TestParamInfo<System> &info)
{
    static const char *const kNames[] = {
        "Mobius", "DeepSpeed", "GPipe", "DsPipeline", "TensorParallel"};
    return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(, RunStep, ::testing::ValuesIn(kAllSystems),
                         systemParamName);

TEST(RunStepDispatch, EverySystemRunsADistinctStep)
{
    // Guards the dispatch itself: no two systems may share an
    // executor (GPipe and 1F1B differ in schedule, so their traces
    // do too).
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    std::set<std::uint64_t> hashes;
    for (System system : kAllSystems) {
        hashes.insert(
            runStep(system, server, work.cost(),
                    system == System::Mobius ? &plan : nullptr)
                .spanHash);
    }
    EXPECT_EQ(hashes.size(), std::size(kAllSystems));
}

TEST(RunStepDispatch, InputsTheSystemWouldNotReadAreFatal)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    EXPECT_THROW(runStep(System::Mobius, server, work.cost()),
                 FatalError);
    EXPECT_THROW(runStep(System::DeepSpeed, server, work.cost(), &plan),
                 FatalError);

    StepRunOptions mobius_knob;
    mobius_knob.exec.mobius.prefetchLookahead = 0;
    EXPECT_THROW(runStep(System::DeepSpeed, server, work.cost(),
                         nullptr, mobius_knob),
                 FatalError);
    StepRunOptions zero_knob;
    zero_knob.exec.zero.layerSync = false;
    EXPECT_THROW(runStep(System::Mobius, server, work.cost(), &plan,
                         zero_knob),
                 FatalError);
    EXPECT_THROW(runStep(System::TensorParallel, server, work.cost(),
                         nullptr, zero_knob),
                 FatalError);
}

TEST(SystemName, ParseRoundTripsEverySystem)
{
    std::set<std::string> names;
    for (System system : kAllSystems) {
        EXPECT_EQ(parseSystem(systemName(system)), system);
        names.insert(systemName(system));
    }
    EXPECT_EQ(names, (std::set<std::string>{"mobius", "deepspeed",
                                            "gpipe", "dspipe", "tp"}));
    EXPECT_THROW(parseSystem("zero"), FatalError);
    EXPECT_THROW(parseSystem(""), FatalError);
}

TEST(MobiusExecutor, CompletesAndIsDeterministic)
{
    StepStats a = mobiusStep(gpt8b(), {2, 2});
    StepStats b = mobiusStep(gpt8b(), {2, 2});
    EXPECT_GT(a.stepTime, 0.0);
    EXPECT_DOUBLE_EQ(a.stepTime, b.stepTime);
    EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
}

TEST(MobiusExecutor, TrafficMatchesEq1)
{
    // Eq. 1: ~1.5x model size; with boundary activations and
    // checkpoints the paper measures ~1.8x (Fig. 6).
    for (auto cfg : {gpt8b(), gpt15b()}) {
        Server server = makeCommodityServer({2, 2});
        Workload work(cfg, server);
        MobiusPlan plan = planMobius(server, work.cost());
        StepStats s =
            runStep(System::Mobius, server, work.cost(), &plan).stats;
        double ratio =
            s.trafficRatio(work.model().totalParamBytesFp32());
        EXPECT_GT(ratio, 1.2) << cfg.name;
        EXPECT_LT(ratio, 2.2) << cfg.name;
    }
}

TEST(MobiusExecutor, ParameterTrafficTwoCopiesMinusResidentTail)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runStep(System::Mobius, server, work.cost(), &plan).stats;

    Bytes fp16 = work.model().totalParamBytesFp16();
    Bytes params = s.traffic.bytesOf(TrafficKind::Parameter);
    EXPECT_GT(params, fp16);        // more than one copy
    EXPECT_LE(params, 2 * fp16);    // at most two copies
    // Gradients land exactly once.
    EXPECT_EQ(s.traffic.bytesOf(TrafficKind::Gradient), fp16);
}

TEST(MobiusExecutor, EstimateTracksExecution)
{
    // The MIP objective ignores contention, so it may be optimistic,
    // but it must be within ~3x of the event-driven execution.
    MobiusPlan plan;
    StepStats s = mobiusStep(gpt15b(), {2, 2}, &plan);
    EXPECT_GT(s.stepTime, plan.estimate.stepTime * 0.9);
    EXPECT_LT(s.stepTime, plan.estimate.stepTime * 3.0);
}

TEST(MobiusExecutor, SingleGpuWorks)
{
    Server server = makeCommodityServer({1});
    Workload work(gpt8b(), server, -1, 2);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runStep(System::Mobius, server, work.cost(), &plan).stats;
    EXPECT_GT(s.stepTime, 0.0);
}

TEST(MobiusExecutor, EightGpusWork)
{
    StepStats s = mobiusStep(gpt15b(), {4, 4});
    EXPECT_GT(s.stepTime, 0.0);
    EXPECT_EQ(s.numGpus, 8);
}

TEST(ZeroExecutor, TrafficMatchesEq2)
{
    // Eq. 2: ~1.5N x model size (~6x at N = 4; the paper measures
    // 7.3x with framework overheads).
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    StepStats s = runStep(System::DeepSpeed, server, work.cost()).stats;
    double ratio =
        s.trafficRatio(work.model().totalParamBytesFp32());
    EXPECT_GT(ratio, 5.0);
    EXPECT_LT(ratio, 8.0);
}

TEST(ZeroExecutor, ContentionHalvesObservedBandwidth)
{
    // Fig. 2: most DeepSpeed bytes move at <= half the root-complex
    // bandwidth on Topo 2+2.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    StepStats s = runStep(System::DeepSpeed, server, work.cost()).stats;
    BandwidthCdf cdf(s.traffic.samples());
    EXPECT_LT(cdf.quantile(0.5), 0.55 * kPcie3x16Bw);
}

TEST(ZeroExecutor, LayerSyncOffStillCompletes)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    StepRunOptions opts;
    opts.exec.zero.layerSync = false;
    StepStats s =
        runStep(System::DeepSpeed, server, work.cost(), nullptr, opts)
            .stats;
    EXPECT_GT(s.stepTime, 0.0);
}

TEST(Headline, MobiusBeatsDeepSpeedOnCommodity)
{
    // The paper's main result (Fig. 5): 3.8-5.1x on commodity
    // topologies. Allow a generous band around it.
    for (auto cfg : {gpt8b(), gpt15b()}) {
        for (const auto &groups :
             {std::vector<int>{2, 2}, std::vector<int>{1, 3},
              std::vector<int>{4}}) {
            Server server = makeCommodityServer(groups);
            Workload work(cfg, server);
            MobiusPlan plan = planMobius(server, work.cost());
            StepStats mob =
                runStep(System::Mobius, server, work.cost(), &plan).stats;
            StepStats ds =
                runStep(System::DeepSpeed, server, work.cost()).stats;
            double speedup = ds.stepTime / mob.stepTime;
            EXPECT_GT(speedup, 2.5)
                << cfg.name << " groups=" << groups.size();
            EXPECT_LT(speedup, 8.0) << cfg.name;
        }
    }
}

TEST(Headline, MobiusReducesExposedCommunication)
{
    // Fig. 8: Mobius's non-overlapped communication share is well
    // below DeepSpeed's.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats mob =
        runStep(System::Mobius, server, work.cost(), &plan).stats;
    StepStats ds = runStep(System::DeepSpeed, server, work.cost()).stats;
    EXPECT_LT(mob.exposedCommFraction(),
              ds.exposedCommFraction() - 0.1);
}

TEST(Headline, MobiusBandwidthNearLinkPeak)
{
    // Fig. 7: more than half of Mobius's bytes move at > 12 GB/s.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runStep(System::Mobius, server, work.cost(), &plan).stats;
    BandwidthCdf cdf(s.traffic.samples());
    EXPECT_LT(cdf.fractionAtOrBelow(12e9), 0.5);
    EXPECT_NEAR(cdf.maxBandwidth(), kPcie3x16Bw, 0.05 * kPcie3x16Bw);
}

TEST(Pipeline, GPipeTrains3bOnly)
{
    Server server = makeCommodityServer({2, 2});
    Workload w3(gpt3b(), server);
    StepStats s = runStep(System::GPipe, server, w3.cost()).stats;
    EXPECT_GT(s.stepTime, 0.0);
    // Only activations cross the wire: tiny traffic.
    EXPECT_LT(s.trafficRatio(w3.model().totalParamBytesFp32()),
              0.05);

    for (auto cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        Workload w(cfg, server);
        EXPECT_THROW(runStep(System::GPipe, server, w.cost()),
                     FatalError)
            << cfg.name;
    }
}

TEST(Pipeline, OneFOneBNoSlowerThanGPipe)
{
    Server server = makeCommodityServer({2, 2});
    Workload w(gpt3b(), server);
    StepStats gpipe = runStep(System::GPipe, server, w.cost()).stats;
    StepStats ofob = runStep(System::DsPipeline, server, w.cost()).stats;
    EXPECT_LE(ofob.stepTime, gpipe.stepTime * 1.01);
}

TEST(Mapping, CrossMappingNoSlowerOnEightGpus)
{
    // Fig. 10: cross mapping reduces per-step time on the 8-GPU box
    // (four GPUs per root complex).
    Server server = makeCommodityServer({4, 4});
    Workload work(gpt8b(), server);
    PlanOptions cross_opts;
    cross_opts.mapping = MappingAlgo::Cross;
    PlanOptions seq_opts;
    seq_opts.mapping = MappingAlgo::Sequential;
    MobiusPlan cross = planMobius(server, work.cost(), cross_opts);
    MobiusPlan seq = planMobius(server, work.cost(), seq_opts);
    StepStats sc =
        runStep(System::Mobius, server, work.cost(), &cross).stats;
    StepStats ss = runStep(System::Mobius, server, work.cost(), &seq).stats;
    EXPECT_LE(sc.stepTime, ss.stepTime * 1.001);
}

TEST(PartitionAblation, MipNoSlowerThanBaselinesExecuted)
{
    // Fig. 9 direction: MIP partition executes no slower than the
    // min/max-stage baselines (checked on the event simulator, not
    // just the analytic objective).
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    auto run = [&](PartitionAlgo algo) {
        PlanOptions opts;
        opts.partition = algo;
        MobiusPlan plan = planMobius(server, work.cost(), opts);
        return runStep(System::Mobius, server, work.cost(), &plan)
            .stats.stepTime;
    };
    double mip = run(PartitionAlgo::Mip);
    double maxs = run(PartitionAlgo::MaxStage);
    EXPECT_LE(mip, maxs * 1.05);
}

TEST(DataCenter, DeepSpeedCompetitiveWithNvlink)
{
    // §4.8: with NVLink + P2P, DeepSpeed improves dramatically and
    // beats Mobius (which still streams stages over PCIe).
    Server dc = makeDataCenterServer(4);
    Workload work(gpt8b(), dc, 2);
    MobiusPlan plan = planMobius(dc, work.cost());
    StepStats mob = runStep(System::Mobius, dc, work.cost(), &plan).stats;
    StepStats ds = runStep(System::DeepSpeed, dc, work.cost()).stats;
    EXPECT_LT(ds.stepTime, mob.stepTime);

    // And both beat the commodity box in absolute time.
    Server c = makeCommodityServer({2, 2});
    Workload cw(gpt8b(), c, 2);
    StepStats cds = runStep(System::DeepSpeed, c, cw.cost()).stats;
    EXPECT_LT(ds.stepTime, cds.stepTime);
}

TEST(DataCenter, PricePerStepFavoursCommodity)
{
    // Fig. 15b: Mobius on the commodity box costs less per step than
    // DeepSpeed on the data-center server.
    Server dc = makeDataCenterServer(4);
    Workload dwork(gpt15b(), dc, 2);
    StepStats ds_dc = runStep(System::DeepSpeed, dc, dwork.cost()).stats;
    double dc_price = ds_dc.stepTime / 3600.0 * dc.dollarsPerHour;

    Server c = makeCommodityServer({2, 2});
    Workload cwork(gpt15b(), c, 2);
    MobiusPlan plan = planMobius(c, cwork.cost());
    StepStats mob_c = runStep(System::Mobius, c, cwork.cost(), &plan).stats;
    double c_price = mob_c.stepTime / 3600.0 * c.dollarsPerHour;

    EXPECT_LT(c_price, dc_price);
}

TEST(Scalability, ThroughputScalesWithGpus)
{
    // Fig. 14: batch grows with GPU count (M = N), throughput
    // (samples/s) scales at least linearly from 2 to 8 GPUs.
    auto throughput = [&](int gpus) {
        Server server =
            makeCommodityServer({gpus / 2, gpus - gpus / 2});
        Workload work(gpt15b(), server, 1, gpus);
        MobiusPlan plan = planMobius(server, work.cost());
        StepStats s =
            runStep(System::Mobius, server, work.cost(), &plan).stats;
        return gpus * 1.0 / s.stepTime;
    };
    double t2 = throughput(2);
    double t4 = throughput(4);
    double t8 = throughput(8);
    EXPECT_GT(t4, t2 * 1.6);
    EXPECT_GT(t8, t4 * 1.6);
}

TEST(GpuMemoryLedger, BasicInvariants)
{
    GpuMemory mem(1000);
    EXPECT_TRUE(mem.tryAlloc(600));
    EXPECT_FALSE(mem.tryAlloc(500));
    EXPECT_EQ(mem.available(), 400u);
    mem.free(100);
    EXPECT_EQ(mem.used(), 500u);
    EXPECT_EQ(mem.peak(), 600u);
    EXPECT_THROW(mem.alloc(600), FatalError);
}

TEST(GpuMemoryLedger, PeaksStayWithinCapacityDuringRun)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    RunContext ctx(server);
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    exec.run();
    for (int g = 0; g < ctx.numGpus(); ++g) {
        EXPECT_LE(ctx.memory(g).peak(), ctx.memory(g).capacity());
        EXPECT_EQ(ctx.memory(g).used(), 0u); // everything freed
    }
}

TEST(Workload, DefaultsFollowTable3AndServer)
{
    Server server = makeCommodityServer({2, 2});
    Workload w(gpt15b(), server);
    EXPECT_EQ(w.train().microbatchSize, 1);
    EXPECT_EQ(w.train().numMicrobatches, 4);
    Workload w2(gpt8b(), server, 4, 8);
    EXPECT_EQ(w2.train().microbatchSize, 4);
    EXPECT_EQ(w2.train().numMicrobatches, 8);
}

TEST(Plan, OverheadFieldsPopulated)
{
    Server server = makeCommodityServer({1, 3});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    EXPECT_GT(plan.profilingSeconds, 0.0);
    EXPECT_GE(plan.solveSeconds, 0.0);
    EXPECT_GE(plan.mappingSeconds, 0.0);
    EXPECT_EQ(plan.profiledLayers, 4); // layer similarity
}

TEST(Plan, Gpt51bPlansAndRuns)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt51b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats s = runStep(System::Mobius, server, work.cost(), &plan).stats;
    EXPECT_GT(s.stepTime, 0.0);
}

} // namespace
} // namespace mobius

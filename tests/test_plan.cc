/**
 * @file
 * Tests for partitioning, the pipeline schedule evaluator, the
 * partition algorithms and the stage mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>

#include "alloc_counter.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "hw/server.hh"
#include "mapping_reference.hh"
#include "partition_reference.hh"
#include "pipeline_cost_reference.hh"
#include "plan/mapping.hh"
#include "plan/partition_algos.hh"
#include "plan/partition_mip.hh"
#include "plan/pipeline_cost.hh"

namespace mobius
{
namespace
{

/** Uniform toy model: @p layers identical blocks. */
ModelDesc
toyModel(int layers, std::uint64_t params_per_layer = 100'000'000,
         Bytes act = 8 * MiB, double flops = 3e12)
{
    ModelDesc m;
    m.name = "toy";
    m.seqLen = 512;
    m.hidden = 1024;
    m.heads = 8;
    for (int i = 0; i < layers; ++i) {
        LayerDesc l;
        l.name = "l" + std::to_string(i);
        l.type = LayerType::TransformerBlock;
        l.paramCount = params_per_layer;
        l.fwdFlopsPerSample = flops;
        l.actBytesPerSample = act;
        l.workBytesPerSample = 32 * MiB;
        l.similarityClass = 0;
        m.layers.push_back(l);
    }
    return m;
}

/** Owns the model/cost/evaluator chain (they hold pointers). */
struct ToyEnv
{
    ToyEnv(int layers, int gpus, int microbatches, Bytes gpu_mem)
        : model(toyModel(layers)),
          cost(model, rtx3090Ti(),
               TrainConfig{1, microbatches, true, 0.45, 30e-6}),
          eval(cost, PipelineEnv{gpus, gpu_mem, 13.1e9, true})
    {}

    ModelDesc model;
    CostModel cost;
    PipelineCostEvaluator eval;
};

ToyEnv *
makeToy(int layers, int gpus, int microbatches, Bytes gpu_mem)
{
    return new ToyEnv(layers, gpus, microbatches, gpu_mem);
}

TEST(Partition, ValidityChecks)
{
    EXPECT_TRUE(partitionValid({{0, 3}, {3, 5}}, 5));
    EXPECT_FALSE(partitionValid({{0, 3}, {3, 5}}, 6)); // not covering
    EXPECT_FALSE(partitionValid({{0, 3}, {4, 5}}, 5)); // gap
    EXPECT_FALSE(partitionValid({{0, 3}, {2, 5}}, 5)); // overlap
    EXPECT_FALSE(partitionValid({{0, 0}, {0, 5}}, 5)); // empty stage
    EXPECT_FALSE(partitionValid({}, 0));
}

TEST(Partition, UniformSplitsEvenly)
{
    Partition p = uniformPartition(10, 4);
    EXPECT_EQ(partitionToString(p), "3|3|2|2");
    EXPECT_TRUE(partitionValid(p, 10));
    EXPECT_EQ(uniformPartition(8, 4).size(), 4u);
    EXPECT_EQ(partitionToString(uniformPartition(8, 4)), "2|2|2|2");
}

TEST(Partition, FromSizesRoundTrips)
{
    Partition p = partitionFromSizes({2, 5, 1});
    EXPECT_TRUE(partitionValid(p, 8));
    EXPECT_EQ(p[1].lo, 2);
    EXPECT_EQ(p[1].hi, 7);
    EXPECT_EQ(partitionToString(p), "2|5|1");
}

class EvaluatorTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // 8 layers, 2 GPUs, 2 microbatches, roomy memory.
        env_.reset(makeToy(8, 2, 2, 4 * GiB));
    }

    std::unique_ptr<ToyEnv> env_;
};

TEST_F(EvaluatorTest, FeasibleUniformPartition)
{
    auto est = env_->eval.evaluate(uniformPartition(8, 4));
    ASSERT_TRUE(est.feasible) << est.infeasibleReason;
    EXPECT_GT(est.stepTime, 0.0);
    ASSERT_EQ(est.stages.size(), 4u);

    // Pipeline-order invariants (Eq. 8/10/11).
    for (std::size_t j = 1; j < est.stages.size(); ++j) {
        EXPECT_GE(est.stages[j].fwdStart, est.stages[j - 1].fwdStart);
        EXPECT_LE(est.stages[j].bwdEnd, est.stages[j - 1].bwdEnd);
    }
    EXPECT_GE(est.stages.back().bwdStart,
              est.stages.back().fwdEnd - 1e-12);
    EXPECT_GE(est.stepTime, est.stages.front().bwdEnd);
}

TEST_F(EvaluatorTest, OversizedStageInfeasible)
{
    ToyEnv *tight = makeToy(8, 2, 2, 1 * GiB);
    // One 8-layer stage needs ~1.6 GiB of weights alone.
    auto est = tight->eval.evaluate(uniformPartition(8, 2));
    EXPECT_FALSE(est.feasible);
    EXPECT_FALSE(est.infeasibleReason.empty());
    delete tight;
}

TEST_F(EvaluatorTest, MoreMemoryNeverHurts)
{
    ToyEnv *small = makeToy(8, 2, 2, 2 * GiB);
    ToyEnv *big = makeToy(8, 2, 2, 8 * GiB);
    Partition p = uniformPartition(8, 4);
    auto est_small = small->eval.evaluate(p);
    auto est_big = big->eval.evaluate(p);
    ASSERT_TRUE(est_small.feasible);
    ASSERT_TRUE(est_big.feasible);
    EXPECT_LE(est_big.stepTime, est_small.stepTime + 1e-12);
    delete small;
    delete big;
}

TEST_F(EvaluatorTest, PrefetchReportedWithinLimits)
{
    auto est = env_->eval.evaluate(uniformPartition(8, 8));
    ASSERT_TRUE(est.feasible);
    const auto &cm = env_->eval.cost();
    for (int j = 2; j < 8; ++j) {
        Bytes w = cm.rangeParamBytes(j, j + 1);
        EXPECT_LE(est.stages[j].prefetchedFwd, w);
    }
}

TEST_F(EvaluatorTest, CommBytesTracksParameters)
{
    auto est = env_->eval.evaluate(uniformPartition(8, 4));
    ASSERT_TRUE(est.feasible);
    Bytes fp16 = env_->eval.cost().model().totalParamBytesFp16();
    // At least weights once + most of them twice + grads.
    EXPECT_GT(est.commBytes, fp16);
    EXPECT_LT(est.commBytes,
              3 * fp16 + 100 * MiB * 8ULL * 4ULL);
}

TEST_F(EvaluatorTest, ResidentTailSkipsReload)
{
    // keepResidentTail=false must not be faster.
    ToyEnv *nores = makeToy(8, 2, 2, 4 * GiB);
    PipelineEnv env = nores->eval.env();
    env.keepResidentTail = false;
    PipelineCostEvaluator ev2(nores->eval.cost(), env);
    Partition p = uniformPartition(8, 4);
    auto with = env_->eval.evaluate(p);
    auto without = ev2.evaluate(p);
    EXPECT_LE(with.stepTime, without.stepTime + 1e-12);
    EXPECT_TRUE(with.stages[3].residentForBwd);
    EXPECT_FALSE(without.stages[3].residentForBwd);
    delete nores;
}

TEST(PartitionAlgos, MipMatchesBruteForceOnToys)
{
    struct Case
    {
        int layers, gpus, microbatches;
        Bytes mem;
    };
    for (const Case &c : {Case{6, 2, 2, 2 * GiB},
                          Case{8, 2, 4, 2 * GiB},
                          Case{9, 3, 3, 1 * GiB},
                          Case{10, 2, 2, 1 * GiB}}) {
        std::unique_ptr<ToyEnv> t(
            makeToy(c.layers, c.gpus, c.microbatches, c.mem));
        auto brute = bruteForcePartition(t->eval);
        auto mip = mipPartition(t->eval);
        ASSERT_TRUE(mip.estimate.feasible);
        // The search must find the true optimum step time (partitions
        // may differ when tied).
        EXPECT_NEAR(mip.estimate.stepTime, brute.estimate.stepTime,
                    1e-9 + brute.estimate.stepTime * 1e-6)
            << "L=" << c.layers << " N=" << c.gpus;
        EXPECT_LT(mip.evaluated, brute.evaluated);
    }
}

TEST(PartitionAlgos, MinStageOneBlockPerStage)
{
    ModelDesc m = makeGptModel(gpt8b());
    TrainConfig tc;
    tc.microbatchSize = 2;
    CostModel cost(m, rtx3090Ti(), tc);
    PipelineCostEvaluator eval(
        cost, PipelineEnv{4, rtx3090Ti().memBytes, 13.1e9, true});
    auto r = minStagePartition(eval);
    // 40 blocks -> 40 stages; embedding/norm/head folded in.
    EXPECT_EQ(r.partition.size(), 40u);
    EXPECT_TRUE(partitionValid(r.partition, m.numLayers()));
    // First stage holds embedding + block0.
    EXPECT_EQ(r.partition.front().size(), 2);
    // Last stage holds block39 + norm + head.
    EXPECT_EQ(r.partition.back().size(), 3);
}

TEST(PartitionAlgos, MaxStageFillsMemory)
{
    ModelDesc m = makeGptModel(gpt15b());
    TrainConfig tc;
    tc.microbatchSize = 1;
    CostModel cost(m, rtx3090Ti(), tc);
    Bytes g = rtx3090Ti().memBytes;
    PipelineCostEvaluator eval(cost, PipelineEnv{4, g, 13.1e9, true});
    auto r = maxStagePartition(eval);
    EXPECT_TRUE(partitionValid(r.partition, m.numLayers()));
    for (std::size_t j = 0; j < r.partition.size(); ++j) {
        const auto &s = r.partition[j];
        EXPECT_LE(cost.stageMemBwd(s.lo, s.hi), g);
        // Maximality: the next layer would not have fit.
        if (s.hi < m.numLayers()) {
            EXPECT_TRUE(cost.stageMemFwd(s.lo, s.hi + 1) > g ||
                        cost.stageMemBwd(s.lo, s.hi + 1) > g);
        }
    }
}

TEST(PartitionAlgos, MipBeatsOrMatchesBaselines)
{
    // The §4.3 claim: MIP partition is never worse than either
    // baseline under the shared objective.
    for (auto cfg : {gpt8b(), gpt15b()}) {
        ModelDesc m = makeGptModel(cfg);
        TrainConfig tc;
        tc.microbatchSize = cfg.microbatchSize;
        CostModel cost(m, rtx3090Ti(), tc);
        PipelineCostEvaluator eval(
            cost,
            PipelineEnv{4, rtx3090Ti().memBytes, 13.1e9, true});
        auto mip = mipPartition(eval);
        auto mins = minStagePartition(eval);
        auto maxs = maxStagePartition(eval);
        ASSERT_TRUE(mip.estimate.feasible);
        if (mins.estimate.feasible) {
            EXPECT_LE(mip.estimate.stepTime,
                      mins.estimate.stepTime + 1e-9);
        }
        if (maxs.estimate.feasible) {
            EXPECT_LE(mip.estimate.stepTime,
                      maxs.estimate.stepTime + 1e-9);
        }
    }
}

TEST(PartitionMip, FaithfulMipAgreesWithBruteForce)
{
    // Small uniform model; evaluator without the resident-tail
    // optimisation (the literal Eq. 3-11 system reloads weights).
    std::unique_ptr<ToyEnv> t(makeToy(4, 2, 2, 2 * GiB));
    PipelineEnv env = t->eval.env();
    env.keepResidentTail = false;
    PipelineCostEvaluator eval(t->eval.cost(), env);

    auto brute = bruteForcePartition(eval);
    MipOptions opts;
    opts.maxNodes = 60000;
    auto exact = exactMipPartition(eval, 4, opts);
    ASSERT_TRUE(exact.solved);
    EXPECT_TRUE(partitionValid(exact.partition, 4));

    // The MIP can exploit schedule slack the greedy evaluator does
    // not (delaying a stage to lengthen a prefetch window), so its
    // makespan is at most the brute-force one, and close to it.
    EXPECT_LE(exact.objective, brute.estimate.stepTime + 1e-6);
    EXPECT_GT(exact.objective, brute.estimate.stepTime * 0.8);

    // And the evaluator agrees the decoded partition is good.
    auto est = eval.evaluate(exact.partition);
    ASSERT_TRUE(est.feasible);
    EXPECT_LE(est.stepTime, brute.estimate.stepTime * 1.1);
}

/** @return true when @p a and @p b have the same bit pattern. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Expect @p got to equal the frozen evaluator's @p want, bit for bit. */
void
expectSameEstimate(const PipelineEstimate &got,
                   const PipelineEstimate &want, const std::string &what)
{
    EXPECT_EQ(got.feasible, want.feasible) << what;
    EXPECT_EQ(got.infeasibleReason, want.infeasibleReason) << what;
    EXPECT_TRUE(sameBits(got.stepTime, want.stepTime))
        << what << ": " << got.stepTime << " vs " << want.stepTime;
    EXPECT_EQ(got.commBytes, want.commBytes) << what;
    ASSERT_EQ(got.stages.size(), want.stages.size()) << what;
    for (std::size_t j = 0; j < want.stages.size(); ++j) {
        const StageSchedule &g = got.stages[j];
        const StageSchedule &w = want.stages[j];
        const std::string at = what + ", stage " + std::to_string(j);
        EXPECT_TRUE(sameBits(g.fwdStart, w.fwdStart)) << at;
        EXPECT_TRUE(sameBits(g.fwdEnd, w.fwdEnd)) << at;
        EXPECT_TRUE(sameBits(g.bwdStart, w.bwdStart)) << at;
        EXPECT_TRUE(sameBits(g.bwdEnd, w.bwdEnd)) << at;
        EXPECT_TRUE(sameBits(g.fwdReady, w.fwdReady)) << at;
        EXPECT_TRUE(sameBits(g.bwdReady, w.bwdReady)) << at;
        EXPECT_EQ(g.prefetchedFwd, w.prefetchedFwd) << at;
        EXPECT_EQ(g.prefetchedBwd, w.prefetchedBwd) << at;
        EXPECT_EQ(g.residentForBwd, w.residentForBwd) << at;
    }
}

/** A server of the oracle sweep. */
struct OracleServer
{
    const char *name;     //!< test-name suffix
    Server (*make)();     //!< builder
};

const OracleServer kOracleServers[] = {
    {"Commodity22", [] { return makeCommodityServer({2, 2}); }},
    {"Commodity44", [] { return makeCommodityServer({4, 4}); }},
    {"Commodity13", [] { return makeCommodityServer({1, 3}); }},
    {"Commodity88", [] { return makeCommodityServer({8, 8}); }},
    {"DataCenter4", [] { return makeDataCenterServer(4); }},
};

/** A random composition of @p layers into 1..layers stages. */
Partition
randomPartition(Rng &rng, int layers)
{
    const int stages = 1 + static_cast<int>(rng.below(layers));
    // Distinct cut points among the layers - 1 interior boundaries.
    std::vector<int> cuts(static_cast<std::size_t>(layers - 1));
    std::iota(cuts.begin(), cuts.end(), 1);
    for (int k = 0; k < stages - 1; ++k)
        std::swap(cuts[k], cuts[k + rng.below(cuts.size() - k)]);
    cuts.resize(static_cast<std::size_t>(stages - 1));
    std::sort(cuts.begin(), cuts.end());
    Partition p;
    int lo = 0;
    for (int c : cuts) {
        p.push_back(StageRange{lo, c});
        lo = c;
    }
    p.push_back(StageRange{lo, layers});
    return p;
}

/** Feasible and infeasible partitions an oracle sweep evaluated. */
struct OracleCoverage
{
    int feasible = 0;
    int infeasible = 0;
};

/**
 * Expect the evaluator and searches over (@p cost, @p env) to
 * reproduce the frozen ones bit for bit: every uniform split and 24
 * random compositions, five stage counts of the heuristic, and the
 * full search.
 */
void
expectMatchesFrozen(const CostModel &cost, const PipelineEnv &env,
                    Rng &rng, const std::string &what,
                    OracleCoverage &coverage)
{
    const PipelineCostEvaluator eval(cost, env);
    const reference::PipelineCostEvaluator ref(cost, env);
    const int L = cost.numLayers();
    const int N = env.numGpus;

    std::vector<Partition> parts;
    for (int s = 1; s <= L; ++s)
        parts.push_back(uniformPartition(L, s));
    for (int k = 0; k < 24; ++k)
        parts.push_back(randomPartition(rng, L));
    PipelineScratch scratch;
    for (const Partition &p : parts) {
        const std::string at = what + ", " + partitionToString(p);
        const PipelineEstimate want = ref.evaluate(p);
        expectSameEstimate(eval.evaluate(p), want, at);
        const double t = eval.stepTime(p, scratch);
        if (want.feasible) {
            ++coverage.feasible;
            EXPECT_TRUE(sameBits(t, want.stepTime)) << at;
        } else {
            ++coverage.infeasible;
            EXPECT_EQ(t, std::numeric_limits<double>::infinity()) << at;
        }
    }

    for (int s : {N, N + 1, 2 * N, L / 2, L}) {
        if (s > L)
            continue;
        int got_n = 0, want_n = 0;
        EXPECT_EQ(heuristicPartitionForStages(eval, s, &got_n),
                  reference::heuristicPartitionForStages(ref, s,
                                                         &want_n))
            << what << ", " << s << " stages";
        EXPECT_EQ(got_n, want_n) << what << ", " << s << " stages";
    }

    bool got_fatal = false, want_fatal = false;
    PartitionResult got, want;
    try {
        got = mipPartition(eval);
    } catch (const FatalError &) {
        got_fatal = true;
    }
    try {
        want = reference::mipPartition(ref);
    } catch (const FatalError &) {
        want_fatal = true;
    }
    ASSERT_EQ(got_fatal, want_fatal) << what;
    EXPECT_EQ(got.partition, want.partition) << what;
    EXPECT_EQ(got.evaluated, want.evaluated) << what;
    expectSameEstimate(got.estimate, want.estimate, what);
}

/** Parameter: an index into kOracleServers (one ctest per server). */
class PipelineCostOracle : public ::testing::TestWithParam<int>
{};

TEST_P(PipelineCostOracle, TableModelsMatchFrozenEvaluatorAndSearch)
{
    // Every Table-3 model, at M = N, M = 3 and M = 1 microbatches
    // (where the first microbatch's row is the whole schedule), with
    // the resident tail on and off.
    const Server server = kOracleServers[GetParam()].make();
    const int N = server.topo.numGpus();
    const GpuSpec &gpu = server.topo.gpuSpec(0);
    Rng rng(16 + static_cast<std::uint64_t>(GetParam()));
    OracleCoverage coverage;
    for (const GptConfig &cfg : table3Models()) {
        const ModelDesc model = makeGptModel(cfg);
        for (int microbatches : {N, 3, 1}) {
            TrainConfig tc;
            tc.microbatchSize = cfg.microbatchSize;
            tc.numMicrobatches = microbatches;
            const CostModel cost(model, gpu, tc);
            for (bool tail : {true, false}) {
                expectMatchesFrozen(
                    cost, PipelineEnv{N, gpu.memBytes, kPcie3x16Bw, tail},
                    rng,
                    strfmt("%s, %s, M=%d, tail=%d", server.name.c_str(),
                           cfg.name.c_str(), microbatches, tail),
                    coverage);
            }
        }
    }
    // Both sides of Eq. 4 were exercised.
    EXPECT_GT(coverage.feasible, 0);
    EXPECT_GT(coverage.infeasible, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Servers, PipelineCostOracle,
    ::testing::Range(0, static_cast<int>(std::size(kOracleServers))),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(kOracleServers[info.param].name);
    });

TEST(PipelineCostOracleToys, ToySearchesMatchFrozenSearch)
{
    // The toy shapes of MipMatchesBruteForceOnToys, where tight
    // memory makes many hill-climb moves infeasible.
    struct Case
    {
        int layers, gpus, microbatches;
        Bytes mem;
    };
    for (const Case &c : {Case{6, 2, 2, 2 * GiB},
                          Case{8, 2, 4, 2 * GiB},
                          Case{9, 3, 3, 1 * GiB},
                          Case{10, 2, 2, 1 * GiB}}) {
        std::unique_ptr<ToyEnv> t(
            makeToy(c.layers, c.gpus, c.microbatches, c.mem));
        const reference::PipelineCostEvaluator ref(t->cost,
                                                   t->eval.env());
        auto got = mipPartition(t->eval);
        auto want = reference::mipPartition(ref);
        const std::string what = strfmt("L=%d N=%d", c.layers, c.gpus);
        EXPECT_EQ(got.partition, want.partition) << what;
        EXPECT_EQ(got.evaluated, want.evaluated) << what;
        expectSameEstimate(got.estimate, want.estimate, what);
        auto brute = bruteForcePartition(t->eval);
        expectSameEstimate(brute.estimate,
                           ref.evaluate(brute.partition), what);
    }
}

TEST(PipelineCostAlloc, StepTimeAllocatesNothingAfterWarmUp)
{
    // GPT-8B on Topo 4+4, the train_4p4 planning problem.
    const Server server = makeCommodityServer({4, 4});
    const GptConfig cfg = gpt8b();
    const ModelDesc model = makeGptModel(cfg);
    TrainConfig tc;
    tc.microbatchSize = cfg.microbatchSize;
    tc.numMicrobatches = 8;
    const CostModel cost(model, server.topo.gpuSpec(0), tc);
    const PipelineCostEvaluator eval(
        cost, PipelineEnv{8, server.topo.gpuSpec(0).memBytes,
                          kPcie3x16Bw, true});
    const int L = model.numLayers();
    // Largest first, so the warm-up call grows the scratch for all;
    // one stage of the whole model is infeasible.
    const std::vector<Partition> parts = {
        uniformPartition(L, L), uniformPartition(L, 8),
        uniformPartition(L, 17), uniformPartition(L, 1)};
    PipelineScratch scratch;
    double sink = eval.stepTime(parts.front(), scratch);

    const std::size_t before = g_new_calls.load();
    for (int i = 0; i < 1000; ++i)
        sink += eval.stepTime(parts[i % parts.size()], scratch);
    EXPECT_EQ(g_new_calls.load() - before, 0u);
    EXPECT_TRUE(std::isinf(sink));

    // The counter sees the full evaluation's allocations.
    const std::size_t full = g_new_calls.load();
    PipelineEstimate est = eval.evaluate(parts[1]);
    EXPECT_TRUE(est.feasible);
    EXPECT_GT(g_new_calls.load() - full, 0u);
}

TEST(Mapping, ContentionDegreeHandComputed)
{
    Server s = makeCommodityServer({2, 2});
    // Sequential order, 4 stages: stages 0,1 on GPUs 0,1 (shared=2,
    // distance 1) and stages 2,3 on GPUs 2,3 -> degree 4.
    EXPECT_NEAR(contentionDegree(s.topo, {0, 1, 2, 3}, 4), 4.0,
                1e-12);
    // Alternating order: shared pairs at distance 2 -> degree 2.
    EXPECT_NEAR(contentionDegree(s.topo, {0, 2, 1, 3}, 4), 2.0,
                1e-12);
}

TEST(Mapping, CrossMappingBeatsSequentialOn22)
{
    Server s = makeCommodityServer({2, 2});
    const int stages = 8;
    Mapping seq = sequentialMapping(s.topo, stages);
    MappingResult cross = crossMapping(s.topo, stages);
    EXPECT_LT(cross.mapping.contention, seq.contention);
    EXPECT_EQ(cross.evaluated, 6); // 4!/(2!·2!) label sequences
    // Adjacent stages land under different root complexes.
    for (int j = 0; j + 1 < stages; ++j) {
        int a = cross.mapping.gpuOf(j);
        int b = cross.mapping.gpuOf(j + 1);
        EXPECT_EQ(s.topo.sharedRootComplexDegree(a, b), 0);
    }
}

TEST(Mapping, CrossMappingIndifferentOnTopo4)
{
    // All GPUs share one root complex: every order scores equally,
    // search returns the identity.
    Server s = makeCommodityServer({4});
    MappingResult cross = crossMapping(s.topo, 8);
    Mapping seq = sequentialMapping(s.topo, 8);
    EXPECT_NEAR(cross.mapping.contention, seq.contention, 1e-12);
    EXPECT_EQ(cross.mapping.gpuOrder, (std::vector<int>{0, 1, 2, 3}));
}

TEST(MappingDeathTest, CrossMappingPanicsWithoutGpus)
{
    Topology empty;
    EXPECT_DEATH(crossMapping(empty, 4), "no GPUs");
}

/**
 * Expect crossMapping() to choose the brute-force oracle's order with
 * a bit-identical contention degree.
 */
void
expectMatchesOracle(const Topology &topo, int stages,
                    const std::string &what)
{
    Mapping want = reference::bruteForceCrossMapping(topo, stages);
    Mapping got = crossMapping(topo, stages).mapping;
    EXPECT_EQ(got.gpuOrder, want.gpuOrder) << what;
    EXPECT_EQ(std::memcmp(&got.contention, &want.contention,
                          sizeof(double)),
              0)
        << what << ": " << got.contention << " vs "
        << want.contention;
}

/** A stage count of the oracle sweep, as a function of the GPUs. */
struct OracleStages
{
    const char *name;  //!< test-name suffix
    int (*of)(int n);  //!< stage count for n GPUs
};

/** The stage counts every oracle comparison sweeps. */
const OracleStages kOracleStages[] = {
    {"S1", [](int) { return 1; }},
    {"S2", [](int) { return 2; }},
    {"S3", [](int) { return 3; }},
    {"NMinus1", [](int n) { return n - 1; }},
    {"N", [](int n) { return n; }},
    {"NPlus1", [](int n) { return n + 1; }},
    {"TwoNPlus3", [](int n) { return 2 * n + 3; }},
    {"S11", [](int) { return 11; }},
    {"S43", [](int) { return 43; }},
    {"S53", [](int) { return 53; }},
};

/** Every group shape of @p n GPUs: ordered group sizes summing to n. */
std::vector<std::vector<int>>
compositions(int n)
{
    std::vector<std::vector<int>> out;
    // Bit b of mask set: a group ends after GPU b.
    for (unsigned mask = 0; mask < (1u << (n - 1)); ++mask) {
        std::vector<int> groups{1};
        for (int b = 0; b + 1 < n; ++b) {
            if (mask & (1u << b))
                groups.push_back(1);
            else
                ++groups.back();
        }
        out.push_back(std::move(groups));
    }
    return out;
}

/** Parameter: an index into kOracleStages (one ctest per count). */
class CrossMappingOracle : public ::testing::TestWithParam<int>
{};

TEST_P(CrossMappingOracle, EveryCommodityShapeUpTo8Gpus)
{
    // Every group shape and every ordering of its groups on 1-8 GPUs:
    // the commodity builder numbers GPUs group by group, so each
    // composition is one shape in one group order.
    const OracleStages &stages_of = kOracleStages[GetParam()];
    for (int n = 1; n <= 8; ++n) {
        const int stages = stages_of.of(n);
        for (const auto &groups : compositions(n)) {
            Server s = makeCommodityServer(groups);
            expectMatchesOracle(s.topo, stages,
                                s.name + ", " +
                                    std::to_string(stages) +
                                    " stages");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Stages, CrossMappingOracle,
    ::testing::Range(0, static_cast<int>(std::size(kOracleStages))),
    [](const ::testing::TestParamInfo<int> &info) {
        return std::string(kOracleStages[info.param].name);
    });

/**
 * A hand-built topology of @p gpus >= 2 GPUs over 2-4 root complexes.
 * GPUs are numbered in a random root-complex order, so groups mostly
 * interleave, and each hangs below a random chain of shared or fresh
 * switches.
 */
Topology
randomTopology(Rng &rng, int gpus)
{
    Topology topo;
    const int num_rc =
        2 + static_cast<int>(rng.below(std::min(gpus, 4) - 1));
    // Attachment points per root complex: itself plus its switches.
    std::vector<std::vector<int>> points;
    for (int r = 0; r < num_rc; ++r)
        points.push_back(
            {topo.addRootComplex(strfmt("rc%d", r), kPcie3x16Bw)});
    // Each root complex gets one GPU, the rest go anywhere; shuffle.
    std::vector<int> owner;
    for (int g = 0; g < gpus; ++g)
        owner.push_back(g < num_rc ? g
                                   : static_cast<int>(
                                         rng.below(num_rc)));
    for (int g = gpus - 1; g > 0; --g)
        std::swap(owner[g], owner[rng.below(g + 1)]);

    int switches = 0;
    for (int g = 0; g < gpus; ++g) {
        auto &pts = points[owner[g]];
        int parent = pts[rng.below(pts.size())];
        while (rng.below(2) == 0) {
            parent = topo.addSwitch(parent, strfmt("sw%d", switches++),
                                    kPcie3x16Bw);
            pts.push_back(parent);
        }
        topo.addGpu(parent, strfmt("gpu%d", g), kPcie3x16Bw,
                    rtx3090Ti());
    }
    return topo;
}

/** @return true when some root complex's GPUs are not numbered
 *  consecutively. */
bool
interleaves(const Topology &topo)
{
    for (int g = 1; g < topo.numGpus(); ++g) {
        int rc = topo.rootComplexOf(g);
        if (rc != topo.rootComplexOf(g - 1) &&
            topo.gpusUnderRootComplex(rc).front() < g)
            return true;
    }
    return false;
}

TEST(CrossMappingOracleRandom, InterleavedHandBuiltTopologies)
{
    Rng rng(20231);
    int interleaved = 0;
    for (int trial = 0; trial < 40; ++trial) {
        const int gpus = 2 + static_cast<int>(rng.below(7));
        Topology topo = randomTopology(rng, gpus);
        interleaved += interleaves(topo);
        for (int k = 0; k < 3; ++k) {
            int stages = kOracleStages[rng.below(
                                           std::size(kOracleStages))]
                             .of(gpus);
            expectMatchesOracle(topo, stages,
                                strfmt("trial %d, %d GPUs, %d stages",
                                       trial, gpus, stages));
        }
    }
    // The commodity sweep covers consecutive numbering; most trials
    // here must not (28 of 40 interleave with this seed).
    EXPECT_GE(interleaved, 20);
}

/** shared(g1, g2) of @p topo as the frozen sum's nested table. */
std::vector<std::vector<int>>
sharedTable(const Topology &topo)
{
    const int n = topo.numGpus();
    std::vector<std::vector<int>> shared(
        static_cast<std::size_t>(n),
        std::vector<int>(static_cast<std::size_t>(n), 0));
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b)
            shared[a][b] = topo.sharedRootComplexDegree(a, b);
    }
    return shared;
}

TEST(Mapping, ContentionDegreeMatchesFrozenSum)
{
    // Five topologies: four commodity shapes and one whose root
    // complexes interleave in GPU numbering (rc0 rc1 rc0 rc2 rc1 rc0).
    std::vector<std::pair<std::string, Topology>> topos;
    for (const std::vector<int> &groups :
         {std::vector<int>{2, 2}, {4, 4}, {1, 3}, {8, 8}}) {
        Server s = makeCommodityServer(groups);
        topos.emplace_back(s.name, s.topo);
    }
    Topology mixed;
    std::vector<int> rcs;
    for (int r = 0; r < 3; ++r)
        rcs.push_back(mixed.addRootComplex(strfmt("rc%d", r),
                                           kPcie3x16Bw));
    int g = 0;
    for (int r : {0, 1, 0, 2, 1, 0})
        mixed.addGpu(rcs[r], strfmt("gpu%d", g++), kPcie3x16Bw,
                     rtx3090Ti());
    ASSERT_TRUE(interleaves(mixed));
    topos.emplace_back("interleaved", mixed);

    Rng rng(13);
    for (const auto &[name, topo] : topos) {
        const auto shared = sharedTable(topo);
        const int n = topo.numGpus();
        std::vector<int> order(static_cast<std::size_t>(n));
        for (int k = 0; k < 200; ++k) {
            std::iota(order.begin(), order.end(), 0);
            for (int i = n - 1; i > 0; --i)
                std::swap(order[i], order[rng.below(i + 1)]);
            for (int stages : {0, 1, n - 1, n, n + 1, 80}) {
                const double got =
                    contentionDegree(topo, order, stages);
                const double want = reference::bruteForceDegree(
                    shared, order, stages);
                EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
                    << name << ", order " << k << ", " << stages
                    << " stages: " << got << " vs " << want;
            }
        }
    }
}

TEST(Mapping, RoundRobinAssignment)
{
    Mapping m;
    m.gpuOrder = {2, 0, 3, 1};
    EXPECT_EQ(m.gpuOf(0), 2);
    EXPECT_EQ(m.gpuOf(3), 1);
    EXPECT_EQ(m.gpuOf(4), 2);
    EXPECT_EQ(m.gpuOf(7), 1);
}

TEST(PartitionAlgos, BalancedComputePartitionMinimisesMax)
{
    // DP result must match brute force on a small model.
    std::unique_ptr<ToyEnv> t(makeToy(9, 3, 2, 4 * GiB));
    const CostModel &cm = t->cost;
    for (int stages : {2, 3, 4}) {
        Partition p = balancedComputePartition(cm, stages);
        EXPECT_TRUE(partitionValid(p, 9));
        EXPECT_EQ(static_cast<int>(p.size()), stages);
        auto max_time = [&](const Partition &q) {
            double worst = 0;
            for (const auto &s : q) {
                worst = std::max(worst,
                                 cm.rangeFwdTime(s.lo, s.hi) +
                                     cm.rangeBwdTime(s.lo, s.hi));
            }
            return worst;
        };
        double dp = max_time(p);
        // Exhaustive check over all compositions with this count.
        double best = 1e100;
        std::vector<int> sizes(static_cast<std::size_t>(stages), 1);
        std::function<void(int, int)> rec = [&](int idx, int left) {
            if (idx == stages - 1) {
                sizes[idx] = left;
                best = std::min(best,
                                max_time(partitionFromSizes(sizes)));
                return;
            }
            for (int k = 1; left - k >= stages - idx - 1; ++k) {
                sizes[idx] = k;
                rec(idx + 1, left - k);
            }
        };
        rec(0, 9);
        EXPECT_NEAR(dp, best, best * 1e-9) << stages << " stages";
    }
}

TEST(PartitionAlgos, BalancedPartitionHandlesUnevenLayers)
{
    // GPT models have cheap edge layers; the DP should not give
    // them whole stages when blocks dominate.
    ModelDesc m = makeGptModel(gpt8b());
    CostModel cost(m, rtx3090Ti(), TrainConfig{});
    Partition p = balancedComputePartition(cost, 4);
    EXPECT_TRUE(partitionValid(p, m.numLayers()));
    double worst = 0, sum = 0;
    for (const auto &s : p) {
        double t = cost.rangeFwdTime(s.lo, s.hi) +
            cost.rangeBwdTime(s.lo, s.hi);
        worst = std::max(worst, t);
        sum += t;
    }
    // Near-perfect balance: worst stage within 15% of the mean.
    EXPECT_LT(worst, sum / 4 * 1.15);
}

TEST(Mapping, EightGpuCrossMappingImproves)
{
    Server s = makeCommodityServer({4, 4});
    const int stages = 16;
    Mapping seq = sequentialMapping(s.topo, stages);
    MappingResult cross = crossMapping(s.topo, stages);
    EXPECT_EQ(cross.evaluated, 70); // 8!/(4!·4!) label sequences
    EXPECT_LT(cross.mapping.contention, seq.contention * 0.9);
}

} // namespace
} // namespace mobius

/**
 * @file
 * Property/fuzz tests: random workloads, topologies and partitions
 * pushed through the executors and solvers, with invariants checked
 * on every run — determinism, memory safety, schedule completeness,
 * traffic accounting, and LP optimality.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/rng.hh"
#include "runtime/api.hh"
#include "solver/lp.hh"

namespace mobius
{
namespace
{

/** Random-but-valid commodity server (1-8 GPUs, 1-4 groups). */
Server
randomServer(Rng &rng)
{
    int groups = 1 + static_cast<int>(rng.below(4));
    std::vector<int> sizes;
    for (int i = 0; i < groups; ++i)
        sizes.push_back(1 + static_cast<int>(rng.below(3)));
    return makeCommodityServer(sizes);
}

/** Random GPT-ish config small enough to always be feasible. */
GptConfig
randomModel(Rng &rng)
{
    GptConfig cfg;
    cfg.name = "fuzz";
    cfg.hidden = 512 * (1 + static_cast<int>(rng.below(6)));
    cfg.heads = cfg.hidden / 128;
    cfg.numBlocks = 4 + static_cast<int>(rng.below(24));
    cfg.microbatchSize = 1 + static_cast<int>(rng.below(4));
    return cfg;
}

class ExecutorFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(ExecutorFuzz, MobiusInvariantsHold)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
    Server server = randomServer(rng);
    GptConfig cfg = randomModel(rng);
    Workload work(cfg, server);

    PlanOptions opts;
    // Exercise all partition/mapping algorithms across seeds.
    switch (rng.below(3)) {
      case 0: opts.partition = PartitionAlgo::Mip; break;
      case 1: opts.partition = PartitionAlgo::MinStage; break;
      default: opts.partition = PartitionAlgo::MaxStage; break;
    }
    opts.mapping = rng.below(2) ? MappingAlgo::Cross
                                : MappingAlgo::Sequential;

    MobiusPlan plan;
    try {
        plan = planMobius(server, work.cost(), opts);
    } catch (const FatalError &) {
        GTEST_SKIP() << "partition infeasible for this draw";
    }

    RunContext ctx(server);
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    StepStats stats = exec.run(); // panics internally on deadlock

    // 1. Time is positive and finite.
    ASSERT_TRUE(std::isfinite(stats.stepTime));
    ASSERT_GT(stats.stepTime, 0.0);

    // 2. Memory: never exceeded, fully reclaimed.
    for (int g = 0; g < ctx.numGpus(); ++g) {
        EXPECT_LE(ctx.memory(g).peak(), ctx.memory(g).capacity());
        EXPECT_EQ(ctx.memory(g).used(), 0u);
    }

    // 3. Traffic closed forms: params in (1, 2] copies of FP16
    //    weights; gradients exactly once.
    Bytes fp16 = work.model().totalParamBytesFp16();
    Bytes params = stats.traffic.bytesOf(TrafficKind::Parameter);
    EXPECT_GT(params, fp16 - 1);
    EXPECT_LE(params, 2 * fp16);
    EXPECT_EQ(stats.traffic.bytesOf(TrafficKind::Gradient), fp16);

    // 4. Transfer engine fully drained.
    EXPECT_TRUE(ctx.xfer().idle());

    // 5. Every compute span recorded; per-GPU spans are disjoint.
    int m = work.train().numMicrobatches;
    std::size_t expect_spans =
        2 * plan.partition.size() * static_cast<std::size_t>(m);
    std::size_t got = 0;
    for (int g = 0; g < ctx.numGpus(); ++g) {
        auto spans = ctx.trace().onTrack(
            "gpu" + std::to_string(g) + ".compute");
        got += spans.size();
        for (std::size_t i = 1; i < spans.size(); ++i)
            ASSERT_GE(spans[i].start, spans[i - 1].end - 1e-9);
    }
    EXPECT_EQ(got, expect_spans);

    // 6. Determinism: an identical run reproduces the step time.
    RunContext ctx2(server);
    MobiusExecutor exec2(ctx2, work.cost(), plan.partition,
                         plan.mapping);
    EXPECT_DOUBLE_EQ(exec2.run().stepTime, stats.stepTime);
}

TEST_P(ExecutorFuzz, ZeroInvariantsHold)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
    Server server = randomServer(rng);
    GptConfig cfg = randomModel(rng);
    Workload work(cfg, server);

    ZeroExecutorConfig zcfg;
    zcfg.layerSync = rng.below(2) == 0;

    RunContext ctx(server);
    ZeroHeteroExecutor exec(ctx, work.cost(), zcfg);
    StepStats stats = exec.run();

    ASSERT_TRUE(std::isfinite(stats.stepTime));
    for (int g = 0; g < ctx.numGpus(); ++g) {
        EXPECT_LE(ctx.memory(g).peak(), ctx.memory(g).capacity());
        EXPECT_EQ(ctx.memory(g).used(), 0u);
    }
    EXPECT_TRUE(ctx.xfer().idle());

    // ZeRO param traffic ~ 2 FP16 copies per GPU (shards + peer
    // pieces; integer division of shards may lose a few bytes).
    Bytes fp16 = work.model().totalParamBytesFp16();
    double copies =
        static_cast<double>(
            stats.traffic.bytesOf(TrafficKind::Parameter)) /
        static_cast<double>(fp16);
    EXPECT_NEAR(copies, 2.0 * ctx.numGpus(),
                0.01 * 2.0 * ctx.numGpus());
}

TEST_P(ExecutorFuzz, MobiusNeverSlowerThanGenerousBound)
{
    // Sanity bound: the step cannot beat compute-only time, nor be
    // slower than fully-serialised compute + communication.
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
    Server server = randomServer(rng);
    GptConfig cfg = randomModel(rng);
    Workload work(cfg, server);
    MobiusPlan plan;
    try {
        plan = planMobius(server, work.cost());
    } catch (const FatalError &) {
        GTEST_SKIP();
    }
    StepStats stats =
        runStep(System::Mobius, server, work.cost(), &plan).stats;

    const CostModel &cm = work.cost();
    int m = work.train().numMicrobatches;
    double total_compute = 0.0;
    for (int i = 0; i < cm.numLayers(); ++i)
        total_compute += m * (cm.fwdTime(i) + cm.bwdTime(i));
    double comm_serial =
        static_cast<double>(stats.traffic.totalBytes()) /
        kPcie3x16Bw;
    double lower = total_compute / server.topo.numGpus();
    // Loose upper bound: everything serialised twice over.
    double upper = 2.0 * (total_compute + comm_serial) + 1.0;
    EXPECT_GE(stats.stepTime, lower * 0.99);
    EXPECT_LE(stats.stepTime, upper);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzz,
                         ::testing::Range(0, 20));

class LpFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(LpFuzz, OptimalBeatsSampledFeasiblePoints)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL +
            99);
    const int nv = 2 + static_cast<int>(rng.below(4));
    const int nr = 1 + static_cast<int>(rng.below(5));

    LpProblem p;
    for (int j = 0; j < nv; ++j)
        p.addVar(rng.uniform(-2.0, 2.0), 0.0, 10.0);
    std::vector<LpRow> rows;
    for (int r = 0; r < nr; ++r) {
        std::vector<std::pair<int, double>> coeffs;
        for (int j = 0; j < nv; ++j) {
            if (rng.below(2))
                coeffs.push_back({j, rng.uniform(-1.0, 1.0)});
        }
        if (coeffs.empty())
            coeffs.push_back({0, 1.0});
        p.addRow(coeffs, rng.below(2) ? Sense::Le : Sense::Ge,
                 rng.uniform(-5.0, 5.0));
    }

    LpSolution sol = solveLp(p);
    if (sol.status != LpSolution::Status::Optimal)
        return; // infeasible/unbounded draws are fine

    // 1. The reported solution satisfies every constraint.
    auto feasible = [&](const std::vector<double> &x) {
        for (int j = 0; j < nv; ++j) {
            if (x[j] < -1e-6 || x[j] > 10.0 + 1e-6)
                return false;
        }
        for (const auto &row : p.rows) {
            double lhs = 0.0;
            for (const auto &[j, c] : row.coeffs)
                lhs += c * x[j];
            if (row.sense == Sense::Le && lhs > row.rhs + 1e-6)
                return false;
            if (row.sense == Sense::Ge && lhs < row.rhs - 1e-6)
                return false;
        }
        return true;
    };
    EXPECT_TRUE(feasible(sol.x));

    // 2. No sampled feasible point does better.
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<double> x(static_cast<std::size_t>(nv));
        for (auto &v : x)
            v = rng.uniform(0.0, 10.0);
        if (!feasible(x))
            continue;
        double obj = 0.0;
        for (int j = 0; j < nv; ++j)
            obj += p.objective[j] * x[j];
        EXPECT_GE(obj, sol.objective - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpFuzz, ::testing::Range(0, 40));

} // namespace
} // namespace mobius

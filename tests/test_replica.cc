/**
 * @file
 * Tests for the deterministic parallel replica runner, the one
 * fan-out behind the fleet's step simulations, the MIP stage sweep
 * and the benches: thread-count invariance of full simulated runs
 * (span for span), complete coverage of the index space, the thread
 * clamp, inline execution at one thread, and deterministic exception
 * propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "runtime/api.hh"
#include "simcore/replica_runner.hh"

namespace mobius
{
namespace
{

TEST(ReplicaRunner, RunsEveryIndexOnce)
{
    const int n = 37;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    ReplicaRunnerOptions opts;
    opts.threads = 4;
    ReplicaRunStats rs =
        runReplicas(n, [&](int i) { ++hits[i]; }, opts);
    EXPECT_EQ(rs.threadsUsed, 4);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ReplicaRunner, ClampsThreadsToCount)
{
    ReplicaRunnerOptions opts;
    opts.threads = 16;
    ReplicaRunStats rs = runReplicas(3, [](int) {}, opts);
    EXPECT_EQ(rs.threadsUsed, 3);
    EXPECT_EQ(runReplicas(0, [](int) {}, opts).threadsUsed, 1);
}

TEST(ReplicaRunner, SingleThreadRunsInline)
{
    std::vector<int> order;
    ReplicaRunnerOptions opts;
    opts.threads = 1;
    runReplicas(5, [&](int i) { order.push_back(i); }, opts);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ReplicaRunner, LowestIndexExceptionWinsAndRestStillRun)
{
    const int n = 12;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    ReplicaRunnerOptions opts;
    opts.threads = 4;
    try {
        runReplicas(
            n,
            [&](int i) {
                ++hits[i];
                if (i == 3 || i == 9)
                    throw std::runtime_error(
                        "replica " + std::to_string(i));
            },
            opts);
        FAIL() << "expected runReplicas to rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "replica 3");
    }
    // A throwing replica never silently skips the others.
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

/**
 * The contract the parallel benches lean on, checked on the real
 * simulator: a batch of faulted Mobius steps (distinct seeds per
 * index) produces byte-identical traces — every span, every
 * dependency edge, every counter — no matter how many worker
 * threads dispatch the batch.
 */
TEST(ReplicaRunner, FaultedRunsSpanForSpanIdenticalAcrossThreads)
{
    Server plan_server = makeCommodityServer({2, 2});
    Workload plan_work(gpt8b(), plan_server);
    MobiusPlan plan = planMobius(plan_server, plan_work.cost());

    const int replicas = 6;
    auto batch = [&](int threads) {
        std::vector<std::string> traces(replicas);
        ReplicaRunnerOptions opts;
        opts.threads = threads;
        runReplicas(
            replicas,
            [&](int i) {
                Server server = makeCommodityServer({2, 2});
                Workload work(gpt8b(), server);
                FaultPlan fp;
                fp.xfailProb = 0.02;
                fp.retryBudget = 10;
                fp.retryBackoff = 1e-4;
                RunContext ctx(
                    server,
                    {.faults = &fp,
                     .faultSeed = 100 + static_cast<std::uint64_t>(i)});
                MobiusExecutor exec(ctx, work.cost(),
                                    plan.partition, plan.mapping);
                exec.run();
                traces[static_cast<std::size_t>(i)] =
                    ctx.trace().toChromeJson();
            },
            opts);
        return traces;
    };

    std::vector<std::string> serial = batch(1);
    std::vector<std::string> parallel = batch(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (int i = 0; i < replicas; ++i) {
        EXPECT_FALSE(serial[static_cast<std::size_t>(i)].empty());
        EXPECT_EQ(serial[static_cast<std::size_t>(i)],
                  parallel[static_cast<std::size_t>(i)])
            << "replica " << i;
    }
}

} // namespace
} // namespace mobius

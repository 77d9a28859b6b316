/**
 * @file
 * Tests for the tensor-parallel comparator and the CPU-optimizer
 * model.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "runtime/api.hh"

namespace mobius
{
namespace
{

/** Run options with the CPU-update model at @p params_per_sec. */
StepRunOptions
withCpuAdam(double params_per_sec)
{
    StepRunOptions opts;
    opts.cpuAdamThroughput = params_per_sec;
    return opts;
}

TEST(TensorParallel, CompletesAndIsDeterministic)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    StepStats a =
        runStep(System::TensorParallel, server, work.cost()).stats;
    StepStats b =
        runStep(System::TensorParallel, server, work.cost()).stats;
    EXPECT_GT(a.stepTime, 0.0);
    EXPECT_DOUBLE_EQ(a.stepTime, b.stepTime);
}

TEST(TensorParallel, SingleGpuDegenerates)
{
    Server server = makeCommodityServer({1});
    Workload work(gpt3b(), server, 1, 2);
    StepStats s =
        runStep(System::TensorParallel, server, work.cost()).stats;
    EXPECT_GT(s.stepTime, 0.0);
    // No collectives on one GPU: traffic is just gradient flushes.
    EXPECT_EQ(s.traffic.bytesOf(TrafficKind::Activation), 0u);
}

TEST(TensorParallel, OomAtScale)
{
    // The §5 argument: resident shards bound the trainable scale.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt51b(), server);
    EXPECT_THROW(runStep(System::TensorParallel, server, work.cost()),
                 FatalError);
}

TEST(TensorParallel, CollectiveTrafficScalesWithMicrobatch)
{
    Server server = makeCommodityServer({2, 2});
    Workload w1(gpt8b(), server, 1);
    Workload w4(gpt8b(), server, 4);
    StepStats s1 = runStep(System::TensorParallel, server, w1.cost()).stats;
    StepStats s4 = runStep(System::TensorParallel, server, w4.cost()).stats;
    Bytes act1 = s1.traffic.bytesOf(TrafficKind::Activation) +
        s1.traffic.bytesOf(TrafficKind::ActivationGrad);
    Bytes act4 = s4.traffic.bytesOf(TrafficKind::Activation) +
        s4.traffic.bytesOf(TrafficKind::ActivationGrad);
    EXPECT_NEAR(static_cast<double>(act4),
                4.0 * static_cast<double>(act1),
                0.01 * static_cast<double>(act4));
}

TEST(TensorParallel, MobiusWinsAtLargerBatch)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server, 8);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats mob =
        runStep(System::Mobius, server, work.cost(), &plan).stats;
    StepStats tp =
        runStep(System::TensorParallel, server, work.cost()).stats;
    EXPECT_GT(tp.stepTime, mob.stepTime * 1.2);
}

TEST(TensorParallel, GradientShardsSumToModel)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    StepStats s =
        runStep(System::TensorParallel, server, work.cost()).stats;
    Bytes fp16 = work.model().totalParamBytesFp16();
    double ratio =
        static_cast<double>(s.traffic.bytesOf(
            TrafficKind::Gradient)) /
        static_cast<double>(fp16);
    EXPECT_NEAR(ratio, 1.0, 0.01);
}

TEST(CpuOptimizer, DisabledByDefaultIsFree)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats off = runStep(System::Mobius, server, work.cost(), &plan,
                            withCpuAdam(0.0))
                        .stats;
    StepStats fast = runStep(System::Mobius, server, work.cost(),
                             &plan, withCpuAdam(1e18))
                         .stats;
    EXPECT_NEAR(off.stepTime, fast.stepTime,
                off.stepTime * 1e-6);
}

TEST(CpuOptimizer, SlowCpuLengthensStepTail)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    StepStats off = runStep(System::Mobius, server, work.cost(), &plan,
                            withCpuAdam(0.0))
                        .stats;
    // 1G params/s over ~8B params = ~8 s of CPU Adam, partially
    // overlapped with the step.
    StepStats on = runStep(System::Mobius, server, work.cost(), &plan,
                           withCpuAdam(1e9))
                       .stats;
    EXPECT_GT(on.stepTime, off.stepTime);
    double adam_serial =
        static_cast<double>(work.model().totalParams()) / 1e9;
    EXPECT_LT(on.stepTime, off.stepTime + adam_serial + 0.1);
    // Overlap: the tail added is less than the full Adam time.
    EXPECT_LT(on.stepTime - off.stepTime, adam_serial);
}

TEST(CpuOptimizer, AppliesToZeroExecutorToo)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    StepStats off = runStep(System::DeepSpeed, server, work.cost(),
                            nullptr, withCpuAdam(0.0))
                        .stats;
    StepStats on = runStep(System::DeepSpeed, server, work.cost(),
                           nullptr, withCpuAdam(1e9))
                       .stats;
    EXPECT_GT(on.stepTime, off.stepTime);
}

} // namespace
} // namespace mobius

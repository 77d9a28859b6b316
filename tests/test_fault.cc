/**
 * @file
 * Fault-injection subsystem tests: plan parsing (inline grammar and
 * JSON files), seeded RNG stream independence, bit-identical replay
 * under a fixed --fault-seed, degradation/straggler effects, retry
 * semantics (budget exhaustion is fatal), crash/checkpoint recovery
 * costs, the exact-sum "fault" attribution category, and the paper's
 * pipeline-order constraints (Eq. 8-11) holding under faults.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "base/logging.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "runtime/api.hh"

namespace mobius
{
namespace
{

Server
testServer()
{
    return makeCommodityServer({2, 2});
}

// ---------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------

TEST(FaultPlanParse, InlineSpecRoundTrip)
{
    Server server = testServer();
    FaultPlan p = parseFaultSpec(
        "degrade:rc0=0.25@0.1+0.3;flaky:gpu2=0.5~0.2+0.05;"
        "xfail=0.01;crash:gpu1@1.5;ckpt=0.5+0.02;restart=0.1;"
        "retry=6+0.0002",
        server);
    ASSERT_EQ(p.windows.size(), 1u);
    EXPECT_EQ(p.windows[0].target.kind, ResourceKind::RootComplex);
    EXPECT_EQ(p.windows[0].target.index, 0);
    EXPECT_DOUBLE_EQ(p.windows[0].factor, 0.25);
    EXPECT_DOUBLE_EQ(p.windows[0].start, 0.1);
    EXPECT_DOUBLE_EQ(p.windows[0].duration, 0.3);
    ASSERT_EQ(p.flaps.size(), 1u);
    EXPECT_EQ(p.flaps[0].target.kind, ResourceKind::GpuCompute);
    EXPECT_EQ(p.flaps[0].target.index, 2);
    EXPECT_DOUBLE_EQ(p.flaps[0].meanGap, 0.2);
    EXPECT_DOUBLE_EQ(p.flaps[0].duration, 0.05);
    EXPECT_DOUBLE_EQ(p.xfailProb, 0.01);
    ASSERT_EQ(p.crashes.size(), 1u);
    EXPECT_EQ(p.crashes[0].gpu, 1);
    EXPECT_DOUBLE_EQ(p.crashes[0].time, 1.5);
    EXPECT_DOUBLE_EQ(p.checkpointInterval, 0.5);
    EXPECT_DOUBLE_EQ(p.checkpointCost, 0.02);
    EXPECT_DOUBLE_EQ(p.restartCost, 0.1);
    EXPECT_EQ(p.retryBudget, 6);
    EXPECT_DOUBLE_EQ(p.retryBackoff, 0.0002);
    EXPECT_FALSE(p.empty());
}

TEST(FaultPlanParse, RejectsMalformedEvents)
{
    Server server = testServer();
    EXPECT_THROW(parseFaultSpec("", server), FatalError);
    EXPECT_THROW(parseFaultSpec("nonsense", server), FatalError);
    EXPECT_THROW(parseFaultSpec("degrade:rc0=0.5", server),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("degrade:rc0=-1@0+1", server),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("xfail=1.5", server), FatalError);
    EXPECT_THROW(parseFaultSpec("crash:rc0@1", server), FatalError);
    EXPECT_THROW(parseFaultSpec("retry=2.5+1e-4", server),
                 FatalError);
}

TEST(FaultPlanParse, RejectsUnknownResources)
{
    // Same pre-simulation validation as --whatif (shared
    // hw/resource.hh grammar): a 4-GPU server has no gpu9, and
    // categories other than "transfer" make no sense as targets.
    Server server = testServer();
    EXPECT_THROW(parseFaultSpec("degrade:gpu9=0.5@0+1", server),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("degrade:rc7=0.5@0+1", server),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("degrade:widget0=0.5@0+1", server),
                 FatalError);
    EXPECT_THROW(parseFaultSpec("degrade:compute=0.5@0+1", server),
                 FatalError);
    EXPECT_NO_THROW(
        parseFaultSpec("degrade:transfer=0.5@0+1", server));
    EXPECT_THROW(parseFaultSpec("crash:gpu4@1", server), FatalError);
}

TEST(FaultPlanParse, JsonFileForm)
{
    Server server = testServer();
    std::string path =
        testing::TempDir() + "mobius_fault_plan_test.json";
    {
        std::ofstream os(path);
        os << R"({
            "windows": [{"resource": "rc1", "factor": 0.5,
                         "start": 0.2, "duration": 0.4}],
            "flaps": [{"resource": "transfer", "factor": 0.8,
                       "mean_gap": 0.3, "duration": 0.1}],
            "crashes": [{"gpu": 3, "time": 2.0}],
            "xfail": 0.02,
            "retry": {"budget": 9, "backoff": 0.0005},
            "checkpoint": {"interval": 0.5, "cost": 0.01},
            "restart": 0.25
        })";
    }
    FaultPlan p = loadFaultPlan(path, server);
    ASSERT_EQ(p.windows.size(), 1u);
    EXPECT_EQ(p.windows[0].target.kind, ResourceKind::RootComplex);
    EXPECT_EQ(p.windows[0].target.index, 1);
    ASSERT_EQ(p.flaps.size(), 1u);
    EXPECT_EQ(p.flaps[0].target.kind, ResourceKind::Category);
    ASSERT_EQ(p.crashes.size(), 1u);
    EXPECT_EQ(p.crashes[0].gpu, 3);
    EXPECT_DOUBLE_EQ(p.xfailProb, 0.02);
    EXPECT_EQ(p.retryBudget, 9);
    EXPECT_DOUBLE_EQ(p.retryBackoff, 0.0005);
    EXPECT_DOUBLE_EQ(p.checkpointInterval, 0.5);
    EXPECT_DOUBLE_EQ(p.restartCost, 0.25);
}

TEST(FaultPlanParse, BadJsonIsFatal)
{
    Server server = testServer();
    std::string path =
        testing::TempDir() + "mobius_fault_bad_plan.json";
    {
        std::ofstream os(path);
        os << R"({"windows": [{"resource": "gpu9", "factor": 0.5,
                  "start": 0, "duration": 1}]})";
    }
    EXPECT_THROW(parseFaultFile(path, server), FatalError);
    EXPECT_THROW(parseFaultFile("/no/such/file.json", server),
                 FatalError);
}

TEST(FaultPlanParse, SummaryMentionsEveryMechanism)
{
    Server server = testServer();
    FaultPlan p = parseFaultSpec(
        "degrade:rc0=0.25@0.1+0.3;xfail=0.01;crash:gpu1@1.5;"
        "ckpt=0.5+0.02;restart=0.1",
        server);
    std::string s = faultPlanSummary(p);
    EXPECT_NE(s.find("degrade window"), std::string::npos);
    EXPECT_NE(s.find("xfail"), std::string::npos);
    EXPECT_NE(s.find("crash"), std::string::npos);
    EXPECT_NE(s.find("ckpt"), std::string::npos);
    EXPECT_NE(s.find("restart"), std::string::npos);
    EXPECT_EQ(faultPlanSummary(FaultPlan{}), "none");
}

// ---------------------------------------------------------------
// Seeded RNG streams
// ---------------------------------------------------------------

TEST(FaultRngStreams, SameSeedSameStreamBitIdentical)
{
    Rng a(faultStreamSeed(42, 0));
    Rng b(faultStreamSeed(42, 0));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next()) << "draw " << i;
}

TEST(FaultRngStreams, StreamsAreIndependent)
{
    // The three mechanism streams (0 = failure sampling, 1 = backoff
    // jitter, 2 = flap gaps) are derived from one user seed via
    // SplitMix64; each must be its own sequence so adding flaps
    // never perturbs the failure pattern.
    Rng s0(faultStreamSeed(42, 0));
    Rng s1(faultStreamSeed(42, 1));
    Rng s2(faultStreamSeed(42, 2));
    int same01 = 0, same02 = 0;
    for (int i = 0; i < 64; ++i) {
        std::uint64_t a = s0.next(), b = s1.next(), c = s2.next();
        same01 += a == b;
        same02 += a == c;
    }
    EXPECT_EQ(same01, 0);
    EXPECT_EQ(same02, 0);
}

TEST(FaultRngStreams, DifferentSeedsDifferentSequences)
{
    Rng a(faultStreamSeed(1, 0));
    Rng b(faultStreamSeed(2, 0));
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

// ---------------------------------------------------------------
// End-to-end faulted runs
// ---------------------------------------------------------------

/** One faulted Mobius step, keeping the context for inspection. */
struct FaultedRun
{
    std::unique_ptr<Server> server;
    std::unique_ptr<Workload> work;
    MobiusPlan plan;
    std::unique_ptr<RunContext> ctx;
    StepStats stats;
};

FaultedRun
runMobius(const std::string &spec, std::uint64_t seed)
{
    FaultedRun r;
    r.server = std::make_unique<Server>(testServer());
    r.work = std::make_unique<Workload>(gpt8b(), *r.server);
    r.plan = planMobius(*r.server, r.work->cost());
    FaultPlan fp;
    const FaultPlan *fpp = nullptr;
    if (!spec.empty()) {
        fp = parseFaultSpec(spec, *r.server);
        fpp = &fp;
    }
    r.ctx = std::make_unique<RunContext>(
        *r.server, RunContextOptions{.faults = fpp, .faultSeed = seed});
    MobiusExecutor exec(*r.ctx, r.work->cost(), r.plan.partition,
                        r.plan.mapping);
    r.stats = exec.run();
    return r;
}

TEST(FaultDeterminism, SameSeedBitIdenticalRun)
{
    const std::string spec =
        "xfail=0.02;retry=10+0.0001;flaky:rc1=0.5~0.4+0.05";
    FaultedRun a = runMobius(spec, 7);
    FaultedRun b = runMobius(spec, 7);
    // Bit-identical: exact step time, identical counters, and an
    // identical span-for-span trace.
    EXPECT_EQ(a.stats.stepTime, b.stats.stepTime);
    EXPECT_EQ(a.stats.faultFailures, b.stats.faultFailures);
    EXPECT_EQ(a.stats.faultRetries, b.stats.faultRetries);
    EXPECT_EQ(a.stats.faultSeconds, b.stats.faultSeconds);
    ASSERT_EQ(a.ctx->trace().spanCount(),
              b.ctx->trace().spanCount());
    for (std::size_t i = 0; i < a.ctx->trace().spanCount(); ++i) {
        TraceSpan sa = a.ctx->trace().span(i);
        TraceSpan sb = b.ctx->trace().span(i);
        ASSERT_EQ(sa.name, sb.name) << "span " << i;
        ASSERT_EQ(sa.start, sb.start) << "span " << i;
        ASSERT_EQ(sa.end, sb.end) << "span " << i;
    }
}

TEST(FaultDeterminism, DifferentSeedDifferentFailures)
{
    const std::string spec = "xfail=0.03;retry=20+0.0001";
    FaultedRun a = runMobius(spec, 1);
    FaultedRun b = runMobius(spec, 2);
    // Both runs sample the same number of attempts from their
    // failure streams, but the doomed set must differ (the streams
    // are independent sequences; a full collision over dozens of
    // Bernoulli draws would mean the derivation is broken).
    EXPECT_GT(a.stats.faultFailures, 0u);
    EXPECT_GT(b.stats.faultFailures, 0u);
    bool differs =
        a.stats.faultFailures != b.stats.faultFailures ||
        a.stats.stepTime != b.stats.stepTime;
    EXPECT_TRUE(differs);
}

TEST(FaultEffects, DegradeWindowSlowsTheStep)
{
    FaultedRun clean = runMobius("", 1);
    FaultedRun degraded =
        runMobius("degrade:transfer=0.25@0+10", 1);
    EXPECT_GT(degraded.stats.stepTime,
              clean.stats.stepTime + 1e-6);
    // Restored capacity: a window that ends before the step does
    // costs less than one that covers it entirely.
    FaultedRun brief = runMobius("degrade:transfer=0.25@0+0.2", 1);
    EXPECT_GT(brief.stats.stepTime, clean.stats.stepTime + 1e-6);
    EXPECT_LT(brief.stats.stepTime, degraded.stats.stepTime);
}

TEST(FaultEffects, StragglerThrottleSlowsTheStep)
{
    FaultedRun clean = runMobius("", 1);
    FaultedRun straggler = runMobius("degrade:gpu1=0.5@0+10", 1);
    EXPECT_GT(straggler.stats.stepTime,
              clean.stats.stepTime + 1e-6);
}

TEST(FaultEffects, FailedTransfersAreRetriedAndTraced)
{
    FaultedRun r = runMobius("xfail=0.02;retry=10+0.0001", 3);
    ASSERT_GT(r.stats.faultFailures, 0u);
    EXPECT_EQ(r.stats.faultRetries, r.stats.faultFailures);
    EXPECT_GT(r.stats.faultSeconds, 0.0);
    // Every doomed attempt lands as a category-"fault" span with a
    // "!fail" suffix; every retry leaves a backoff span.
    std::size_t failSpans = 0, backoffSpans = 0;
    for (const TraceSpan &s : r.ctx->trace().spans()) {
        if (s.category != "fault")
            continue;
        if (s.name.find("!fail") != std::string::npos)
            ++failSpans;
        if (s.track == "fault.retry")
            ++backoffSpans;
    }
    EXPECT_EQ(failSpans, r.stats.faultFailures);
    EXPECT_EQ(backoffSpans, r.stats.faultRetries);
}

TEST(FaultEffects, RetryBudgetExhaustionIsFatal)
{
    // With a 90% failure probability and no retries allowed, the
    // first doomed transfer kills the simulated job.
    EXPECT_THROW(runMobius("xfail=0.9;retry=0+0.0001", 1),
                 FatalError);
}

TEST(FaultEffects, CrashRecoveryCostsRestartPlusLostWork)
{
    // Checkpoints at 0.8s; crash at 1.1s: 0.3s of work is lost, so
    // recovery = restart (0.05) + 0.3.
    FaultedRun r = runMobius(
        "ckpt=0.8+0.01;crash:gpu1@1.1;restart=0.05", 1);
    EXPECT_EQ(r.stats.faultCrashes, 1u);
    const FaultCounters &fc = r.ctx->faults()->counters();
    EXPECT_NEAR(fc.recoverySeconds, 0.05 + 0.3, 1e-9);
    EXPECT_GE(fc.checkpoints, 1u);
    // Tighter checkpointing loses less work on the same crash.
    FaultedRun tight = runMobius(
        "ckpt=0.2+0.01;crash:gpu1@1.1;restart=0.05", 1);
    EXPECT_LT(tight.ctx->faults()->counters().recoverySeconds,
              fc.recoverySeconds);
}

TEST(FaultAttribution, FaultCategorySumsExactly)
{
    FaultedRun r = runMobius(
        "xfail=0.02;retry=10+0.0001;ckpt=0.8+0.02", 3);
    StepAttribution a = attributeStep(r.ctx->trace());
    EXPECT_GT(a.critical.fault, 0.0);
    // The exact-sum invariant: categories partition [0, stepTime].
    EXPECT_NEAR(a.critical.total(), a.stepTime,
                1e-9 * std::max(1.0, a.stepTime));
    EXPECT_EQ(a.stepTime, r.stats.stepTime);
}

// ---------------------------------------------------------------
// Pipeline-order constraints under faults (Eq. 8-11)
// ---------------------------------------------------------------

class FaultedMobiusTrace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        run_ = runMobius(
            "xfail=0.02;retry=10+0.0001;degrade:rc0=0.5@0.2+0.4",
            42);
        S_ = run_.plan.stageCount();
        M_ = run_.work->cost().cfg().numMicrobatches;
    }

    TraceSpan
    span(const std::string &name)
    {
        auto v = run_.ctx->trace().named(name);
        EXPECT_EQ(v.size(), 1u) << name;
        return v.empty() ? TraceSpan{} : v[0];
    }

    FaultedRun run_;
    int S_ = 0;
    int M_ = 0;
};

TEST_F(FaultedMobiusTrace, Eq8ActivationOrderHoldsUnderFaults)
{
    for (int j = 1; j < S_; ++j) {
        for (int m = 0; m < M_; ++m) {
            EXPECT_GE(span(strfmt("F%d,%d", j, m)).start,
                      span(strfmt("F%d,%d", j - 1, m)).end - 1e-9);
            EXPECT_GE(span(strfmt("B%d,%d", j - 1, m)).start,
                      span(strfmt("B%d,%d", j, m)).end - 1e-9);
        }
    }
}

TEST_F(FaultedMobiusTrace, Eq10MicrobatchOrderHoldsUnderFaults)
{
    for (int j = 0; j < S_; ++j) {
        for (int m = 1; m < M_; ++m) {
            EXPECT_GE(span(strfmt("F%d,%d", j, m)).start,
                      span(strfmt("F%d,%d", j, m - 1)).end - 1e-9);
            EXPECT_GE(span(strfmt("B%d,%d", j, m)).start,
                      span(strfmt("B%d,%d", j, m - 1)).end - 1e-9);
        }
    }
}

TEST_F(FaultedMobiusTrace, Eq11BackwardAfterForwardHoldsUnderFaults)
{
    EXPECT_GE(span(strfmt("B%d,0", S_ - 1)).start,
              span(strfmt("F%d,%d", S_ - 1, M_ - 1)).end - 1e-9);
}

TEST_F(FaultedMobiusTrace, EveryMicrobatchStillExecutesOnce)
{
    // Retries must never duplicate or drop compute: every (stage,
    // microbatch) forward and backward runs exactly once.
    for (int j = 0; j < S_; ++j) {
        for (int m = 0; m < M_; ++m) {
            EXPECT_EQ(run_.ctx->trace()
                          .named(strfmt("F%d,%d", j, m))
                          .size(),
                      1u);
            EXPECT_EQ(run_.ctx->trace()
                          .named(strfmt("B%d,%d", j, m))
                          .size(),
                      1u);
        }
    }
}

} // namespace
} // namespace mobius

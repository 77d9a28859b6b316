/**
 * @file
 * Critical-path attribution tests: synthetic span DAGs with known
 * blame tables, the categories-sum-to-step-time invariant on every
 * executor, and the JSON/table render paths.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/json.hh"
#include "obs/critical_path.hh"
#include "runtime/api.hh"

namespace mobius
{
namespace
{

/** Build a span field-by-field (aggregate init would warn). */
TraceSpan
mkSpan(const std::string &track, const std::string &name,
       const std::string &category, double start, double end)
{
    TraceSpan s;
    s.track = track;
    s.name = name;
    s.category = category;
    s.start = start;
    s.end = end;
    return s;
}

TEST(Attribution, EmptyTraceIsAllZero)
{
    TraceRecorder rec;
    StepAttribution a = attributeStep(rec);
    EXPECT_EQ(a.stepTime, 0.0);
    EXPECT_EQ(a.spanCount, 0u);
    EXPECT_EQ(a.critical.total(), 0.0);
    EXPECT_TRUE(a.path.empty());
}

TEST(Attribution, SingleSpanPlusLeadingIdle)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "F0,0", "compute", 1.0, 3.0));
    StepAttribution a = attributeStep(rec);
    EXPECT_DOUBLE_EQ(a.stepTime, 3.0);
    EXPECT_DOUBLE_EQ(a.critical.compute, 2.0);
    // The un-caused [0, 1) lead-in is a bubble.
    EXPECT_DOUBLE_EQ(a.critical.bubble, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.total(), a.stepTime);
    ASSERT_EQ(a.path.size(), 1u);
    EXPECT_EQ(a.path[0].name, "F0,0");
}

TEST(Attribution, GapBetweenChainedSpansIsBubble)
{
    TraceRecorder rec;
    SpanId a0 =
        rec.record(mkSpan("gpu0.compute", "A", "compute", 0.0, 1.0));
    TraceSpan b = mkSpan("gpu0.compute", "B", "compute", 2.0, 3.0);
    b.deps = {a0};
    rec.record(b);
    StepAttribution a = attributeStep(rec);
    EXPECT_DOUBLE_EQ(a.stepTime, 3.0);
    EXPECT_DOUBLE_EQ(a.critical.compute, 2.0);
    EXPECT_DOUBLE_EQ(a.critical.bubble, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.total(), a.stepTime);
    ASSERT_EQ(a.path.size(), 2u);
    EXPECT_EQ(a.path[0].name, "B"); // step-end first
    EXPECT_EQ(a.path[1].name, "A");
}

TEST(Attribution, QueueWaitIsContentionNotBubble)
{
    // B was ready at 1.0 (when A ended) but only started at 1.5:
    // the 0.5 s gap has a recorded cause — queueing.
    TraceRecorder rec;
    SpanId a0 =
        rec.record(mkSpan("gpu0.h2d", "A", "transfer", 0.0, 1.0));
    TraceSpan b = mkSpan("gpu0.compute", "B", "compute", 1.5, 2.5);
    b.deps = {a0};
    b.queuedAt = 1.0;
    rec.record(b);
    StepAttribution a = attributeStep(rec);
    EXPECT_DOUBLE_EQ(a.stepTime, 2.5);
    EXPECT_DOUBLE_EQ(a.critical.compute, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.transfer, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.queue, 0.5);
    EXPECT_DOUBLE_EQ(a.critical.bubble, 0.0);
    EXPECT_DOUBLE_EQ(a.critical.total(), a.stepTime);
    EXPECT_DOUBLE_EQ(a.totalQueueWait, 0.5);
}

TEST(Attribution, FairShareStretchCountsAsQueue)
{
    // A transfer that moved bytes worth 1 s at its bottleneck but
    // took 2 s was throttled by fair sharing: 1 s of contention.
    TraceRecorder rec;
    TraceSpan t = mkSpan("gpu0.h2d", "S0.fwd", "transfer", 0.0, 2.0);
    t.work = 1.0;
    rec.record(t);
    StepAttribution a = attributeStep(rec);
    EXPECT_DOUBLE_EQ(a.critical.transfer, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.queue, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.total(), a.stepTime);
    EXPECT_DOUBLE_EQ(a.totalQueueWait, 1.0);
}

TEST(Attribution, BindingDependencyIsLatestEnding)
{
    TraceRecorder rec;
    SpanId a0 =
        rec.record(mkSpan("gpu0.compute", "A", "compute", 0.0, 1.0));
    SpanId b0 =
        rec.record(mkSpan("gpu1.compute", "B", "compute", 0.0, 2.0));
    TraceSpan c = mkSpan("gpu0.compute", "C", "compute", 2.0, 3.0);
    c.deps = {a0, b0};
    rec.record(c);
    StepAttribution a = attributeStep(rec);
    ASSERT_EQ(a.path.size(), 2u);
    EXPECT_EQ(a.path[0].name, "C");
    EXPECT_EQ(a.path[1].name, "B"); // ends later than A
    EXPECT_DOUBLE_EQ(a.critical.total(), a.stepTime);
}

TEST(Attribution, OptimizerAndUnknownCategories)
{
    TraceRecorder rec;
    SpanId a0 = rec.record(
        mkSpan("cpu.optim", "adam l0", "optimizer", 0.0, 1.0));
    TraceSpan b = mkSpan("misc", "X", "mystery", 1.0, 2.0);
    b.deps = {a0};
    rec.record(b);
    StepAttribution a = attributeStep(rec);
    EXPECT_DOUBLE_EQ(a.critical.optimizer, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.other, 1.0);
    EXPECT_DOUBLE_EQ(a.critical.total(), a.stepTime);
}

TEST(Attribution, PerStageAndPerGpuSplits)
{
    TraceRecorder rec;
    TraceSpan f0 =
        mkSpan("gpu0.compute", "F0,0", "compute", 0.0, 1.0);
    f0.gpu = 0;
    f0.stage = 0;
    SpanId id0 = rec.record(f0);
    TraceSpan f1 =
        mkSpan("gpu1.compute", "F1,0", "compute", 1.0, 2.0);
    f1.gpu = 1;
    f1.stage = 1;
    f1.deps = {id0};
    rec.record(f1);
    StepAttribution a = attributeStep(rec);
    ASSERT_TRUE(a.stages.count(0));
    ASSERT_TRUE(a.stages.count(1));
    EXPECT_DOUBLE_EQ(a.stages.at(0).compute, 1.0);
    EXPECT_DOUBLE_EQ(a.stages.at(1).compute, 1.0);
    ASSERT_EQ(a.gpus.size(), 2u);
    // Each GPU computes half the step and idles the other half.
    for (const auto &g : a.gpus) {
        EXPECT_DOUBLE_EQ(g.compute, 1.0);
        EXPECT_DOUBLE_EQ(g.bubble, 1.0);
        EXPECT_DOUBLE_EQ(g.bubbleFraction, 0.5);
    }
}

/** |categories - stepTime| for one executed trace. */
double
sumError(const TraceRecorder &trace)
{
    StepAttribution a = attributeStep(trace);
    EXPECT_GT(a.spanCount, 0u);
    EXPECT_FALSE(a.path.empty());
    return std::fabs(a.critical.total() - a.stepTime);
}

TEST(AttributionExecutors, MobiusSumsToStepTime)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    RunContext ctx(server);
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    exec.run();
    EXPECT_LE(sumError(ctx.trace()), 1e-9);
}

TEST(AttributionExecutors, ZeroSumsToStepTime)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    RunContext ctx(server);
    ZeroHeteroExecutor exec(ctx, work.cost());
    exec.run();
    EXPECT_LE(sumError(ctx.trace()), 1e-9);
}

TEST(AttributionExecutors, OneFOneBSumsToStepTime)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    Partition p = balancedComputePartition(work.cost(),
                                           server.topo.numGpus());
    Mapping m =
        sequentialMapping(server.topo, server.topo.numGpus());
    RunContext ctx(server);
    PipelineExecutor exec(ctx, work.cost(), p, m,
                          PipelineSchedule::OneFOneB);
    exec.run();
    EXPECT_LE(sumError(ctx.trace()), 1e-9);
}

TEST(AttributionExecutors, TensorParallelSumsToStepTime)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    RunContext ctx(server);
    TensorParallelExecutor exec(ctx, work.cost());
    exec.run();
    EXPECT_LE(sumError(ctx.trace()), 1e-9);
}

TEST(AttributionExecutors, CrossMappingReducesQueueWait)
{
    // Eq. 12-13 stated causally: on the same partition, cross
    // mapping spreads adjacent stages across root complexes and
    // total contention-queue wait drops.
    Server server = makeCommodityServer({4, 4});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    auto queueWait = [&](const Mapping &m) {
        RunContext ctx(server);
        MobiusExecutor exec(ctx, work.cost(), plan.partition, m);
        exec.run();
        return attributeStep(ctx.trace()).totalQueueWait;
    };
    double seq = queueWait(
        sequentialMapping(server.topo, plan.stageCount()));
    double cross = queueWait(
        crossMapping(server.topo, plan.stageCount()).mapping);
    EXPECT_LT(cross, seq);
}

TEST(AttributionExport, JsonParsesAndMatchesBreakdown)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    RunContext ctx(server);
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    exec.run();
    StepAttribution a = attributeStep(ctx.trace());

    json::JsonValue v;
    ASSERT_NO_THROW(v = json::parse(attributionToJson(a, 5)));
    EXPECT_DOUBLE_EQ(v.at("stepTime").number, a.stepTime);
    const auto &crit = v.at("critical");
    double sum = crit.at("compute").number +
        crit.at("transfer").number + crit.at("queue").number +
        crit.at("optimizer").number + crit.at("bubble").number +
        crit.at("other").number;
    EXPECT_NEAR(sum, a.stepTime, 1e-9);
    EXPECT_EQ(v.at("gpus").array.size(), a.gpus.size());
    EXPECT_LE(v.at("path").array.size(), 5u);
    // Path entries carry their causal bookkeeping.
    ASSERT_FALSE(v.at("path").array.empty());
    const auto &e = v.at("path")[0];
    EXPECT_TRUE(e.has("queueWait"));
    EXPECT_TRUE(e.has("stretch"));
    EXPECT_TRUE(e.has("category"));
}

TEST(AttributionExport, TableNamesEveryCategory)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    RunContext ctx(server);
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    exec.run();
    std::string t = attributionTable(attributeStep(ctx.trace()));
    for (const char *word :
         {"compute", "transfer", "queue", "bubble", "critical"}) {
        EXPECT_NE(t.find(word), std::string::npos) << word;
    }
}

TEST(AttributionMetrics, RegistryGetsCriticalCounters)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    RunContext ctx(server);
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    StepStats stats = exec.run();
    MetricsRegistry reg;
    exportAttribution(attributeStep(ctx.trace()), reg);

    double sum = 0.0;
    for (const char *name :
         {"attrib.critical.compute.seconds",
          "attrib.critical.transfer.seconds",
          "attrib.critical.queue.seconds",
          "attrib.critical.optimizer.seconds",
          "attrib.critical.bubble.seconds"}) {
        const Counter *c = reg.findCounter(name);
        ASSERT_NE(c, nullptr) << name;
        sum += c->value();
    }
    // "other" is not exported as a counter; tolerate it.
    EXPECT_NEAR(sum, stats.stepTime, 1e-6);
    ASSERT_NE(reg.findCounter("attrib.queue.total.seconds"),
              nullptr);
    ASSERT_NE(reg.findGauge("gpu0.bubble.fraction"), nullptr);
}

} // namespace
} // namespace mobius

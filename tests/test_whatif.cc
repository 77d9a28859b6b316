/**
 * @file
 * What-if profiler tests: spec/sweep parsing against a real server,
 * hand-computed counterfactuals on synthetic span DAGs (chain
 * speedups, bottleneck shifts, stretch error bars, pool saturation,
 * engine serialisation), server/engine perturbation extraction, the
 * JSON/ASCII render paths, and a predicted-vs-resimulated sanity run
 * on a real workload.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "base/json.hh"
#include "obs/whatif.hh"
#include "runtime/api.hh"

namespace mobius
{
namespace
{

/** Build a span field-by-field (aggregate init would warn). */
TraceSpan
mkSpan(const std::string &track, const std::string &name,
       const std::string &category, double start, double end,
       int gpu = -1, double work = -1.0)
{
    TraceSpan s;
    s.track = track;
    s.name = name;
    s.category = category;
    s.start = start;
    s.end = end;
    s.gpu = gpu;
    s.work = work;
    return s;
}

/** The 2+2 commodity box: gpu0/gpu1 behind rc0, gpu2/gpu3 rc1. */
Server
testServer()
{
    return makeCommodityServer({2, 2});
}

WhatIfSpec
spec(const Server &srv, const std::string &text)
{
    return parseWhatIfSpec(text, srv);
}

// ---------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------

TEST(WhatIfParse, RecognisesEveryResourceForm)
{
    Server srv = testServer();
    WhatIfSpec s = spec(srv, "rc1=2.5");
    EXPECT_EQ(s.kind, WhatIfKind::RootComplex);
    EXPECT_EQ(s.index, 1);
    EXPECT_DOUBLE_EQ(s.factor, 2.5);

    s = spec(srv, "gpu3=0.5");
    EXPECT_EQ(s.kind, WhatIfKind::GpuCompute);
    EXPECT_EQ(s.index, 3);
    EXPECT_DOUBLE_EQ(s.factor, 0.5);

    s = spec(srv, "cpu=4");
    EXPECT_EQ(s.kind, WhatIfKind::CpuOptimizer);

    for (const char *cat : {"compute", "transfer", "optimizer"}) {
        s = spec(srv, std::string(cat) + "=2");
        EXPECT_EQ(s.kind, WhatIfKind::Category);
        EXPECT_EQ(s.resource, cat);
    }

    s = spec(srv, "link:dram<->rc0=3");
    EXPECT_EQ(s.kind, WhatIfKind::Link);
    EXPECT_EQ(s.index, srv.topo.findLinkByName("dram<->rc0"));
    EXPECT_GE(s.index, 0);
}

TEST(WhatIfParse, RejectsMalformedSpecs)
{
    Server srv = testServer();
    for (const char *bad :
         {"gpu0", "=2", "gpu0=", "gpu0=0", "gpu0=-1", "gpu0=2x",
          "gpu0=nan", "gpu0=inf", "gpuX=2", "rc=2", "foo=2"}) {
        EXPECT_THROW(parseWhatIfSpec(bad, srv), FatalError)
            << "accepted '" << bad << "'";
    }
}

TEST(WhatIfParse, RejectsResourcesAbsentFromServer)
{
    Server srv = testServer(); // 4 GPUs, 2 root complexes
    EXPECT_THROW(parseWhatIfSpec("gpu4=2", srv), FatalError);
    EXPECT_THROW(parseWhatIfSpec("rc2=2", srv), FatalError);
    EXPECT_THROW(parseWhatIfSpec("link:no-such=2", srv),
                 FatalError);
}

TEST(WhatIfParse, SweepGridIsInclusiveAndLinear)
{
    WhatIfSweepSpec s = parseWhatIfSweepSpec("rc0=0.5:2:4");
    EXPECT_EQ(s.resource, "rc0");
    EXPECT_DOUBLE_EQ(s.lo, 0.5);
    EXPECT_DOUBLE_EQ(s.hi, 2.0);
    EXPECT_EQ(s.steps, 4);
    std::vector<double> f = s.factors();
    ASSERT_EQ(f.size(), 4u);
    EXPECT_DOUBLE_EQ(f[0], 0.5);
    EXPECT_DOUBLE_EQ(f[1], 1.0);
    EXPECT_DOUBLE_EQ(f[2], 1.5);
    EXPECT_DOUBLE_EQ(f[3], 2.0);
}

TEST(WhatIfParse, RejectsMalformedSweeps)
{
    for (const char *bad :
         {"rc0", "rc0=1:2", "rc0=1:2:3:4", "rc0=2:1:3", "rc0=1:2:1",
          "rc0=1:2:20000", "rc0=0:2:3", "rc0=1:2:x"}) {
        EXPECT_THROW(parseWhatIfSweepSpec(bad), FatalError)
            << "accepted '" << bad << "'";
    }
}

// ---------------------------------------------------------------
// Hand-computed counterfactuals on synthetic DAGs
// ---------------------------------------------------------------

TEST(WhatIfEval, EmptyDagIsAllZero)
{
    TraceRecorder rec;
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "gpu0=2")});
    EXPECT_EQ(r.baseStepTime, 0.0);
    EXPECT_EQ(r.predicted, 0.0);
    EXPECT_EQ(r.matchedSpans, 0u);
    EXPECT_EQ(r.speedup(), 0.0);
    EXPECT_EQ(r.drift(), -1.0);
}

TEST(WhatIfEval, FactorOneReproducesBaselineExactly)
{
    // The re-schedule compacts the untraced [1, 2) gap (modelBase
    // 2 s vs measured 3 s); calibration must stretch it back so a
    // factor-1.0 what-if is the identity.
    TraceRecorder rec;
    SpanId a =
        rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 1, 0));
    TraceSpan b = mkSpan("gpu0.compute", "B", "compute", 2, 3, 0);
    b.deps = {a};
    rec.record(b);
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "compute=1")});
    EXPECT_DOUBLE_EQ(r.baseStepTime, 3.0);
    EXPECT_DOUBLE_EQ(r.modelBase, 2.0);
    EXPECT_DOUBLE_EQ(r.predicted, 3.0);
    EXPECT_DOUBLE_EQ(r.predictedLow, 3.0);
    EXPECT_DOUBLE_EQ(r.predictedHigh, 3.0);
    EXPECT_DOUBLE_EQ(r.speedup(), 1.0);
}

TEST(WhatIfEval, ChainSpeedupHalvesEverySpan)
{
    TraceRecorder rec;
    SpanId a =
        rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 2, 0));
    TraceSpan b = mkSpan("gpu0.compute", "B", "compute", 2, 5, 0);
    b.deps = {a};
    rec.record(b);
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "gpu0=2")});
    EXPECT_DOUBLE_EQ(r.baseStepTime, 5.0);
    EXPECT_DOUBLE_EQ(r.predicted, 2.5);
    EXPECT_DOUBLE_EQ(r.speedup(), 2.0);
    EXPECT_EQ(r.matchedSpans, 2u);
}

TEST(WhatIfEval, SpeedupShiftsBottleneckToOtherBranch)
{
    // C joins a 4 s branch on gpu0 and a 3 s branch on gpu1.
    // Doubling gpu0 does NOT halve the step: the gpu1 branch
    // becomes critical, so 5 s -> 3.5 s, not 2.5 s.
    TraceRecorder rec;
    SpanId a =
        rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 4, 0));
    SpanId b =
        rec.record(mkSpan("gpu1.compute", "B", "compute", 0, 3, 1));
    TraceSpan c = mkSpan("gpu0.compute", "C", "compute", 4, 5, 0);
    c.deps = {a, b};
    rec.record(c);
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "gpu0=2")});
    EXPECT_DOUBLE_EQ(r.predicted, 3.5);
    EXPECT_EQ(r.matchedSpans, 2u); // A and C, not B
}

TEST(WhatIfEval, SharedSpeedupScalesStretchIntoErrorBar)
{
    // Transfer: 2 s intrinsic work + 1 s fair-share stretch. A 2x
    // root-complex speedup keeps the work (private PCIe bottleneck)
    // but the stretch either halves (coupled) or persists
    // (invariant); the point estimate is the midpoint.
    TraceRecorder rec;
    rec.record(
        mkSpan("gpu0.h2d", "S0.fwd", "transfer", 0, 3, 0, 2.0));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "rc0=2")});
    EXPECT_DOUBLE_EQ(r.predictedLow, 2.5);  // 2 + 1/2
    EXPECT_DOUBLE_EQ(r.predictedHigh, 3.0); // 2 + 1
    EXPECT_DOUBLE_EQ(r.predicted, 2.75);    // midpoint
    EXPECT_EQ(r.matchedSpans, 1u);
}

TEST(WhatIfEval, SharedSlowdownScalesWorkAndStretch)
{
    // Halving rc0 makes the pool the route bottleneck: work 2 -> 4,
    // stretch 1 -> 2 (coupled) or 1 (invariant).
    TraceRecorder rec;
    rec.record(
        mkSpan("gpu0.h2d", "S0.fwd", "transfer", 0, 3, 0, 2.0));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "rc0=0.5")});
    EXPECT_DOUBLE_EQ(r.predictedLow, 5.0);  // 4 + 1
    EXPECT_DOUBLE_EQ(r.predictedHigh, 6.0); // 4 + 2
    EXPECT_DOUBLE_EQ(r.predicted, 5.5);
}

TEST(WhatIfEval, SharedSpeedupCannotBeatPrivateBottleneck)
{
    // No stretch to reclaim: a 4x faster root complex leaves a
    // PCIe-bound transfer exactly where it was.
    TraceRecorder rec;
    rec.record(
        mkSpan("gpu0.h2d", "S0.fwd", "transfer", 0, 2, 0, 2.0));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "rc0=4")});
    EXPECT_DOUBLE_EQ(r.predicted, 2.0);
    EXPECT_DOUBLE_EQ(r.speedup(), 1.0);
}

TEST(WhatIfEval, PoolSaturationBoundsSlowdown)
{
    // Two 1 s transfers on different GPUs behind rc0 that ran in
    // parallel. At rc0 x0.5 the list-scheduler alone would predict
    // 2 s (each span doubles, still parallel) — but 2 s of work
    // must cross the halved pool one direction at a time: >= 4 s.
    TraceRecorder rec;
    rec.record(
        mkSpan("gpu0.h2d", "S0", "transfer", 0, 1, 0, 1.0));
    rec.record(
        mkSpan("gpu1.h2d", "S1", "transfer", 0, 1, 1, 1.0));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "rc0=0.5")});
    EXPECT_DOUBLE_EQ(r.predicted, 4.0);
    EXPECT_DOUBLE_EQ(r.predictedLow, 4.0);
    EXPECT_DOUBLE_EQ(r.predictedHigh, 4.0);
}

TEST(WhatIfEval, RootComplexMatchesOnlyItsGpus)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.h2d", "S0", "transfer", 0, 1, 0));
    rec.record(mkSpan("gpu2.h2d", "S2", "transfer", 0, 1, 2));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "rc0=2")});
    EXPECT_EQ(r.matchedSpans, 1u); // gpu2 sits behind rc1
}

TEST(WhatIfEval, TreeLinksIgnoreNvlinkTraffic)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.nvlink", "P", "transfer", 0, 1, 0));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "rc0=2")});
    EXPECT_EQ(r.matchedSpans, 0u);
    EXPECT_DOUBLE_EQ(r.predicted, r.baseStepTime);
}

TEST(WhatIfEval, CpuSpeedupScalesOptimizerSpans)
{
    TraceRecorder rec;
    rec.record(mkSpan("cpu.adam", "U0", "optimizer", 0, 4));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "cpu=2")});
    EXPECT_DOUBLE_EQ(r.predicted, 2.0);
    EXPECT_EQ(r.matchedSpans, 1u);
}

TEST(WhatIfEval, EngineSerialisationPreserved)
{
    // Independent spans on one compute stream may not overlap after
    // a speedup: 2x on two 2 s spans gives 2 s, not 1 s.
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 2, 0));
    rec.record(mkSpan("gpu0.compute", "B", "compute", 2, 4, 0));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "gpu0=2")});
    EXPECT_DOUBLE_EQ(r.predicted, 2.0);
}

TEST(WhatIfEval, CombinedSpecsMultiplyAndCountOnce)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 4, 0));
    Server srv = testServer();
    WhatIfResult r = evaluateWhatIf(
        rec, srv, {spec(srv, "gpu0=2"), spec(srv, "compute=2")});
    EXPECT_DOUBLE_EQ(r.predicted, 1.0);
    EXPECT_EQ(r.matchedSpans, 1u);
}

// ---------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------

TEST(WhatIfSweepEval, GridValuesAndSensitivity)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 2, 0));
    Server srv = testServer();
    WhatIfSweep s = sweepWhatIf(buildSpanDag(rec), srv,
                                parseWhatIfSweepSpec("gpu0=1:2:3"));
    ASSERT_EQ(s.points.size(), 3u);
    EXPECT_DOUBLE_EQ(s.points[0].predicted, 2.0);
    EXPECT_NEAR(s.points[1].predicted, 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.points[2].predicted, 1.0);
    // (max - min) / value at factor 1 = (2 - 1) / 2.
    EXPECT_NEAR(s.sensitivity(), 0.5, 1e-12);
}

TEST(WhatIfSweepEval, SensitivityPrefersExactWhenComplete)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 2, 0));
    Server srv = testServer();
    WhatIfSweep s = sweepWhatIf(buildSpanDag(rec), srv,
                                parseWhatIfSweepSpec("gpu0=1:2:3"));
    s.points[0].exact = 4.0;
    s.points[1].exact = 3.0;
    s.points[2].exact = 2.0;
    // Exact replaces predicted: (4 - 2) / 4 at the factor-1 ref.
    EXPECT_NEAR(s.sensitivity(), 0.5, 1e-12);
}

// ---------------------------------------------------------------
// Ground-truth perturbation plumbing
// ---------------------------------------------------------------

TEST(WhatIfPerturb, ServerScalesNamedLinkCapacities)
{
    Server srv = testServer();
    int rc0_link = srv.topo.findLinkByName("dram<->rc0");
    int rc1_link = srv.topo.findLinkByName("dram<->rc1");
    ASSERT_GE(rc0_link, 0);
    ASSERT_GE(rc1_link, 0);
    double cap0 = srv.topo.link(rc0_link).capacity;
    double cap1 = srv.topo.link(rc1_link).capacity;

    Server p = perturbServer(srv, {spec(srv, "rc0=2")});
    EXPECT_DOUBLE_EQ(p.topo.link(rc0_link).capacity, 2 * cap0);
    EXPECT_DOUBLE_EQ(p.topo.link(rc1_link).capacity, cap1);
    // The original is untouched.
    EXPECT_DOUBLE_EQ(srv.topo.link(rc0_link).capacity, cap0);

    p = perturbServer(srv, {spec(srv, "link:dram<->rc1=0.5")});
    EXPECT_DOUBLE_EQ(p.topo.link(rc0_link).capacity, cap0);
    EXPECT_DOUBLE_EQ(p.topo.link(rc1_link).capacity, 0.5 * cap1);

    p = perturbServer(srv, {spec(srv, "transfer=2")});
    for (int l = 0; l < srv.topo.numLinks(); ++l) {
        EXPECT_DOUBLE_EQ(p.topo.link(l).capacity,
                         2 * srv.topo.link(l).capacity);
    }
}

TEST(WhatIfPerturb, EngineSpecsLeaveTopologyAlone)
{
    Server srv = testServer();
    Server p = perturbServer(
        srv, {spec(srv, "gpu0=2"), spec(srv, "cpu=0.5")});
    for (int l = 0; l < srv.topo.numLinks(); ++l) {
        EXPECT_DOUBLE_EQ(p.topo.link(l).capacity,
                         srv.topo.link(l).capacity);
    }
}

TEST(WhatIfPerturb, RunPerturbationExtractsEngineFactors)
{
    Server srv = testServer();
    RunPerturbation p = runPerturbation(
        {spec(srv, "gpu1=2"), spec(srv, "cpu=0.5")}, 4);
    ASSERT_EQ(p.gpuComputeFactor.size(), 4u);
    EXPECT_DOUBLE_EQ(p.computeFactor(0), 1.0);
    EXPECT_DOUBLE_EQ(p.computeFactor(1), 2.0);
    EXPECT_DOUBLE_EQ(p.cpuOptimizerFactor, 0.5);
    EXPECT_FALSE(p.identity());
    // Out-of-range GPUs read as unperturbed.
    EXPECT_DOUBLE_EQ(p.computeFactor(-1), 1.0);
    EXPECT_DOUBLE_EQ(p.computeFactor(9), 1.0);

    p = runPerturbation({spec(srv, "compute=3")}, 2);
    EXPECT_DOUBLE_EQ(p.computeFactor(0), 3.0);
    EXPECT_DOUBLE_EQ(p.computeFactor(1), 3.0);

    p = runPerturbation({spec(srv, "optimizer=2")}, 2);
    EXPECT_DOUBLE_EQ(p.cpuOptimizerFactor, 2.0);

    // Link specs live on the topology side only.
    p = runPerturbation({spec(srv, "rc0=2")}, 2);
    EXPECT_TRUE(p.identity());
    EXPECT_TRUE(RunPerturbation{}.identity());
}

// ---------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------

TEST(WhatIfRender, ResultJsonParsesWithAllFields)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 2, 0));
    Server srv = testServer();
    WhatIfResult r =
        evaluateWhatIf(rec, srv, {spec(srv, "gpu0=2")});
    json::JsonValue v = json::parse(whatIfResultJson(r));
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.at("base_step_time").number, 2.0);
    EXPECT_DOUBLE_EQ(v.at("predicted").number, 1.0);
    EXPECT_DOUBLE_EQ(v.at("speedup").number, 2.0);
    EXPECT_DOUBLE_EQ(v.at("matched_spans").number, 1.0);
    EXPECT_FALSE(v.has("exact")); // not validated
    ASSERT_EQ(v.at("specs").array.size(), 1u);
    EXPECT_EQ(v.at("specs").array[0].at("resource").string, "gpu0");
    EXPECT_EQ(v.at("specs").array[0].at("kind").string,
              "gpuCompute");

    r.exact = 1.05;
    v = json::parse(whatIfResultJson(r));
    EXPECT_TRUE(v.has("exact"));
    EXPECT_TRUE(v.has("drift"));
    EXPECT_NEAR(v.at("drift").number, 0.05 / 1.05, 1e-12);
}

TEST(WhatIfRender, SweepJsonAsciiAndReport)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "A", "compute", 0, 2, 0));
    Server srv = testServer();
    WhatIfSweep s = sweepWhatIf(buildSpanDag(rec), srv,
                                parseWhatIfSweepSpec("gpu0=1:2:3"));
    json::JsonValue v = json::parse(whatIfSweepJson(s));
    EXPECT_EQ(v.at("resource").string, "gpu0");
    EXPECT_DOUBLE_EQ(v.at("steps").number, 3.0);
    ASSERT_EQ(v.at("points").array.size(), 3u);
    EXPECT_NEAR(v.at("sensitivity").number, 0.5, 1e-12);

    std::string ascii = whatIfSweepAscii(s);
    EXPECT_NE(ascii.find('#'), std::string::npos);
    EXPECT_NE(ascii.find("sensitivity"), std::string::npos);

    std::string report = whatIfReport(s.points);
    EXPECT_NE(report.find("gpu0=1"), std::string::npos);
    EXPECT_NE(report.find("speedup"), std::string::npos);
}

// ---------------------------------------------------------------
// Predicted vs re-simulated on a real workload
// ---------------------------------------------------------------

TEST(WhatIfEndToEnd, PredictionTracksResimulationOnRealRun)
{
    Server srv = testServer();
    Workload work(gpt3b(), srv);
    MobiusPlan plan = planMobius(srv, work.cost());

    auto step = [&](const Server &s, const RunPerturbation &rp,
                    SpanDag *dag_out) {
        RunContext ctx(s, {.perturb = rp});
        MobiusExecutor exec(ctx, work.cost(), plan.partition,
                            plan.mapping);
        StepStats stats = exec.run();
        if (dag_out)
            *dag_out = buildSpanDag(ctx.trace());
        return stats.stepTime;
    };

    SpanDag dag;
    double base = step(srv, {}, &dag);
    ASSERT_GT(base, 0.0);

    // Doubling every GPU's compute must help, and the DAG
    // prediction must land near the re-simulated truth.
    std::vector<WhatIfSpec> specs = {spec(srv, "compute=2")};
    WhatIfResult r = evaluateWhatIf(dag, srv, specs);
    r.exact = step(perturbServer(srv, specs),
                   runPerturbation(specs, srv.topo.numGpus()),
                   nullptr);
    EXPECT_LT(r.exact, base);
    EXPECT_LT(r.predicted, base);
    EXPECT_GE(r.drift(), 0.0);
    EXPECT_LE(r.drift(), 0.15);

    // Halving rc0 bandwidth cannot speed the step up.
    specs = {spec(srv, "rc0=0.5")};
    double slow = step(perturbServer(srv, specs), {}, nullptr);
    EXPECT_GE(slow, base * 0.999);
}

} // namespace
} // namespace mobius

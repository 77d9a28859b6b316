/**
 * @file
 * Serving-simulator tests: open-loop arrival determinism, continuous
 * batching invariants (FIFO, occupancy), exact latency accounting,
 * placement-policy behaviour (swap vs all-in-GPU vs ZeRO-gather vs
 * adaptive), SLO accounting, and fingerprint identity across
 * parallel replica widths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "model/model.hh"
#include "serve/serve_sim.hh"
#include "simcore/arrival.hh"
#include "simcore/replica_runner.hh"

using namespace mobius;

namespace
{

/** A small, fast MobiusSwap serving config on the 2+2 box. */
ServeOptions
smallOptions()
{
    ServeOptions opts;
    opts.model = gpt3b();
    opts.placement.policy = ServePlacement::MobiusSwap;
    opts.batch.maxBatch = 8;
    return opts;
}

ServeRequest
proto(int prompt = 64, int gen = 6)
{
    ServeRequest r;
    r.promptTokens = prompt;
    r.maxNewTokens = gen;
    return r;
}

} // namespace

TEST(Arrival, PoissonMatchesHistoricRecurrence)
{
    // The extracted helper must reproduce the fleet's inline loop
    // bit for bit: t += -log1p(-U) / rate on one seeded stream.
    const double rate = 3.5;
    const std::uint64_t seed = 99;
    Rng rng(seed);
    double t = 2.0;
    std::vector<double> want;
    for (int i = 0; i < 64; ++i) {
        t += -std::log1p(-rng.uniform()) / rate;
        want.push_back(t);
    }
    const std::vector<double> got =
        poissonArrivalTimes(64, rate, seed, 2.0);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]) << "arrival " << i;
}

TEST(Arrival, SinglePhaseProcessMatchesHelper)
{
    ArrivalProcess proc({{2.0, 123.0}}, 7, 0.0);
    const std::vector<double> a = proc.take(32);
    const std::vector<double> b = poissonArrivalTimes(32, 2.0, 7);
    EXPECT_EQ(a, b);
}

TEST(Arrival, PhasedBurstsConcentrateArrivals)
{
    // Cycle: 10 s at 0.5/s then 10 s at 8/s. Arrivals must pile
    // into the burst segments of each 20 s period.
    ArrivalProcess proc({{0.5, 10.0}, {8.0, 10.0}}, 11, 0.0);
    int base = 0, burst = 0;
    double last = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double t = proc.next();
        EXPECT_GT(t, last); // strictly increasing
        last = t;
        const double ph = std::fmod(t, 20.0);
        (ph < 10.0 ? base : burst) += 1;
    }
    EXPECT_GT(burst, 4 * base);
}

TEST(Arrival, DeterministicAcrossInstances)
{
    ArrivalProcess a({{1.0, 5.0}, {6.0, 2.0}}, 42, 1.0);
    ArrivalProcess b({{1.0, 5.0}, {6.0, 2.0}}, 42, 1.0);
    EXPECT_EQ(a.take(100), b.take(100));
}

TEST(ServeSim, LatencyCategoriesSumToEndToEnd)
{
    ServeSim sim(smallOptions());
    sim.submitOpenLoop(proto(), 12, {{2.0, 1.0}}, 5);
    const ServeMetrics m = sim.run();
    EXPECT_EQ(m.completed, 12u);
    EXPECT_LE(m.worstSumDrift, 1e-9);
    for (const RequestRecord &r : sim.records()) {
        ASSERT_GE(r.finish, 0.0);
        EXPECT_NEAR(r.lat.total(), r.e2e(), 1e-9)
            << "request " << r.spec.id;
        EXPECT_GE(r.lat.queue, 0.0);
        EXPECT_GT(r.lat.prefill, 0.0);
        EXPECT_GT(r.lat.decode, 0.0);
        EXPECT_GE(r.lat.swapStall, 0.0);
    }
}

TEST(ServeSim, FifoAdmissionNoStarvation)
{
    ServeOptions opts = smallOptions();
    opts.batch.maxBatch = 2; // force a backlog
    ServeSim sim(opts);
    sim.submitOpenLoop(proto(), 16, {{50.0, 1.0}}, 3);
    sim.run();
    // Arrival order == id order (open loop); admissions must be
    // monotone in that order: nobody is overtaken.
    const auto &recs = sim.records();
    for (std::size_t i = 1; i < recs.size(); ++i) {
        EXPECT_LE(recs[i - 1].spec.arrival, recs[i].spec.arrival);
        EXPECT_LE(recs[i - 1].admit, recs[i].admit)
            << "request " << i << " overtook its predecessor";
    }
}

TEST(ServeSim, OccupancyNeverExceedsCapacity)
{
    ServeOptions opts = smallOptions();
    opts.batch.maxBatch = 5;
    ServeSim sim(opts);
    sim.submitOpenLoop(proto(), 20, {{40.0, 1.0}}, 9);
    const ServeMetrics m = sim.run();
    EXPECT_LE(m.maxOccupancy, 5);
    EXPECT_GE(m.maxOccupancy, 2); // the backlog did batch
}

TEST(ServeSim, SwapPolicyMovesWeightsEachIteration)
{
    ServeSim sim(smallOptions());
    sim.submitOpenLoop(proto(), 8, {{4.0, 1.0}}, 5);
    const ServeMetrics m = sim.run();
    EXPECT_GT(m.swapLoads, 0u);
    EXPECT_GT(m.swapBytes, 0u);
    EXPECT_GT(m.stallSeconds, 0.0);
}

TEST(ServeSim, AllInGpuAvoidsSwapTrafficWhenModelFits)
{
    ServeOptions opts = smallOptions();
    opts.placement.policy = ServePlacement::AllInGpu;
    ServeSim sim(opts);
    sim.submitOpenLoop(proto(), 8, {{4.0, 1.0}}, 5);
    const ServeMetrics m = sim.run();
    EXPECT_EQ(m.swapLoads, 0u);
    EXPECT_EQ(m.swapBytes, 0u);
}

TEST(ServeSim, AllInGpuOomsOnDramSizedModel)
{
    // GPT-51B is ~102 GB FP16 against 4 x 24 GB GPUs: the fully
    // resident pipeline cannot seat its carve-out.
    ServeOptions opts;
    opts.model = gpt51b();
    opts.placement.policy = ServePlacement::AllInGpu;
    ServeSim sim(opts);
    sim.submit(proto(16, 2));
    EXPECT_THROW(sim.run(), FatalError);
}

TEST(ServeSim, MobiusSwapServesDramSizedModel)
{
    ServeOptions opts;
    opts.model = gpt51b();
    opts.placement.policy = ServePlacement::MobiusSwap;
    ServeSim sim(opts);
    sim.submitOpenLoop(proto(32, 3), 4, {{1.0, 1.0}}, 13);
    const ServeMetrics m = sim.run();
    EXPECT_EQ(m.completed, 4u);
    EXPECT_GT(m.swapBytes, 0u);
    EXPECT_LE(m.worstSumDrift, 1e-9);
}

TEST(ServeSim, MobiusBeatsZeroGatherOnDramSizedModel)
{
    // Same arrivals, same SLO: per-iteration gather traffic is N x
    // Mobius's swap traffic, so goodput must be strictly lower.
    auto makeSim = [](ServePlacement policy, double slo) {
        ServeOptions opts;
        opts.model = gpt51b();
        opts.placement.policy = policy;
        opts.batch.maxBatch = 8;
        opts.slo.e2eSeconds = slo;
        auto sim = std::make_unique<ServeSim>(opts);
        sim->submitOpenLoop(proto(32, 3), 8, {{0.05, 1.0}}, 21);
        return sim;
    };
    // Calibrate the deadline from an unloaded Mobius request.
    ServeOptions probe;
    probe.model = gpt51b();
    ServeSim lone(probe);
    lone.submit(proto(32, 3));
    const double slo = 5.0 * lone.run().e2eMax;

    auto mobiusSim = makeSim(ServePlacement::MobiusSwap, slo);
    auto zeroSim = makeSim(ServePlacement::ZeroGather, slo);
    const ServeMetrics mobius = mobiusSim->run();
    const ServeMetrics zero = zeroSim->run();
    EXPECT_GT(mobius.sloGoodputTokensPerSec,
              zero.sloGoodputTokensPerSec);
    EXPECT_GT(mobius.sloAttainment, zero.sloAttainment);
    EXPECT_LE(zero.worstSumDrift, 1e-9);
    for (const RequestRecord &r : zeroSim->records())
        EXPECT_GE(r.gpu, 0); // data-parallel home GPU assigned
    for (const RequestRecord &r : mobiusSim->records())
        EXPECT_EQ(r.gpu, -1); // pipelined requests have none
}

TEST(ServeSim, AdaptiveSwitchesPlacementUnderBurst)
{
    ServeOptions opts = smallOptions();
    opts.placement.policy = ServePlacement::Adaptive;
    opts.placement.switchHigh = 6;
    opts.batch.maxBatch = 8;
    ServeSim sim(opts);
    // Quiet start, hard burst, quiet drain.
    sim.submitOpenLoop(proto(), 40,
                       {{0.5, 20.0}, {30.0, 2.0}, {0.5, 40.0}},
                       17);
    const ServeMetrics m = sim.run();
    EXPECT_EQ(m.completed, 40u);
    EXPECT_GE(m.switches, 2u); // up into all-in-GPU, back down
    EXPECT_LE(m.worstSumDrift, 1e-9);

    // And it must not lose to never switching at the same load.
    ServeOptions still = opts;
    still.placement.policy = ServePlacement::MobiusSwap;
    ServeSim fixed(still);
    fixed.submitOpenLoop(proto(), 40,
                         {{0.5, 20.0}, {30.0, 2.0}, {0.5, 40.0}},
                         17);
    const ServeMetrics f = fixed.run();
    EXPECT_LE(m.e2eP99, f.e2eP99 + 1e-9);
}

TEST(ServeSim, SloAccounting)
{
    ServeOptions opts = smallOptions();
    opts.slo.e2eSeconds = 3600.0; // everyone makes an hour
    ServeSim sim(opts);
    sim.submit(proto());
    ServeRequest tight = proto();
    tight.arrival = 0.1;
    tight.sloSeconds = 1e-9; // nobody makes a nanosecond
    sim.submit(tight);
    const ServeMetrics m = sim.run();
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.sloMet, 1u);
    EXPECT_TRUE(sim.records()[0].sloMet);
    EXPECT_FALSE(sim.records()[1].sloMet);
    EXPECT_NEAR(m.sloAttainment, 0.5, 1e-12);
}

TEST(ServeSim, SpanRecordingIsOptIn)
{
    ServeOptions off = smallOptions();
    ServeSim quiet(off);
    quiet.submitOpenLoop(proto(), 4, {{4.0, 1.0}}, 5);
    quiet.run();
    EXPECT_EQ(quiet.ctx().trace().spanCount(), 0u);

    ServeOptions on = smallOptions();
    on.recordSpans = true;
    ServeSim traced(on);
    traced.submitOpenLoop(proto(), 4, {{4.0, 1.0}}, 5);
    traced.run();
    EXPECT_GT(traced.ctx().trace().spanCount(), 0u);
    EXPECT_FALSE(
        traced.ctx().trace().onTrack("serve.batcher").empty());
}

TEST(ServeSim, FingerprintIdenticalAcrossReplicaWidths)
{
    // The bench's determinism gate in miniature: the same seeded
    // serving sim, fanned out on worker pools of different widths,
    // must reduce to byte-identical fingerprints in every slot.
    auto cell = [](int slot) {
        (void)slot;
        ServeSim sim(smallOptions());
        sim.submitOpenLoop(proto(), 10, {{3.0, 1.0}}, 31);
        return sim.run().fingerprint;
    };
    const std::uint64_t want = cell(0);
    for (int threads : {1, 4, 0}) {
        std::vector<std::uint64_t> got(6, 0);
        ReplicaRunnerOptions ropts;
        ropts.threads = threads;
        runReplicas(
            6, [&](int i) { got[static_cast<std::size_t>(i)] =
                                cell(i); },
            ropts);
        for (std::uint64_t fp : got)
            EXPECT_EQ(fp, want) << "width " << threads;
    }
}

TEST(ServeSim, FaultsDegradeServiceButAccountingHolds)
{
    ServeOptions opts = smallOptions();
    ServeSim clean(opts);
    clean.submitOpenLoop(proto(), 10, {{3.0, 1.0}}, 8);
    const ServeMetrics base = clean.run();

    opts.faults.xfailProb = 0.05;
    opts.faults.retryBudget = 16;
    opts.faultSeed = 4;
    ServeSim faulty(opts);
    faulty.submitOpenLoop(proto(), 10, {{3.0, 1.0}}, 8);
    const ServeMetrics hurt = faulty.run();

    EXPECT_EQ(hurt.completed, 10u);
    EXPECT_GT(hurt.faultFailures, 0u);
    EXPECT_GE(hurt.faultRetries, hurt.faultFailures);
    EXPECT_LE(hurt.worstSumDrift, 1e-9);
    // Retried transfers stretch iterations: tail latency suffers.
    EXPECT_GE(hurt.e2eP99, base.e2eP99);
    EXPECT_GT(hurt.stallSeconds, base.stallSeconds);
}

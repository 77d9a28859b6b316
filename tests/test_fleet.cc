/**
 * @file
 * Tests for the fleet simulator stack: the plan memo (hit vs miss
 * span-for-span identity, its counts), the canonical job keys,
 * scheduler edge cases (empty fleet, simultaneous-arrival
 * tie-breaks, head-of-line blocking vs backfill, priority
 * preemption), and the fleet determinism contract — metrics
 * bit-identical across thread widths and with the memo on or off,
 * and one plan and one step simulation per distinct key.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "fleet/fleet_sim.hh"
#include "fleet/job.hh"
#include "fleet/scheduler.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace mobius
{
namespace
{

/** Small Mobius job used throughout: gpt3b on a 2+2 commodity box. */
JobSpec
smallJob()
{
    JobSpec spec;
    spec.model = gpt3b();
    spec.groups = {2, 2};
    spec.steps = 1;
    return spec;
}

TEST(JobKeys, PlanKeyCoversPlannerInputsOnly)
{
    JobSpec a = smallJob();
    JobSpec b = a;
    // Fleet metadata the planner never reads must not split keys.
    b.id = 99;
    b.name = "other";
    b.arrival = 17.0;
    b.priority = 3;
    b.steps = 12;
    b.faultSeed = 1234;
    EXPECT_EQ(jobPlanKey(a), jobPlanKey(b));

    // Every planner-relevant input must split the key.
    JobSpec c = a;
    c.groups = {4};
    EXPECT_NE(jobPlanKey(a), jobPlanKey(c));
    JobSpec d = a;
    d.model = gpt8b();
    EXPECT_NE(jobPlanKey(a), jobPlanKey(d));
    JobSpec e = a;
    e.microbatchSize = 2 * a.model.microbatchSize; // != Table 3 default
    EXPECT_NE(jobPlanKey(a), jobPlanKey(e));
    JobSpec f = a;
    f.mapping = MappingAlgo::Sequential;
    EXPECT_NE(jobPlanKey(a), jobPlanKey(f));
    JobSpec g = a;
    g.dataCenter = true;
    g.groups = {4};
    EXPECT_NE(jobPlanKey(a), jobPlanKey(g));

    // The sim key adds what only the simulation reads.
    JobSpec h = a;
    h.system = System::DeepSpeed;
    EXPECT_EQ(jobPlanKey(a), jobPlanKey(h));
    EXPECT_NE(jobSimKey(a), jobSimKey(h));
    JobSpec i = a;
    i.faultSeed = 77;
    EXPECT_NE(jobSimKey(a), jobSimKey(i));
}

/**
 * The PlanCache correctness contract: a simulation driven by a
 * cached plan is span-for-span identical to one driven by a fresh
 * solve — same trace digest, same step time, bit for bit.
 */
TEST(PlanCacheContract, HitIsSpanForSpanIdenticalToFreshSolve)
{
    JobSpec spec = smallJob();
    PlanCache cache;
    JobStepResult miss = simulateJobStep(spec, &cache);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    JobStepResult hit = simulateJobStep(spec, &cache);
    JobStepResult fresh = simulateJobStep(spec, nullptr);

    ASSERT_GT(miss.spanCount, 0u);
    EXPECT_EQ(hit.spanCount, miss.spanCount);
    EXPECT_EQ(hit.spanHash, miss.spanHash);
    EXPECT_EQ(fresh.spanHash, miss.spanHash);
    EXPECT_EQ(hit.stats.stepTime, miss.stats.stepTime);
    EXPECT_EQ(fresh.stats.stepTime, miss.stats.stepTime);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(FleetSim, EmptyFleetReducesToZeroMetrics)
{
    FleetSim fleet;
    FleetMetrics m = fleet.run();
    EXPECT_EQ(m.jobs, 0u);
    EXPECT_EQ(m.completed, 0u);
    EXPECT_EQ(m.makespan, 0.0);
    EXPECT_EQ(m.jctP50, 0.0);
    EXPECT_EQ(m.utilization, 0.0);
    EXPECT_EQ(m.goodput, 0.0);
    EXPECT_EQ(m.planHits, 0u);
    EXPECT_EQ(m.planMisses, 0u);
    EXPECT_TRUE(fleet.records().empty());
    // The empty fingerprint is still defined (digest of zero jobs).
    FleetSim again;
    EXPECT_EQ(again.run().fingerprint, m.fingerprint);
}

TEST(FleetSim, UnknownServerClassIsFatalAtSubmit)
{
    FleetSim fleet;
    JobSpec spec = smallJob();
    spec.serverClass = "no-such-class";
    EXPECT_THROW(fleet.submit(spec), FatalError);
}

TEST(FleetSim, SystemOutsideTheFleetIsFatalAtSubmit)
{
    FleetSim fleet;
    JobSpec spec = smallJob();
    spec.system = System::GPipe;
    EXPECT_THROW(fleet.submit(spec), FatalError);
    spec.system = System::DeepSpeed;
    EXPECT_EQ(fleet.submit(spec), 0);
}

TEST(FleetSim, SimultaneousArrivalsAreTieBrokenByJobId)
{
    // One server, three jobs arriving at the same instant: they must
    // serialize in job-id order, each starting when the previous
    // finishes.
    FleetOptions opts;
    opts.threads = 1;
    FleetSim fleet(opts);
    JobSpec proto = smallJob();
    proto.arrival = 1.0;
    for (int i = 0; i < 3; ++i)
        fleet.submit(proto);
    FleetMetrics m = fleet.run();
    EXPECT_EQ(m.completed, 3u);
    const auto &recs = fleet.records();
    ASSERT_EQ(recs.size(), 3u);
    double step = recs[0].stepTime;
    ASSERT_GT(step, 0.0);
    EXPECT_DOUBLE_EQ(recs[0].start, 1.0);
    EXPECT_DOUBLE_EQ(recs[1].start, 1.0 + step);
    EXPECT_NEAR(recs[2].start, 1.0 + 2 * step, 1e-9);
    EXPECT_NEAR(recs[2].queueDelay, 2 * step, 1e-9);
    // One server busy end to end: utilization is the occupied
    // fraction of the span from t=0 to the last finish.
    EXPECT_NEAR(m.makespan, 1.0 + 3 * step, 1e-9);
    EXPECT_NEAR(m.utilization, 3 * step / m.makespan, 1e-9);
}

TEST(FleetSim, BlockedHeadBlocksOtherClassesOnlyWithoutBackfill)
{
    // Two classes, one server each. Job 0 occupies "commodity";
    // job 1 (same class) is blocked at the head of the queue; job 2
    // wants the idle "dc" server.
    struct Outcome
    {
        FleetMetrics m;
        std::vector<FleetJobRecord> recs;
    };
    auto run = [](bool backfill) {
        FleetOptions opts;
        opts.threads = 1;
        opts.backfill = backfill;
        opts.servers.push_back({"commodity", {2, 2}, false, 1});
        opts.servers.push_back({"dc", {4}, true, 1});
        FleetSim fleet(opts);
        JobSpec a = smallJob();
        fleet.submit(a); // job 0: starts at 0
        a.arrival = 0.5;
        fleet.submit(a); // job 1: blocked behind job 0
        JobSpec b = smallJob();
        b.serverClass = "dc";
        b.arrival = 0.6;
        fleet.submit(b); // job 2: idle dc server available
        Outcome out;
        out.m = fleet.run();
        out.recs = fleet.records();
        return out;
    };

    Outcome fifo = run(false);
    double step0 = fifo.recs[0].stepTime;
    ASSERT_GT(step0, 0.6);
    // Strict FIFO: the blocked head holds job 2 back too.
    EXPECT_DOUBLE_EQ(fifo.recs[2].start, step0);
    EXPECT_EQ(fifo.m.sched.backfills, 0u);

    Outcome easy = run(true);
    // EASY-lite: job 2 jumps the blocked commodity head and starts
    // at its own arrival on the idle dc machine.
    EXPECT_DOUBLE_EQ(easy.recs[2].start, 0.6);
    EXPECT_EQ(easy.m.sched.backfills, 1u);
    // Within the blocked class, FIFO order is preserved.
    EXPECT_DOUBLE_EQ(easy.recs[1].start, step0);
}

TEST(FleetSim, PreemptionEvictsLowerPriorityAndDocksWholeSteps)
{
    FleetOptions opts;
    opts.threads = 1;
    opts.preemption = true;
    FleetSim fleet(opts);
    JobSpec low = smallJob();
    low.steps = 3;
    low.priority = 5;
    fleet.submit(low);
    JobSpec high = smallJob();
    high.steps = 1;
    high.priority = 0;
    high.arrival = 0.25;
    fleet.submit(high);
    FleetMetrics m = fleet.run();
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.sched.preemptions, 1u);
    const auto &recs = fleet.records();
    EXPECT_EQ(recs[0].preemptions, 1);
    EXPECT_EQ(recs[1].preemptions, 0);
    // The high-priority job starts at its arrival, on the server it
    // just evicted the victim from.
    EXPECT_DOUBLE_EQ(recs[1].start, 0.25);
    double step = recs[0].stepTime;
    ASSERT_GT(step, 0.25);
    // The victim had finished 0 whole steps at t=0.25, so it
    // restarts from scratch after the high job's single step and
    // still runs all 3 steps; occupancy counts both stints.
    EXPECT_DOUBLE_EQ(recs[0].finish, 0.25 + step + 3 * step);
    EXPECT_NEAR(recs[0].occupiedSeconds, 0.25 + 3 * step, 1e-9);
    EXPECT_GT(recs[0].finish, recs[1].finish);
}

/** Run one mixed fleet and return its metrics. */
FleetMetrics
mixedFleet(int threads, bool plan_cache, std::uint64_t *fp_jobs = nullptr)
{
    FleetOptions opts;
    opts.threads = threads;
    opts.planCache = plan_cache;
    opts.preemption = true;
    opts.backfill = true;
    opts.servers.push_back({"commodity", {2, 2}, false, 2});
    FleetSim fleet(opts);
    JobSpec proto = smallJob();
    proto.steps = 2;
    fleet.submitPoisson(proto, 8, 2.0, 42);
    // A couple of high-priority latecomers to exercise eviction.
    JobSpec vip = smallJob();
    vip.priority = -1;
    vip.arrival = 1.0;
    fleet.submit(vip);
    vip.arrival = 1.0; // simultaneous VIPs: id tie-break
    fleet.submit(vip);
    FleetMetrics m = fleet.run();
    if (fp_jobs)
        *fp_jobs = m.jobs;
    return m;
}

TEST(FleetSim, MetricsBitIdenticalAcrossThreadWidths)
{
    FleetMetrics serial = mixedFleet(1, true);
    FleetMetrics wide = mixedFleet(4, true);
    EXPECT_EQ(serial.fingerprint, wide.fingerprint);
    EXPECT_EQ(serial.jctP50, wide.jctP50);
    EXPECT_EQ(serial.jctP99, wide.jctP99);
    EXPECT_EQ(serial.waitP99, wide.waitP99);
    EXPECT_EQ(serial.makespan, wide.makespan);
    EXPECT_EQ(serial.utilization, wide.utilization);
    EXPECT_EQ(serial.sched.preemptions, wide.sched.preemptions);
    EXPECT_GT(serial.sched.preemptions, 0u);
    // Hit/miss counts are deterministic too: misses always equal
    // distinct plan keys.
    EXPECT_EQ(serial.planMisses, wide.planMisses);
    EXPECT_EQ(serial.planHits, wide.planHits);
}

TEST(FleetSim, MetricsBitIdenticalWithPlanCacheOnOrOff)
{
    FleetMetrics cached = mixedFleet(2, true);
    FleetMetrics uncached = mixedFleet(2, false);
    EXPECT_EQ(cached.fingerprint, uncached.fingerprint);
    EXPECT_EQ(cached.makespan, uncached.makespan);
    EXPECT_GT(cached.planHits, 0u);
    EXPECT_EQ(cached.planMisses, 1u); // one distinct plan key
    EXPECT_EQ(uncached.planHits, 0u);
    EXPECT_EQ(uncached.planMisses, 0u);
}

/**
 * A faulted, traced fleet whose keys are partly shared: Mobius and
 * DeepSpeed jobs, commodity and DC classes, some jobs sharing a
 * fault seed. Two Mobius plan keys (commodity, DC), six step keys
 * and four fault-free keys (plan key x system) cover its ten jobs.
 */
std::unique_ptr<FleetSim>
keyedFleet(int threads, bool memo)
{
    FleetOptions opts;
    opts.threads = threads;
    opts.planCache = memo;
    opts.preemption = true;
    opts.backfill = true;
    opts.servers.push_back({"commodity", {2, 2}, false, 2});
    opts.servers.push_back({"dc", {4}, true, 1});
    opts.faults.xfailProb = 0.05;
    opts.faults.retryBudget = 10;
    opts.faults.retryBackoff = 1e-4;
    opts.trace.enabled = true;
    auto fleet = std::make_unique<FleetSim>(opts);
    struct Job
    {
        System system;
        const char *klass;
        std::uint64_t seed;
        int priority;
    };
    const System M = System::Mobius, D = System::DeepSpeed;
    const Job jobs[] = {
        {M, "commodity", 1, 5}, {M, "commodity", 1, 5},
        {M, "commodity", 2, 5}, {D, "commodity", 1, 5},
        {D, "commodity", 1, 0}, {M, "dc", 1, 5},
        {M, "dc", 1, 5},        {D, "dc", 3, 0},
        {M, "commodity", 2, 0}, {M, "commodity", 4, 5},
    };
    double arrival = 0.0;
    for (const Job &j : jobs) {
        JobSpec spec = smallJob();
        spec.system = j.system;
        spec.serverClass = j.klass;
        spec.faultSeed = j.seed;
        spec.priority = j.priority;
        spec.steps = 2;
        spec.arrival = arrival;
        arrival += 0.2;
        fleet->submit(spec);
    }
    return fleet;
}

TEST(FleetSim, MemoOnOrOffIsBitIdenticalOnSharedAndDistinctKeys)
{
    auto oracle = keyedFleet(1, false);
    FleetMetrics om = oracle->run();
    const std::string report = oracle->reportJsonl();
    ASSERT_EQ(om.completed, 10u);
    EXPECT_GT(om.sched.preemptions, 0u);
    EXPECT_EQ(om.planHits, 0u);
    EXPECT_EQ(om.planMisses, 0u);
    // Faults bite: some step is slower than its fault-free twin.
    bool slowed = false;
    for (const FleetJobRecord &r : oracle->records())
        slowed = slowed || r.stepTime > r.cleanStepTime;
    EXPECT_TRUE(slowed);

    for (int threads : {1, 4}) {
        for (bool memo : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << "threads " << threads << " memo " << memo);
            auto fleet = keyedFleet(threads, memo);
            FleetMetrics m = fleet->run();
            EXPECT_EQ(m.fingerprint, om.fingerprint);
            EXPECT_EQ(m.decisionFingerprint, om.decisionFingerprint);
            EXPECT_EQ(m.goodput, om.goodput);
            EXPECT_EQ(fleet->reportJsonl(), report);
            const auto &recs = fleet->records();
            ASSERT_EQ(recs.size(), oracle->records().size());
            for (std::size_t i = 0; i < recs.size(); ++i) {
                const FleetJobRecord &a = recs[i];
                const FleetJobRecord &b = oracle->records()[i];
                EXPECT_EQ(a.stepTime, b.stepTime) << "job " << i;
                EXPECT_EQ(a.cleanStepTime, b.cleanStepTime)
                    << "job " << i;
                EXPECT_EQ(a.spanHash, b.spanHash) << "job " << i;
                EXPECT_EQ(a.spanCount, b.spanCount) << "job " << i;
            }
            // Seven Mobius jobs on two plan keys.
            EXPECT_EQ(m.planMisses, memo ? 2u : 0u);
            EXPECT_EQ(m.planHits, memo ? 5u : 0u);
        }
    }
}

/** keyedFleet's profiler zone counts by path, and its distinct
 *  plan and step keys. */
struct ProfiledRun
{
    std::map<std::string, std::uint64_t> zones;
    std::set<std::string> plans, steps;
};

ProfiledRun
profiledKeyedFleet(int threads, bool memo)
{
    auto fleet = keyedFleet(threads, memo);
    prof::reset();
    prof::setEnabled(true);
    fleet->run();
    prof::setEnabled(false);
    ProfiledRun out;
    for (const prof::ZoneStats &z : prof::snapshot().zones)
        out.zones[z.path] += z.count;
    prof::reset();
    for (const FleetJobRecord &r : fleet->records()) {
        if (r.spec.system == System::Mobius)
            out.plans.insert(jobPlanKey(r.spec));
        out.steps.insert(jobSimKey(r.spec));
    }
    return out;
}

TEST(FleetSim, MemoPlansAndSimulatesEachDistinctKeyOnce)
{
    // Every plan and every step runs as one runReplicas() body
    // (one root simcore.replica zone); a plan also opens fleet.plan.
    for (int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads);
        ProfiledRun run = profiledKeyedFleet(threads, true);
        ASSERT_EQ(run.plans.size(), 2u);
        ASSERT_EQ(run.steps.size(), 6u);
        const std::size_t cleans = 4; // 2 classes x 2 systems
        EXPECT_EQ(run.zones["simcore.replica;fleet.plan"],
                  run.plans.size());
        EXPECT_EQ(run.zones["simcore.replica"],
                  run.plans.size() + run.steps.size() + cleans);
    }
    // Memo off, every job is its own key: 7 Mobius plans, and ten
    // faulted plus ten fault-free steps.
    ProfiledRun off = profiledKeyedFleet(1, false);
    EXPECT_EQ(off.zones["simcore.replica;fleet.plan"], 7u);
    EXPECT_EQ(off.zones["simcore.replica"], 7u + 10u + 10u);
}

TEST(FleetSim, PoissonSubmissionIsDeterministicPerSeed)
{
    auto arrivals = [](std::uint64_t seed) {
        FleetOptions opts;
        opts.threads = 1;
        FleetSim fleet(opts);
        JobSpec proto = smallJob();
        fleet.submitPoisson(proto, 6, 3.0, seed);
        fleet.run();
        std::vector<double> out;
        for (const auto &r : fleet.records())
            out.push_back(r.arrival);
        return out;
    };
    std::vector<double> a = arrivals(7);
    EXPECT_EQ(a, arrivals(7));
    EXPECT_NE(a, arrivals(8));
    // Arrivals are sorted (gaps are appended) and strictly positive.
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]);
}

TEST(FleetSim, CleanFleetHasUnitGoodputAndFaultedFleetLess)
{
    FleetOptions opts;
    opts.threads = 1;
    FleetSim clean(opts);
    JobSpec proto = smallJob();
    proto.steps = 2;
    for (int i = 0; i < 3; ++i)
        clean.submit(proto);
    FleetMetrics mc = clean.run();
    // Without faults every occupied second is useful work (up to
    // event-time rounding).
    EXPECT_NEAR(mc.goodput, 1.0, 1e-9);

    FleetOptions fopts;
    fopts.threads = 1;
    fopts.faults.xfailProb = 0.05;
    fopts.faults.retryBudget = 10;
    fopts.faults.retryBackoff = 1e-4;
    FleetSim faulted(fopts);
    for (int i = 0; i < 3; ++i) {
        proto.faultSeed = 100 + static_cast<std::uint64_t>(i);
        faulted.submit(proto);
    }
    FleetMetrics mfault = faulted.run();
    EXPECT_GT(mfault.goodput, 0.0);
    EXPECT_LT(mfault.goodput, 1.0);
    // Faulted steps are slower than their clean baseline.
    for (const auto &r : faulted.records())
        EXPECT_GT(r.stepTime, r.cleanStepTime);
}

TEST(FleetSim, FailingStepSimulationSurfacesFromRunAtAnyWidth)
{
    // A step that exhausts its retry budget loses its job, which is
    // fatal for the whole run — with the same error at any width.
    auto failure = [](int threads) {
        FleetOptions opts;
        opts.threads = threads;
        opts.faults.xfailProb = 0.9;
        opts.faults.retryBudget = 0;
        FleetSim fleet(opts);
        fleet.submitPoisson(smallJob(), 6, 1.0, 3);
        try {
            fleet.run();
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        ADD_FAILURE() << "run() did not throw at threads " << threads;
        return std::string();
    };
    std::string serial = failure(1);
    EXPECT_NE(serial.find("retry budget 0 exhausted"), std::string::npos)
        << serial;
    EXPECT_EQ(serial, failure(4));
}

TEST(FleetSim, PopulatesMetricsRegistry)
{
    MetricsRegistry reg;
    FleetOptions opts;
    opts.threads = 1;
    opts.metrics = &reg;
    FleetSim fleet(opts);
    JobSpec proto = smallJob();
    for (int i = 0; i < 2; ++i)
        fleet.submit(proto);
    FleetMetrics m = fleet.run();
    EXPECT_EQ(reg.counter("fleet.jobs").value(),
              static_cast<double>(m.jobs));
    EXPECT_EQ(reg.counter("fleet.completed").value(),
              static_cast<double>(m.completed));
    EXPECT_EQ(reg.counter("fleet.plan.hits").value(),
              static_cast<double>(m.planHits));
    EXPECT_EQ(reg.histogram("fleet.jct").count(), m.completed);
    EXPECT_EQ(reg.histogram("fleet.wait").count(), m.completed);
    EXPECT_EQ(reg.gauge("fleet.makespan").value(), m.makespan);
    EXPECT_EQ(reg.gauge("fleet.goodput").value(), m.goodput);
}

TEST(ExactQuantile, InterpolatesAndHandlesEdges)
{
    EXPECT_EQ(exactQuantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(exactQuantile({3.0}, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(exactQuantile({3.0}, 1.0), 3.0);
    std::vector<double> v{4.0, 1.0, 3.0, 2.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(exactQuantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(exactQuantile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(exactQuantile(v, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(exactQuantile(v, 1.0 / 3.0), 2.0);
    EXPECT_DOUBLE_EQ(exactQuantile(v, 0.99), 3.97);
}

} // namespace
} // namespace mobius

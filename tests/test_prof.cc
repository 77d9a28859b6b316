/**
 * @file
 * Host self-profiler tests (obs/prof.hh): exact nested self-time
 * accounting under deterministic clocks, byte-identical merged
 * output across runReplicas() thread widths, allocation-free zones
 * when disabled (and in the enabled steady state), the prof.*
 * metrics export, and one zone per planMobius() phase.
 */

#include <string>

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"
#include "runtime/api.hh"
#include "simcore/replica_runner.hh"

namespace
{

using namespace mobius;

// Deterministic clocks: each read advances a thread-local counter by
// an exactly-representable step, so zone durations are fixed deltas
// that do not depend on thread start offsets or scheduling.
thread_local double t_wall = 0.0;
thread_local double t_cpu = 0.0;

double
fakeWall()
{
    t_wall += 1.0;
    return t_wall;
}

double
fakeCpu()
{
    t_cpu += 0.25;
    return t_cpu;
}

/** Reset the profiler, install fake clocks, enable; undo on exit. */
class ProfSandbox
{
  public:
    ProfSandbox()
    {
        prof::reset();
        prof::setClocksForTest(fakeWall, fakeCpu);
        prof::setEnabled(true);
    }

    ~ProfSandbox()
    {
        prof::setEnabled(false);
        prof::setClocksForTest(nullptr, nullptr);
        prof::reset();
    }
};

TEST(Prof, NestedSelfTimesSumExactly)
{
    ProfSandbox sandbox;
    {
        MOBIUS_PROF_ZONE("t.a");
        {
            MOBIUS_PROF_ZONE("t.b");
        }
        {
            MOBIUS_PROF_ZONE("t.b");
        }
        {
            MOBIUS_PROF_ZONE("t.c");
        }
    }
    prof::setEnabled(false);
    prof::Snapshot snap = prof::snapshot();

    // Depth-first, siblings name-sorted: t.a, t.a;t.b, t.a;t.c.
    ASSERT_EQ(snap.zones.size(), 3u);
    const prof::ZoneStats &a = snap.zones[0];
    const prof::ZoneStats &b = snap.zones[1];
    const prof::ZoneStats &c = snap.zones[2];
    EXPECT_EQ(a.path, "t.a");
    EXPECT_EQ(b.path, "t.a;t.b");
    EXPECT_EQ(c.path, "t.a;t.c");
    EXPECT_EQ(a.depth, 0);
    EXPECT_EQ(b.depth, 1);
    EXPECT_EQ(c.depth, 1);
    EXPECT_EQ(a.count, 1u);
    EXPECT_EQ(b.count, 2u);
    EXPECT_EQ(c.count, 1u);

    // Wall reads advance by exactly 1.0: the three inner zones last
    // 1.0 each (enter + leave read), t.a spans reads 1..8 = 7.0.
    EXPECT_EQ(a.wallTotal, 7.0);
    EXPECT_EQ(b.wallTotal, 2.0);
    EXPECT_EQ(c.wallTotal, 1.0);
    EXPECT_EQ(a.wallSelf, 7.0 - 3.0);
    EXPECT_EQ(b.wallSelf, b.wallTotal); // leaves: self == total
    EXPECT_EQ(c.wallSelf, c.wallTotal);
    EXPECT_EQ(a.wallMax, 7.0);
    EXPECT_EQ(b.wallMax, 1.0);

    // CPU reads advance by exactly 0.25.
    EXPECT_EQ(a.cpuTotal, 1.75);
    EXPECT_EQ(b.cpuTotal, 0.5);
    EXPECT_EQ(c.cpuTotal, 0.25);
    EXPECT_EQ(a.cpuSelf, 1.0);

    // The headline invariant: self times sum exactly to the root
    // total (identical floating-point order, zero drift here).
    EXPECT_EQ(snap.wallTotalRoots(), 7.0);
    EXPECT_EQ(snap.wallSelfSum(), 7.0);
    EXPECT_EQ(snap.selfSumDrift(), 0.0);
    EXPECT_EQ(snap.threads, 1);
}

/**
 * Run a profiled job batch through runReplicas() at @p threads and
 * @return the rendered table plus folded stacks.
 */
std::string
replicaProfile(int threads)
{
    ProfSandbox sandbox;
    constexpr int kJobs = 12;
    // Returns after joining the workers; no zone is open past it.
    runReplicas(
        kJobs,
        [](int i) {
            MOBIUS_PROF_ZONE("t.job");
            if (i % 2) {
                MOBIUS_PROF_ZONE("t.odd");
            } else {
                MOBIUS_PROF_ZONE("t.even");
            }
        },
        {threads});
    prof::setEnabled(false);
    prof::Snapshot snap = prof::snapshot();
    return prof::table(snap) + folded(snap);
}

TEST(Prof, MergedOutputByteIdenticalAcrossPumpWidths)
{
    // Same jobs, same deterministic per-thread clocks: the merged
    // table and folded stacks must not depend on how runReplicas()
    // spreads jobs over workers. threads: 1 = inline on the calling
    // thread, 4 = fixed pool, 0 = hardware concurrency.
    std::string one = replicaProfile(1);
    EXPECT_EQ(one, replicaProfile(4));
    EXPECT_EQ(one, replicaProfile(0));
    // Sanity: the runner's own zone wraps the job bodies.
    EXPECT_NE(one.find("simcore.replica"), std::string::npos);
    EXPECT_NE(one.find("t.job"), std::string::npos);
}

TEST(Prof, DisabledZoneAllocatesNothing)
{
    prof::setEnabled(false);
    auto zoneOnce = [] { MOBIUS_PROF_ZONE("t.disabled"); };
    zoneOnce(); // first execution registers the static Site
    std::size_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i)
        zoneOnce();
    EXPECT_EQ(g_new_calls.load(std::memory_order_relaxed), before);
}

TEST(Prof, EnabledSteadyStateAllocatesNothing)
{
    ProfSandbox sandbox;
    auto zoneOnce = [] {
        MOBIUS_PROF_ZONE("t.steady");
        MOBIUS_PROF_ZONE("t.steady.inner");
    };
    // First pass pays the one-time costs: site registration, thread
    // registration, node creation, stack growth.
    zoneOnce();
    std::size_t before = g_new_calls.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i)
        zoneOnce();
    EXPECT_EQ(g_new_calls.load(std::memory_order_relaxed), before);
}

TEST(Prof, PlanMobiusZonesEachPlannerPhaseOnce)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    ProfSandbox sandbox;
    planMobius(server, work.cost());
    prof::setEnabled(false);
    prof::Snapshot snap = prof::snapshot();

    // The three phases run one after another, each a root zone.
    for (const char *phase :
         {"plan.profile", "plan.partition", "plan.mapping"}) {
        int rows = 0;
        for (const prof::ZoneStats &z : snap.zones) {
            if (z.path != phase)
                continue;
            ++rows;
            EXPECT_EQ(z.count, 1u) << phase;
        }
        EXPECT_EQ(rows, 1) << phase;
    }
}

TEST(Prof, MetricsExportCarriesZonesAndRollups)
{
    ProfSandbox sandbox;
    {
        MOBIUS_PROF_ZONE("t.export");
        {
            MOBIUS_PROF_ZONE("t.child");
        }
    }
    prof::setEnabled(false);
    prof::Snapshot snap = prof::snapshot();

    MetricsRegistry registry;
    exportProfSnapshot(snap, registry);
    // Path separator ';' becomes '.' in metric names.
    EXPECT_EQ(registry.counter("prof.t.export.calls").value(), 1.0);
    EXPECT_EQ(registry.counter("prof.t.export.t.child.calls").value(),
              1.0);
    EXPECT_EQ(registry.gauge("prof.t.export.wall_seconds").value(),
              3.0);
    EXPECT_EQ(registry.gauge("prof.t.export.self_seconds").value(),
              2.0);
    EXPECT_EQ(registry.gauge("prof.threads").value(), 1.0);
    EXPECT_EQ(registry.gauge("prof.wall_total_seconds").value(), 3.0);
}

} // namespace

/**
 * @file
 * Tests for fleet observability (obs/fleet_trace.hh + the FleetSim
 * integration): the decision-log golden sequences on the PR 7
 * backfill and preemption scenarios, per-job event rings with
 * counted (never silent) truncation, byte-identity of the report
 * JSONL and Chrome timeline across thread widths and plan-cache
 * settings, per-job attribution summing to the JCT, and the
 * fatal-without-tracing accessor contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "fleet/fleet_sim.hh"
#include "obs/fleet_trace.hh"

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

/** Tracing config with an effectively unbounded per-job ring. */
FleetTraceConfig
tracing(int max_events_per_job = 0)
{
    FleetTraceConfig cfg;
    cfg.enabled = true;
    cfg.maxEventsPerJob = max_events_per_job;
    return cfg;
}

/**
 * The PR 7 preemption scenario, traced: a low-priority 3-step job
 * is evicted mid-first-step by a high-priority arrival at t=0.25,
 * docks to zero whole steps, and resumes after the preemptor
 * finishes.
 */
std::unique_ptr<FleetSim>
preemptionFleet(FleetTraceConfig trace)
{
    FleetOptions opts;
    opts.threads = 1;
    opts.preemption = true;
    opts.trace = trace;
    auto fleet = std::make_unique<FleetSim>(opts);
    JobSpec low = smallJob();
    low.steps = 3;
    low.priority = 5;
    fleet->submit(low);
    JobSpec high = smallJob();
    high.steps = 1;
    high.priority = 0;
    high.arrival = 0.25;
    fleet->submit(high);
    return fleet;
}

/**
 * The PR 7 backfill scenario, traced: job 0 occupies the only
 * commodity server, job 1 (same class) blocks at the head, and
 * job 2 backfills onto the idle dc server at its own arrival.
 */
std::unique_ptr<FleetSim>
backfillFleet(FleetTraceConfig trace)
{
    FleetOptions opts;
    opts.threads = 1;
    opts.backfill = true;
    opts.servers.push_back({"commodity", {2, 2}, false, 1});
    opts.servers.push_back({"dc", {4}, true, 1});
    opts.trace = trace;
    auto fleet = std::make_unique<FleetSim>(opts);
    JobSpec a = smallJob();
    fleet->submit(a); // job 0: starts at 0
    a.arrival = 0.5;
    fleet->submit(a); // job 1: blocked behind job 0
    JobSpec b = smallJob();
    b.serverClass = "dc";
    b.arrival = 0.6;
    fleet->submit(b); // job 2: idle dc server available
    return fleet;
}

/** A mixed preempting+backfilling fleet (PR 7's identity fixture). */
std::unique_ptr<FleetSim>
mixedFleet(int threads, bool plan_cache, FleetTraceConfig trace = {})
{
    FleetOptions opts;
    opts.threads = threads;
    opts.planCache = plan_cache;
    opts.preemption = true;
    opts.backfill = true;
    opts.servers.push_back({"commodity", {2, 2}, false, 2});
    opts.trace = trace;
    auto fleet = std::make_unique<FleetSim>(opts);
    JobSpec proto = smallJob();
    proto.steps = 2;
    fleet->submitPoisson(proto, 8, 2.0, 42);
    JobSpec vip = smallJob();
    vip.priority = -1;
    vip.arrival = 1.0;
    fleet->submit(vip);
    vip.arrival = 1.0;
    fleet->submit(vip);
    return fleet;
}

TEST(FleetTrace, DecisionLogGoldenOnPreemption)
{
    auto fleet = preemptionFleet(tracing());
    FleetMetrics m = fleet->run();
    EXPECT_EQ(m.sched.preemptions, 1u);
    double step = fleet->records()[0].stepTime;
    ASSERT_GT(step, 0.25);

    // Exactly four decisions, in event order: job 0 admitted, the
    // VIP preempts it, the VIP takes the vacated server, job 0
    // resumes once the VIP finishes.
    const auto &ds = fleet->fleetTrace().decisions();
    ASSERT_EQ(ds.size(), 4u);
    EXPECT_EQ(ds[0].kind, FleetDecision::Kind::Admit);
    EXPECT_EQ(ds[0].job, 0);
    EXPECT_EQ(ds[0].server, 0);
    EXPECT_EQ(ds[0].freeInClass, 1);
    EXPECT_DOUBLE_EQ(ds[0].time, 0.0);

    EXPECT_EQ(ds[1].kind, FleetDecision::Kind::Preempt);
    EXPECT_DOUBLE_EQ(ds[1].time, 0.25);
    EXPECT_EQ(ds[1].job, 1);
    EXPECT_EQ(ds[1].priority, 0);
    EXPECT_EQ(ds[1].victim, 0);
    EXPECT_EQ(ds[1].victimPriority, 5);
    EXPECT_DOUBLE_EQ(ds[1].victimStart, 0.0);
    EXPECT_EQ(ds[1].freeInClass, 0);
    EXPECT_EQ(ds[1].klass, "commodity");
    EXPECT_NE(ds[1].why.find("preempted job 0"), std::string::npos);
    EXPECT_NE(ds[1].why.find("for job 1 (prio 0)"),
              std::string::npos);

    EXPECT_EQ(ds[2].kind, FleetDecision::Kind::Admit);
    EXPECT_EQ(ds[2].job, 1);
    EXPECT_EQ(ds[2].freeInClass, 0); // took the vacated server

    EXPECT_EQ(ds[3].kind, FleetDecision::Kind::Admit);
    EXPECT_EQ(ds[3].job, 0); // the resume placement
    EXPECT_DOUBLE_EQ(ds[3].time, 0.25 + step);

    // The victim's full event story, oldest first.
    std::vector<FleetEvent> ev = fleet->fleetTrace().events(0);
    ASSERT_EQ(ev.size(), 7u);
    EXPECT_EQ(ev[0].type, FleetEventType::Submit);
    EXPECT_EQ(ev[1].type, FleetEventType::Admit);
    EXPECT_DOUBLE_EQ(ev[1].value, 5.0); // its priority
    EXPECT_EQ(ev[2].type, FleetEventType::Preempt);
    EXPECT_DOUBLE_EQ(ev[2].time, 0.25);
    EXPECT_EQ(ev[2].other, 1); // the preemptor
    EXPECT_EQ(ev[3].type, FleetEventType::Dock);
    EXPECT_EQ(ev[3].other, 0); // zero whole steps kept
    EXPECT_DOUBLE_EQ(ev[3].value, 0.25); // seconds docked away
    EXPECT_EQ(ev[4].type, FleetEventType::Resume);
    EXPECT_DOUBLE_EQ(ev[4].time, 0.25 + step);
    EXPECT_EQ(ev[5].type, FleetEventType::Finish);
    EXPECT_EQ(ev[6].type, FleetEventType::ServerFree);

    // And the preemptor's: it never waits, never resumes.
    ev = fleet->fleetTrace().events(1);
    ASSERT_EQ(ev.size(), 4u);
    EXPECT_EQ(ev[0].type, FleetEventType::Submit);
    EXPECT_EQ(ev[1].type, FleetEventType::Admit);
    EXPECT_EQ(ev[2].type, FleetEventType::Finish);
    EXPECT_EQ(ev[3].type, FleetEventType::ServerFree);

    // Two stints for the victim plus one for the preemptor.
    EXPECT_EQ(fleet->fleetTrace().stintCount(), 3u);
    EXPECT_EQ(m.traceEvents, 11u);
    EXPECT_EQ(m.traceTruncated, 0u);
}

TEST(FleetTrace, DecisionLogGoldenOnBackfill)
{
    auto fleet = backfillFleet(tracing());
    FleetMetrics m = fleet->run();
    EXPECT_EQ(m.sched.backfills, 1u);

    const auto &ds = fleet->fleetTrace().decisions();
    ASSERT_EQ(ds.size(), 3u);
    EXPECT_EQ(ds[0].kind, FleetDecision::Kind::Admit);
    EXPECT_EQ(ds[0].job, 0);

    // The backfill decision names the blocked head it jumped and
    // explains why jumping was safe.
    EXPECT_EQ(ds[1].kind, FleetDecision::Kind::Backfill);
    EXPECT_DOUBLE_EQ(ds[1].time, 0.6);
    EXPECT_EQ(ds[1].job, 2);
    EXPECT_EQ(ds[1].server, 1);
    EXPECT_EQ(ds[1].klass, "dc");
    EXPECT_EQ(ds[1].freeInClass, 1);
    EXPECT_EQ(ds[1].blockedHead, 1);
    EXPECT_EQ(ds[1].blockedHeadKlass, "commodity");
    EXPECT_EQ(ds[1].pending, 1u); // job 1 still waiting
    EXPECT_EQ(ds[1].why,
              "backfilled job 2 onto server 1 (dc) past blocked "
              "head 1: head needs 1xcommodity, 0 free");

    EXPECT_EQ(ds[2].kind, FleetDecision::Kind::Admit);
    EXPECT_EQ(ds[2].job, 1); // unblocked when job 0 finishes

    // The backfilled job's placement event carries the jumped head.
    std::vector<FleetEvent> ev = fleet->fleetTrace().events(2);
    ASSERT_GE(ev.size(), 2u);
    EXPECT_EQ(ev[1].type, FleetEventType::Backfill);
    EXPECT_EQ(ev[1].other, 1);

    // The JSONL log serialises one decision per line, wire-named.
    std::string log = fleet->fleetTrace().decisionLogJsonl();
    EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 3);
    EXPECT_NE(log.find("\"type\":\"backfill\""), std::string::npos);
    EXPECT_NE(log.find("\"blocked_head\":1"), std::string::npos);
}

TEST(FleetTrace, RingBudgetTruncatesOldestAndCountsDrops)
{
    auto bounded = preemptionFleet(tracing(2));
    FleetMetrics m = bounded->run();

    // Recording still counts every event; only retention shrinks.
    EXPECT_EQ(m.traceEvents, 11u);
    // Job 0 emitted 7 events and kept 2; job 1 emitted 4, kept 2.
    EXPECT_EQ(bounded->fleetTrace().truncated(0), 5u);
    EXPECT_EQ(bounded->fleetTrace().truncated(1), 2u);
    EXPECT_EQ(m.traceTruncated, 7u);
    EXPECT_EQ(bounded->fleetTrace().truncated(), 7u);

    // The ring keeps the *newest* events, oldest first.
    std::vector<FleetEvent> ev = bounded->fleetTrace().events(0);
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].type, FleetEventType::Finish);
    EXPECT_EQ(ev[1].type, FleetEventType::ServerFree);

    // Truncation must not perturb the run itself.
    auto unbounded = preemptionFleet(tracing());
    EXPECT_EQ(unbounded->run().fingerprint, m.fingerprint);
}

TEST(FleetTrace, ReportBytesIdenticalAcrossThreadsAndCache)
{
    auto serial = mixedFleet(1, true, tracing());
    auto wide = mixedFleet(4, true, tracing());
    auto uncached = mixedFleet(4, false, tracing());
    FleetMetrics ms = serial->run();
    FleetMetrics mw = wide->run();
    FleetMetrics mu = uncached->run();
    EXPECT_GT(ms.sched.preemptions, 0u);

    // The decision log is emitted on the single-threaded fleet event
    // loop: bytes identical at any width, cache on or off — and so
    // is the whole report and the Chrome timeline.
    std::string report = serial->reportJsonl();
    EXPECT_EQ(report, wide->reportJsonl());
    EXPECT_EQ(report, uncached->reportJsonl());
    EXPECT_EQ(serial->timelineJson(), wide->timelineJson());
    EXPECT_EQ(ms.fingerprint, mw.fingerprint);
    EXPECT_EQ(ms.fingerprint, mu.fingerprint);
    EXPECT_EQ(ms.decisionFingerprint, mw.decisionFingerprint);
    ASSERT_NE(ms.decisionFingerprint, 0u);

    // Tracing must not perturb the simulation: the fingerprint
    // matches an untraced run bit for bit.
    auto untraced = mixedFleet(1, true);
    EXPECT_EQ(untraced->run().fingerprint, ms.fingerprint);
}

TEST(FleetTrace, AttributionSumsToJctPerJob)
{
    auto fleet = mixedFleet(2, true, tracing());
    FleetMetrics m = fleet->run();
    const FleetAttribution &a = fleet->attribution();
    ASSERT_EQ(a.jobs.size(), m.completed);
    EXPECT_EQ(a.total.jobs, m.completed);

    // Every job's categories sum to its JCT — the invariant the
    // fleet bench gates at 1e-9; the implementation holds ~1e-13.
    for (const FleetJobAttribution &ja : a.jobs) {
        double drift = std::abs(ja.t.total() - ja.jct) /
            std::max(1.0, ja.jct);
        EXPECT_LE(drift, 1e-9) << "job " << ja.job;
        EXPECT_DOUBLE_EQ(ja.jct,
                         fleet->records()
                             [static_cast<std::size_t>(ja.job)]
                                 .jct());
    }

    // Roll-up consistency: class and priority cells repartition the
    // same seconds as the fleet total.
    double byClass = 0.0, byPrio = 0.0;
    for (const auto &[klass, cell] : a.byClass)
        byClass += cell.total();
    for (const auto &[prio, cell] : a.byPriority)
        byPrio += cell.total();
    EXPECT_NEAR(byClass, a.total.total(), 1e-9);
    EXPECT_NEAR(byPrio, a.total.total(), 1e-9);

    // The rendered table names every grouping and the drill-down.
    std::string table = fleetAttributionTable(a, 3);
    EXPECT_NE(table.find("where did fleet time go"),
              std::string::npos);
    EXPECT_NE(table.find("commodity"), std::string::npos);
    EXPECT_NE(table.find("TOTAL"), std::string::npos);
    EXPECT_NE(table.find("worst 3 JCTs"), std::string::npos);
}

TEST(FleetTrace, AttributionSeparatesQueueWaitFromPreemptionLoss)
{
    auto fleet = preemptionFleet(tracing());
    fleet->run();
    const FleetAttribution &a = fleet->attribution();
    ASSERT_EQ(a.jobs.size(), 2u);

    // The victim lost exactly the 0.25 s of partial-step progress
    // that docking discarded, and queued exactly while the VIP ran.
    const FleetJobAttribution &victim = a.jobs[0];
    double step = fleet->records()[0].stepTime;
    EXPECT_EQ(victim.preemptions, 1);
    EXPECT_NEAR(victim.t.preemptionLost, 0.25, 1e-9);
    EXPECT_NEAR(victim.t.queueWait, step, 1e-9);

    // The VIP neither queued nor lost progress.
    const FleetJobAttribution &vip = a.jobs[1];
    EXPECT_NEAR(vip.t.queueWait, 0.0, 1e-9);
    EXPECT_NEAR(vip.t.preemptionLost, 0.0, 1e-9);

    // worstJobs ranks the victim (longer JCT) first.
    std::vector<std::size_t> worst = a.worstJobs(2);
    ASSERT_EQ(worst.size(), 2u);
    EXPECT_EQ(a.jobs[worst[0]].job, 0);
}

TEST(FleetTrace, ChromeTimelineHasTracksCountersAndFlowArrows)
{
    auto fleet = preemptionFleet(tracing());
    fleet->run();
    json::JsonValue doc = json::parse(fleet->timelineJson());
    ASSERT_TRUE(doc.isObject());
    const json::JsonValue *events = doc.find("traceEvents");
    ASSERT_TRUE(events && events->isArray());

    std::size_t occupancy = 0, counters = 0, flows = 0;
    for (const auto &e : events->array) {
        std::string ph = e.stringOr("ph", "");
        if (ph == "X" &&
            e.stringOr("cat", "").rfind("occupancy", 0) == 0)
            ++occupancy;
        else if (ph == "C")
            ++counters;
        else if (ph == "s" || ph == "f")
            ++flows;
    }
    // Three stints (victim's two + the VIP's), counter samples for
    // every gauge, one s/f arrow pair for the preemption->resume.
    EXPECT_EQ(occupancy, 3u);
    EXPECT_GE(counters, 4u);
    EXPECT_EQ(flows, 2u);

    const json::JsonValue *meta = doc.find("metadata");
    ASSERT_TRUE(meta && meta->isObject());
    EXPECT_EQ(meta->stringOr("kind", ""), "fleet-timeline");
    EXPECT_EQ(meta->numberOr("jobs", 0), 2.0);
}

TEST(FleetTrace, ObservabilityAccessorsAreFatalWithoutTracing)
{
    // Tracing off: the run succeeds but there is nothing to read.
    FleetOptions opts;
    opts.threads = 1;
    FleetSim fleet(opts);
    fleet.submit(smallJob());
    fleet.run();
    EXPECT_THROW(fleet.fleetTrace(), FatalError);
    EXPECT_THROW(fleet.attribution(), FatalError);
    EXPECT_THROW(fleet.timelineJson(), FatalError);
    EXPECT_THROW(fleet.reportJsonl(), FatalError);

    // Tracing on but run() not yet called: equally fatal.
    FleetOptions topts;
    topts.threads = 1;
    topts.trace = tracing();
    FleetSim unrun(topts);
    unrun.submit(smallJob());
    EXPECT_THROW(unrun.fleetTrace(), FatalError);
    EXPECT_THROW(unrun.reportJsonl(), FatalError);
}

TEST(FleetTrace, BreakdownDominantAndDecisionWireNames)
{
    FleetTimeBreakdown t;
    EXPECT_STREQ(t.dominant(), "none");
    t.compute = 2.0;
    t.queueWait = 1.0;
    EXPECT_STREQ(t.dominant(), "compute");
    t.queueWait = 3.0;
    EXPECT_STREQ(t.dominant(), "queue-wait");
    EXPECT_DOUBLE_EQ(t.total(), 5.0);

    EXPECT_STREQ(fleetEventName(FleetEventType::ServerFree),
                 "server-free");
    EXPECT_STREQ(fleetEventName(FleetEventType::Backfill),
                 "backfill");
    EXPECT_STREQ(fleetDecisionName(FleetDecision::Kind::Preempt),
                 "preempt");
}

} // namespace
} // namespace mobius

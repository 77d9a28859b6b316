/**
 * @file
 * Observability-layer tests: counter/gauge/histogram semantics,
 * streaming-percentile accuracy on known distributions, JSON/CSV
 * export, Chrome-tracing counter events, sampler termination, and an
 * end-to-end Mobius run exercising the instrumented hot paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "obs/metrics.hh"
#include "runtime/api.hh"
#include "runtime/mobius_executor.hh"
#include "runtime/run_context.hh"
#include "obs/sampler.hh"
#include "simcore/trace.hh"

namespace mobius
{
namespace
{

TEST(Counter, AccumulatesAndNames)
{
    MetricsRegistry reg;
    Counter &c = reg.counter("xfer.flows.submitted");
    EXPECT_EQ(c.value(), 0.0);
    c.add();
    c.add();
    c.add(3.5);
    EXPECT_DOUBLE_EQ(c.value(), 5.5);
    EXPECT_EQ(c.name(), "xfer.flows.submitted");
}

TEST(Gauge, TracksMinMaxOverTime)
{
    MetricsRegistry reg;
    Gauge &g = reg.gauge("xfer.queue.depth");
    // Before any set() the extremes read 0.
    EXPECT_EQ(g.min(), 0.0);
    EXPECT_EQ(g.max(), 0.0);
    g.set(4.0);
    g.set(-2.0);
    g.add(10.0);
    EXPECT_DOUBLE_EQ(g.value(), 8.0);
    EXPECT_DOUBLE_EQ(g.min(), -2.0);
    EXPECT_DOUBLE_EQ(g.max(), 8.0);
}

TEST(Registry, ReturnsStableRefsAndFinds)
{
    MetricsRegistry reg;
    Counter &a = reg.counter("a");
    Counter &b = reg.counter("a");
    EXPECT_EQ(&a, &b); // create-on-first-use, stable thereafter
    a.add(7.0);
    const Counter *found = reg.findCounter("a");
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->value(), 7.0);
    EXPECT_EQ(reg.findCounter("missing"), nullptr);
    EXPECT_EQ(reg.findGauge("a"), nullptr); // separate namespaces

    reg.gauge("g");
    reg.histogram("h");
    EXPECT_EQ(reg.size(), 3u);
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, VisitsInNameOrder)
{
    MetricsRegistry reg;
    reg.counter("zeta");
    reg.counter("alpha");
    reg.counter("mid");
    std::vector<std::string> names;
    reg.visitCounters(
        [&](const Counter &c) { names.push_back(c.name()); });
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid");
    EXPECT_EQ(names[2], "zeta");
}

TEST(Histogram, ExactMoments)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h");
    h.record(1.0);
    h.record(2.0);
    h.record(4.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 4.0);
    EXPECT_DOUBLE_EQ(h.sum(), 7.0);
    EXPECT_NEAR(h.mean(), 7.0 / 3.0, 1e-12);
}

TEST(Histogram, PercentileAccuracyUniform)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h");
    for (int i = 1; i <= 10000; ++i)
        h.record(static_cast<double>(i));
    // Bucketing is log-linear with 32 sub-buckets per octave:
    // relative quantile error is bounded by 1/(2*32) ~ 1.6%.
    for (double q : {0.50, 0.90, 0.95, 0.99}) {
        double exact = q * 10000.0;
        EXPECT_NEAR(h.quantile(q), exact, exact * 0.02)
            << "q=" << q;
    }
    // Extreme quantiles clamp to the exact observed range.
    EXPECT_GE(h.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 10000.0);
}

TEST(Histogram, PercentileAccuracyWideRange)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h");
    // Samples spanning twelve decades must keep relative accuracy.
    std::vector<double> vals;
    for (int d = -6; d <= 6; ++d)
        for (int k = 1; k <= 9; ++k)
            vals.push_back(k * std::pow(10.0, d));
    for (double v : vals)
        h.record(v);
    double prev = 0.0;
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        double est = h.quantile(q);
        EXPECT_GE(est, prev); // monotone in q
        EXPECT_GE(est, h.min());
        EXPECT_LE(est, h.max());
        prev = est;
    }
}

TEST(Histogram, ZeroAndNegativeSortFirst)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h");
    h.record(-1.0);
    h.record(0.0);
    h.record(5.0);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.min(), -1.0);
    EXPECT_DOUBLE_EQ(h.max(), 5.0);
    // Ranks 1-2 fall in the underflow bucket -> exact minimum.
    EXPECT_DOUBLE_EQ(h.quantile(0.3), -1.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.6), -1.0);
    EXPECT_NEAR(h.quantile(1.0), 5.0, 5.0 * 0.02);
}

TEST(Histogram, IgnoresNonFinite)
{
    MetricsRegistry reg;
    Histogram &h = reg.histogram("h");
    h.record(std::numeric_limits<double>::quiet_NaN());
    h.record(std::numeric_limits<double>::infinity());
    h.record(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
}

/** Assert every brace/bracket in @p json closes in order. */
void
expectBalanced(const std::string &json)
{
    int depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Export, JsonContainsAllMetrics)
{
    MetricsRegistry reg;
    reg.counter("link.a.bytes").add(42.0);
    reg.gauge("depth").set(3.0);
    Histogram &h = reg.histogram("step.time");
    h.record(0.5);
    h.record(1.5);

    std::string json = reg.toJson();
    expectBalanced(json);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    // Integral values print without a decimal point.
    EXPECT_NE(json.find("\"link.a.bytes\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"depth\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(Export, JsonEscapesNames)
{
    MetricsRegistry reg;
    reg.counter("weird\"name\\here").add();
    std::string json = reg.toJson();
    expectBalanced(json);
    EXPECT_NE(json.find("weird\\\"name\\\\here"),
              std::string::npos);
}

TEST(Export, JsonParsesAndRoundTripsEscapedNames)
{
    // Stronger than substring checks: the registry export must be
    // *valid* JSON and names with '"' and '\' must survive a full
    // serialise -> parse round trip.
    MetricsRegistry reg;
    reg.counter("weird\"name\\here").add(42.0);
    reg.gauge("plain").set(2.5);
    reg.histogram("h").record(1.0);

    json::JsonValue doc;
    ASSERT_NO_THROW(doc = json::parse(reg.toJson()));
    const auto &counters = doc.at("counters");
    ASSERT_TRUE(counters.has("weird\"name\\here"));
    EXPECT_DOUBLE_EQ(counters.at("weird\"name\\here").number,
                     42.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("plain").at("value")
                         .number,
                     2.5);
    const auto &h = doc.at("histograms").at("h");
    EXPECT_DOUBLE_EQ(h.at("count").number, 1.0);
    EXPECT_TRUE(h.has("p99"));
}

TEST(Export, CsvOneRowPerMetric)
{
    MetricsRegistry reg;
    reg.counter("c1").add(10.0);
    reg.gauge("g1").set(2.5);
    reg.histogram("h1").record(1.0);

    std::string csv = reg.toCsv();
    std::istringstream is(csv);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 4u); // header + 3 rows
    EXPECT_EQ(lines[0],
              "type,name,value,count,min,max,mean,p50,p90,p95,p99");
    EXPECT_EQ(lines[1].rfind("counter,c1,10", 0), 0u);
    EXPECT_EQ(lines[2].rfind("gauge,g1,2.5", 0), 0u);
    EXPECT_EQ(lines[3].rfind("histogram,h1,", 0), 0u);
    // Every row has the full column count.
    for (const auto &l : lines) {
        long commas = std::count(l.begin(), l.end(), ',');
        EXPECT_EQ(commas, 10) << l;
    }
}

TEST(TraceCounters, ChromeJsonEmitsCounterEvents)
{
    TraceRecorder rec;
    TraceSpan s;
    s.track = "gpu0.compute";
    s.name = "F0,0";
    s.category = "compute";
    s.end = 0.5;
    rec.record(s);
    rec.recordCounter({"xfer.queue.depth", 0.0, 1.0});
    rec.recordCounter({"xfer.queue.depth", 0.1, 3.0});

    std::string json = rec.toChromeJson();
    expectBalanced(json);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"xfer.queue.depth\""), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"value\":3}"),
              std::string::npos);
}

TEST(TraceCounters, CountersOnlyTraceIsWellFormed)
{
    TraceRecorder rec;
    rec.recordCounter({"q", 0.0, 1.0});
    EXPECT_FALSE(rec.empty());
    expectBalanced(rec.toChromeJson());
    rec.clear();
    EXPECT_TRUE(rec.empty());
}

TEST(Sampler, CapturesTimelineAndTerminates)
{
    EventQueue queue;
    MetricsRegistry reg;
    Counter &c = reg.counter("work.done");
    // Simulated work: bump the counter at t = 0.025 and t = 0.055.
    queue.scheduleAfter(0.025, [&] { c.add(); });
    queue.scheduleAfter(0.055, [&] { c.add(); });

    MetricsSampler sampler(queue, reg, nullptr, 0.01);
    sampler.start();
    queue.run(); // must terminate: ticks stop once the queue drains

    EXPECT_GE(sampler.ticks(), 6u);
    const auto &samples = sampler.samples();
    ASSERT_FALSE(samples.empty());
    // Samples arrive in time order and end with the final total.
    double last_time = -1.0;
    for (const auto &s : samples) {
        EXPECT_EQ(s.name, "work.done");
        EXPECT_GE(s.time, last_time);
        last_time = s.time;
    }
    EXPECT_DOUBLE_EQ(samples.front().value, 0.0);
    EXPECT_DOUBLE_EQ(samples.back().value, 2.0);
}

TEST(Sampler, FeedsTraceCounterTrack)
{
    EventQueue queue;
    MetricsRegistry reg;
    TraceRecorder trace;
    reg.gauge("depth").set(5.0);
    queue.scheduleAfter(0.02, [] {});

    MetricsSampler sampler(queue, reg, &trace, 0.01);
    sampler.start();
    queue.run();

    ASSERT_FALSE(trace.counters().empty());
    EXPECT_EQ(trace.counters().front().name, "depth");
    EXPECT_DOUBLE_EQ(trace.counters().front().value, 5.0);
    EXPECT_NE(trace.toChromeJson().find("\"ph\":\"C\""),
              std::string::npos);
}

TEST(EndToEnd, MobiusRunPopulatesRegistry)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt3b(), server);
    MobiusPlan plan = planMobius(server, work.cost());

    MetricsRegistry reg;
    RunContext ctx(server, {.metrics = &reg});
    MobiusExecutor exec(ctx, work.cost(), plan.partition,
                        plan.mapping);
    StepStats stats = exec.run();
    ASSERT_GT(stats.stepTime, 0.0);

    // Step-time percentile stream.
    const Histogram *step = reg.findHistogram("step.time");
    ASSERT_NE(step, nullptr);
    EXPECT_EQ(step->count(), 1u);
    EXPECT_NEAR(step->quantile(0.5), stats.stepTime,
                stats.stepTime * 0.02);

    // Per-GPU phase accounting matches the usage tracker.
    const Counter *compute = reg.findCounter("gpu0.compute.seconds");
    ASSERT_NE(compute, nullptr);
    EXPECT_NEAR(compute->value(), ctx.usage().computeTime(0), 1e-9);

    // Per-link byte counters cover the recorded traffic.
    double link_bytes = 0.0;
    reg.visitCounters([&](const Counter &c) {
        if (c.name().rfind("link.", 0) == 0)
            link_bytes += c.value();
    });
    EXPECT_GT(link_bytes, 0.0);

    // Every submitted flow completed.
    const Counter *sub = reg.findCounter("xfer.flows.submitted");
    const Counter *done = reg.findCounter("xfer.flows.completed");
    ASSERT_NE(sub, nullptr);
    ASSERT_NE(done, nullptr);
    EXPECT_GT(sub->value(), 0.0);
    EXPECT_DOUBLE_EQ(sub->value(), done->value());

    // Event-queue health counters.
    const Counter *events = reg.findCounter("sim.events.executed");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->value(), 0.0);
}

TEST(SamplerEdge, NonPositiveIntervalIsAPanic)
{
    EventQueue queue;
    MetricsRegistry reg;
    EXPECT_DEATH(MetricsSampler(queue, reg, nullptr, 0.0),
                 "interval");
    EXPECT_DEATH(MetricsSampler(queue, reg, nullptr, -0.5),
                 "interval");
}

TEST(SamplerEdge, EmptyRegistryStillTicksAndTerminates)
{
    // No metrics to snapshot: the sampler must still follow the
    // queue's lifetime and stop when the simulation drains.
    EventQueue queue;
    MetricsRegistry reg;
    queue.scheduleAfter(0.05, [] {});
    MetricsSampler sampler(queue, reg, nullptr, 0.01);
    sampler.start();
    queue.run();
    EXPECT_GE(sampler.ticks(), 5u);
    EXPECT_TRUE(sampler.samples().empty());
}

TEST(SamplerEdge, LateRegisteredMetricsAppearInLaterSamples)
{
    EventQueue queue;
    MetricsRegistry reg;
    queue.scheduleAfter(0.025,
                        [&] { reg.gauge("late").set(7.0); });
    queue.scheduleAfter(0.06, [] {});
    MetricsSampler sampler(queue, reg, nullptr, 0.01);
    sampler.start();
    queue.run();
    // Samples before 0.025 do not know the gauge; samples after
    // must carry it with the registered value.
    bool before = false, after = false;
    for (const MetricSample &s : sampler.samples()) {
        if (s.name != "late")
            continue;
        if (s.time < 0.025)
            before = true;
        else {
            after = true;
            EXPECT_DOUBLE_EQ(s.value, 7.0);
        }
    }
    EXPECT_FALSE(before);
    EXPECT_TRUE(after);
}

} // namespace
} // namespace mobius

/**
 * @file
 * Tests for the statistics utilities: byte-weighted bandwidth CDFs,
 * traffic accounting, and the StepStats derived metrics.
 */

#include <gtest/gtest.h>

#include "runtime/step_stats.hh"
#include "xfer/stats.hh"

namespace mobius
{
namespace
{

BandwidthSample
sample(Bytes bytes, double bw,
       TrafficKind kind = TrafficKind::Parameter)
{
    BandwidthSample s;
    s.bytes = bytes;
    s.bandwidth = bw;
    s.kind = kind;
    return s;
}

TEST(BandwidthCdf, EmptyIsWellBehaved)
{
    BandwidthCdf cdf({});
    EXPECT_TRUE(cdf.empty());
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.maxBandwidth(), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(1e9), 0.0);
}

TEST(BandwidthCdf, ByteWeighting)
{
    // 900 bytes at 1 GB/s, 100 bytes at 10 GB/s: the median is the
    // slow rate, the p95 the fast one.
    BandwidthCdf cdf({sample(900, 1e9), sample(100, 10e9)});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 1e9);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.95), 10e9);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(1e9), 0.9);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(0.5e9), 0.0);
    EXPECT_DOUBLE_EQ(cdf.fractionAtOrBelow(20e9), 1.0);
    EXPECT_DOUBLE_EQ(cdf.maxBandwidth(), 10e9);
}

TEST(BandwidthCdf, DuplicateBandwidthsCollapse)
{
    BandwidthCdf cdf({sample(100, 2e9), sample(100, 2e9),
                      sample(200, 4e9)});
    ASSERT_EQ(cdf.points().size(), 2u);
    EXPECT_DOUBLE_EQ(cdf.points()[0].second, 0.5);
    EXPECT_DOUBLE_EQ(cdf.points()[1].second, 1.0);
}

TEST(BandwidthCdf, ZeroByteSamplesIgnoredInWeight)
{
    BandwidthCdf cdf({sample(0, 5e9), sample(100, 1e9)});
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 1e9);
}

TEST(TrafficStats, AccumulatesByKind)
{
    TrafficStats stats(true);
    stats.record(sample(100, 1e9, TrafficKind::Parameter));
    stats.record(sample(50, 1e9, TrafficKind::Gradient));
    stats.record(sample(25, 1e9, TrafficKind::Parameter));
    EXPECT_EQ(stats.totalBytes(), 175u);
    EXPECT_EQ(stats.bytesOf(TrafficKind::Parameter), 125u);
    EXPECT_EQ(stats.bytesOf(TrafficKind::Gradient), 50u);
    EXPECT_EQ(stats.bytesOf(TrafficKind::Activation), 0u);
    ASSERT_EQ(stats.samples().size(), 3u);
    EXPECT_EQ(stats.samples()[1].bytes, 50u);
}

TEST(TrafficStats, SampleLogIsOptIn)
{
    // Byte totals are always kept; samples only when asked for.
    TrafficStats stats;
    stats.record(sample(100, 1e9, TrafficKind::Parameter));
    stats.record(sample(50, 1e9, TrafficKind::Gradient));
    EXPECT_EQ(stats.totalBytes(), 150u);
    EXPECT_EQ(stats.bytesOf(TrafficKind::Gradient), 50u);
    EXPECT_TRUE(stats.samples().empty());
}

TEST(TrafficStats, KindNamesArePrintable)
{
    EXPECT_STREQ(trafficKindName(TrafficKind::Parameter),
                 "parameter");
    EXPECT_STREQ(trafficKindName(TrafficKind::ActivationGrad),
                 "activation-grad");
    EXPECT_STREQ(trafficKindName(TrafficKind::OptimizerState),
                 "optimizer-state");
}

TEST(StepStats, DerivedMetrics)
{
    StepStats s;
    s.stepTime = 10.0;
    s.numGpus = 4;
    s.exposedCommTime = 8.0;
    EXPECT_DOUBLE_EQ(s.exposedCommFraction(), 0.2);

    s.traffic.record(sample(300, 1e9));
    EXPECT_DOUBLE_EQ(s.trafficRatio(100), 3.0);
    EXPECT_DOUBLE_EQ(s.trafficRatio(0), 0.0);

    StepStats zero;
    EXPECT_DOUBLE_EQ(zero.exposedCommFraction(), 0.0);
}

TEST(UsageTracker, NestedDepthsIntegrateCorrectly)
{
    EventQueue q;
    UsageTracker usage(q, 1);
    // comm [0, 4); compute [1, 3): exposed = [0,1) + [3,4) = 2 s.
    usage.commBegin(0);
    q.runUntil(1.0);
    usage.computeBegin(0);
    q.runUntil(3.0);
    usage.computeEnd(0);
    q.runUntil(4.0);
    usage.commEnd(0);
    EXPECT_DOUBLE_EQ(usage.computeTime(0), 2.0);
    EXPECT_DOUBLE_EQ(usage.exposedCommTime(0), 2.0);
    EXPECT_DOUBLE_EQ(usage.overlappedCommTime(0), 2.0);
}

TEST(UsageTracker, OverlappingCommFlowsCountOnce)
{
    EventQueue q;
    UsageTracker usage(q, 1);
    // Two concurrent flows on the same GPU: the indicator is binary,
    // so exposure is wall time, not flow-seconds.
    usage.commBegin(0);
    q.runUntil(1.0);
    usage.commBegin(0);
    q.runUntil(2.0);
    usage.commEnd(0);
    q.runUntil(3.0);
    usage.commEnd(0);
    EXPECT_DOUBLE_EQ(usage.exposedCommTime(0), 3.0);
}

TEST(UsageTracker, IgnoresUnattributedGpu)
{
    EventQueue q;
    UsageTracker usage(q, 2);
    usage.commBegin(-1); // DRAM-to-DRAM style, no GPU
    q.runUntil(1.0);
    usage.commEnd(-1);
    EXPECT_DOUBLE_EQ(usage.exposedCommTime(0), 0.0);
    EXPECT_DOUBLE_EQ(usage.exposedCommTime(1), 0.0);
}

TEST(UsageTracker, ClearResets)
{
    EventQueue q;
    UsageTracker usage(q, 1);
    usage.commBegin(0);
    q.runUntil(2.0);
    usage.commEnd(0);
    EXPECT_GT(usage.exposedCommTime(0), 0.0);
    usage.clear();
    EXPECT_DOUBLE_EQ(usage.exposedCommTime(0), 0.0);
    EXPECT_DOUBLE_EQ(usage.computeTime(0), 0.0);
}

} // namespace
} // namespace mobius

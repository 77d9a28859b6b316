/**
 * @file
 * Tests for the argument parser and JSON reporting.
 */

#include <gtest/gtest.h>

#include "base/args.hh"
#include "base/logging.hh"
#include "runtime/report.hh"

namespace mobius
{
namespace
{

Args
makeArgs(std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, KeyValueAndFlags)
{
    Args args = makeArgs({"--model", "15b", "--json", "--mbs", "2"});
    EXPECT_EQ(args.get("model", "x"), "15b");
    EXPECT_TRUE(args.has("json"));
    EXPECT_EQ(args.getInt("mbs", -1), 2);
    EXPECT_EQ(args.getInt("absent", 7), 7);
    EXPECT_FALSE(args.has("absent"));
}

TEST(Args, EqualsSyntaxAndPositionals)
{
    Args args = makeArgs({"--topo=4+4", "file.txt", "--x=1.5"});
    EXPECT_EQ(args.get("topo", ""), "4+4");
    EXPECT_DOUBLE_EQ(args.getDouble("x", 0.0), 1.5);
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "file.txt");
}

TEST(Args, MalformedNumbersAreFatal)
{
    Args args = makeArgs({"--n", "abc"});
    EXPECT_THROW(args.getInt("n", 0), FatalError);
    Args args2 = makeArgs({"--x", "1.2.3"});
    EXPECT_THROW(args2.getDouble("x", 0.0), FatalError);
}

TEST(Args, UnusedDetection)
{
    Args args = makeArgs({"--used", "1", "--typo", "2"});
    EXPECT_EQ(args.getInt("used", 0), 1);
    auto unused = args.unusedKeys();
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "typo");
    EXPECT_THROW(args.rejectUnused(), FatalError);
    EXPECT_EQ(args.getInt("typo", 0), 2);
    EXPECT_NO_THROW(args.rejectUnused());
}

TEST(Args, DuplicateSingleValueOptionIsFatal)
{
    Args args = makeArgs({"--model", "8b", "--model", "15b"});
    EXPECT_THROW(args.get("model", ""), FatalError);
    Args args2 = makeArgs({"--n", "1", "--n", "2"});
    EXPECT_THROW(args2.getInt("n", 0), FatalError);
    Args args3 = makeArgs({"--x", "1.0", "--x=2.0"});
    EXPECT_THROW(args3.getDouble("x", 0.0), FatalError);
}

TEST(Args, GetStringsCollectsRepeatsInOrder)
{
    Args args = makeArgs(
        {"--whatif", "rc0=2", "--other", "1", "--whatif=gpu1=0.5"});
    auto vals = args.getStrings("whatif");
    ASSERT_EQ(vals.size(), 2u);
    EXPECT_EQ(vals[0], "rc0=2");
    EXPECT_EQ(vals[1], "gpu1=0.5");
    EXPECT_TRUE(args.getStrings("absent").empty());
    // getStrings consumes the key for rejectUnused purposes.
    EXPECT_EQ(args.getInt("other", 0), 1);
    EXPECT_NO_THROW(args.rejectUnused());
}

TEST(Args, RangeCheckedAccessorsAreFatalOutOfRange)
{
    Args args = makeArgs({"--top", "0", "--interval", "-0.5"});
    EXPECT_THROW(args.getIntIn("top", 1, 1, 100), FatalError);
    EXPECT_THROW(args.getDoubleIn("interval", 0.01, 1e-9, 1e9),
                 FatalError);
    Args ok = makeArgs({"--top", "7", "--interval", "0.25"});
    EXPECT_EQ(ok.getIntIn("top", 1, 1, 100), 7);
    EXPECT_DOUBLE_EQ(
        ok.getDoubleIn("interval", 0.01, 1e-9, 1e9), 0.25);
    // Range boundaries are inclusive.
    Args edge = makeArgs({"--top", "100"});
    EXPECT_EQ(edge.getIntIn("top", 1, 1, 100), 100);
}

TEST(Args, RangeCheckedDoubleRejectsNan)
{
    // NaN fails every comparison, so it must not slip past the
    // bounds check as "not out of range".
    Args args = makeArgs({"--interval", "nan"});
    EXPECT_THROW(args.getDoubleIn("interval", 0.01, 1e-9, 1e9),
                 FatalError);
}

TEST(Report, ManifestJsonHasStableFields)
{
    RunManifest m;
    m.model = "gpt8b";
    m.topo = "2+2";
    m.system = "mobius";
    m.partition = "heuristic";
    m.mapping = "cross";
    m.microbatchSize = 2;
    m.numMicrobatches = 8;
    m.steps = 3;
    m.traceFile = "out.json";
    std::string json = manifestToJson(m);
    EXPECT_NE(json.find("\"model\":\"gpt8b\""), std::string::npos);
    EXPECT_NE(json.find("\"topo\":\"2+2\""), std::string::npos);
    EXPECT_NE(json.find("\"system\":\"mobius\""),
              std::string::npos);
    EXPECT_NE(json.find("\"partition\":\"heuristic\""),
              std::string::npos);
    EXPECT_NE(json.find("\"mapping\":\"cross\""),
              std::string::npos);
    EXPECT_NE(json.find("\"microbatch_size\":2"),
              std::string::npos);
    EXPECT_NE(json.find("\"num_microbatches\":8"),
              std::string::npos);
    EXPECT_NE(json.find("\"steps\":3"), std::string::npos);
    EXPECT_NE(json.find("\"trace_file\":\"out.json\""),
              std::string::npos);
}

TEST(Report, StepStatsJsonFields)
{
    StepStats stats;
    stats.system = "Mobius";
    stats.stepTime = 2.5;
    stats.numGpus = 4;
    BandwidthSample s;
    s.bytes = 1000;
    s.kind = TrafficKind::Parameter;
    stats.traffic.record(s);

    std::string json = stepStatsToJson(stats, 4000);
    EXPECT_NE(json.find("\"system\":\"Mobius\""),
              std::string::npos);
    EXPECT_NE(json.find("\"step_seconds\":2.5"), std::string::npos);
    EXPECT_NE(json.find("\"traffic_bytes\":1000"),
              std::string::npos);
    EXPECT_NE(json.find("\"traffic_ratio\":0.25"),
              std::string::npos);
    EXPECT_NE(json.find("\"parameter\":1000"), std::string::npos);

    // Balanced braces.
    int depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Report, PlanJsonRoundTripsStructure)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    std::string json = planToJson(plan);
    EXPECT_NE(json.find("\"stages\":["), std::string::npos);
    EXPECT_NE(json.find("\"gpu_order\":["), std::string::npos);
    EXPECT_NE(json.find("\"contention_degree\":"),
              std::string::npos);
    // One "lo" per stage.
    std::size_t count = 0, pos = 0;
    while ((pos = json.find("\"lo\":", pos)) != std::string::npos) {
        ++count;
        pos += 4;
    }
    EXPECT_EQ(count, plan.partition.size());
}

TEST(Report, FineTuneEstimateArithmetic)
{
    Server server = makeCommodityServer({2, 2});
    auto est = estimateFineTune(server, 3.6, 1000);
    EXPECT_NEAR(est.hours, 1.0, 1e-12);
    EXPECT_NEAR(est.dollars, server.dollarsPerHour, 1e-9);
}

} // namespace
} // namespace mobius

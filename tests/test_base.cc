/**
 * @file
 * Unit tests for base utilities: logging, unit formatting, RNG, and
 * the JSON reader the analysis tools parse simulator output with.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/units.hh"

namespace mobius
{
namespace
{

TEST(Logging, StrfmtFormats)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 7, "abc"), "x=7 y=abc");
    EXPECT_EQ(strfmt("%0.2f", 1.239), "1.24");
    EXPECT_EQ(strfmt("plain"), "plain");
    // Results on both sides of the 256-byte stack buffer.
    for (std::size_t n : {255u, 256u, 257u, 1000u}) {
        const std::string body(n - 1, 'x');
        EXPECT_EQ(strfmt("%s%d", body.c_str(), 7), body + "7") << n;
    }
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config %d", 42), FatalError);
    try {
        fatal("value=%d", 5);
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=5");
    }
}

TEST(Logging, QuietFlagRoundTrips)
{
    EXPECT_FALSE(quiet());
    setQuiet(true);
    EXPECT_TRUE(quiet());
    setQuiet(false);
    EXPECT_FALSE(quiet());
}

TEST(Units, FormatBytesPicksScale)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2 * KiB), "2.00 KiB");
    EXPECT_EQ(formatBytes(3 * MiB), "3.00 MiB");
    EXPECT_EQ(formatBytes(24 * GiB), "24.00 GiB");
}

TEST(Units, FormatBandwidthPicksScale)
{
    EXPECT_EQ(formatBandwidth(13.1e9), "13.10 GB/s");
    EXPECT_EQ(formatBandwidth(2.5e6), "2.50 MB/s");
}

TEST(Units, FormatSecondsPicksScale)
{
    EXPECT_EQ(formatSeconds(2.5), "2.500 s");
    EXPECT_EQ(formatSeconds(0.0125), "12.500 ms");
    EXPECT_EQ(formatSeconds(42e-6), "42.0 us");
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.below(5));
    EXPECT_EQ(seen.size(), 5u);
    for (auto v : seen)
        EXPECT_LT(v, 5u);
}

TEST(Rng, GaussianMomentsRoughlyStandard)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Json, ParsesScalarsObjectsAndArrays)
{
    json::JsonValue v = json::parse(
        " {\"a\": 1.5, \"b\": [1, 2, 3], \"c\": {\"d\": true}, "
        "\"e\": null, \"f\": -2e3} ");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.at("a").number, 1.5);
    ASSERT_TRUE(v.at("b").isArray());
    ASSERT_EQ(v.at("b").array.size(), 3u);
    EXPECT_DOUBLE_EQ(v.at("b")[2].number, 3.0);
    EXPECT_TRUE(v.at("c").at("d").boolean);
    EXPECT_TRUE(v.at("e").isNull());
    EXPECT_DOUBLE_EQ(v.at("f").number, -2000.0);
    EXPECT_TRUE(v.has("a"));
    EXPECT_FALSE(v.has("z"));
    EXPECT_EQ(v.find("z"), nullptr);
    EXPECT_DOUBLE_EQ(v.numberOr("a", -1.0), 1.5);
    EXPECT_DOUBLE_EQ(v.numberOr("z", -1.0), -1.0);
}

TEST(Json, StringEscapesRoundTrip)
{
    std::string raw = "a\"b\\c\n\t<->";
    json::JsonValue v =
        json::parse("{\"s\": \"" + json::escape(raw) + "\"}");
    EXPECT_EQ(v.at("s").string, raw);
    EXPECT_EQ(v.stringOr("s", ""), raw);
    EXPECT_EQ(v.stringOr("t", "dflt"), "dflt");
    // \uXXXX decodes as UTF-8.
    EXPECT_EQ(json::parse("\"\\u0041\"").string, "A");
}

TEST(Json, EscapeLeavesNoRawControlBytes)
{
    const std::string raw = "a\nb\t\"c\\\x01";
    const std::string esc = json::escape(raw);
    for (char c : esc)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << esc;
    EXPECT_EQ(json::parse("\"" + esc + "\"").string, raw);
}

TEST(Json, MalformedInputThrowsJsonError)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{\"a\":1} trailing", "[1 2]",
          "{'a':1}"}) {
        EXPECT_THROW(json::parse(bad), json::JsonError)
            << "accepted '" << bad << "'";
    }
}

TEST(Json, AccessorsThrowOnKindMismatch)
{
    json::JsonValue v = json::parse("{\"a\": [0]}");
    EXPECT_THROW(v.at("missing"), json::JsonError);
    EXPECT_THROW(v.at("a").at("x"), json::JsonError);
    EXPECT_THROW(v.at("a")[5], json::JsonError);
}

} // namespace
} // namespace mobius

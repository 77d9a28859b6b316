/**
 * @file
 * MetricsRegistry implementation: histogram bucketing math and the
 * JSON/CSV exporters.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "base/json.hh"

namespace mobius
{

namespace
{

/** Format a double compactly and losslessly enough for export. */
std::string
fmtNumber(double v)
{
    if (std::isfinite(v) && v == std::floor(v) &&
        std::fabs(v) < 1e15)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f",v);
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

/** Escape a CSV field (quote when it contains a delimiter). */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s)
    {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    out += '"';
    return out;
}

constexpr double kQuantiles[] = {0.50, 0.90, 0.95, 0.99};
constexpr const char *kQuantileNames[] = {"p50", "p90", "p95",
                                          "p99"};

} // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

int
Histogram::bucketIndex(double value)
{
    // A positive double is 1.f * 2^(E - 1023), E its exponent field:
    // frexp's m = 1.f / 2 and e = E - 1022. Then (m - 0.5) * 2 *
    // kSubBuckets = f * kSubBuckets exactly, so the sub-bucket is the
    // mantissa field's top bits. Subnormals (E = 0) land in bucket 0,
    // as frexp's e <= -1022 does.
    constexpr int kMantissaBits = 52;
    constexpr int kSubBits = std::countr_zero(
        static_cast<unsigned>(kSubBuckets));
    static_assert(1 << kSubBits == kSubBuckets);
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const int e = static_cast<int>(bits >> kMantissaBits) - 1022;
    if (e < kMinExp)
        return 0;
    if (e >= kMaxExp)
        return kNumBuckets - 1;
    const int sub = static_cast<int>(
        (bits >> (kMantissaBits - kSubBits)) &
        static_cast<std::uint64_t>(kSubBuckets - 1));
    return (e - kMinExp) * kSubBuckets + sub;
}

double
Histogram::bucketMid(int index)
{
    int e = index / kSubBuckets + kMinExp;
    int sub = index % kSubBuckets;
    // Midpoint of the mantissa range covered by this sub-bucket.
    double m = 0.5 + (sub + 0.5) / (2.0 * kSubBuckets);
    return std::ldexp(m, e);
}

void
Histogram::record(double value)
{
    if (!std::isfinite(value))
        return;
    if (count_ == 0 || value < min_)
        min_ = value;
    if (count_ == 0 || value > max_)
        max_ = value;
    ++count_;
    sum_ += value;
    if (value <= 0.0)
    {
        ++zeroCount_;
        return;
    }
    ++buckets_[static_cast<std::size_t>(bucketIndex(value))];
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the q-th sample, 1-based; the underflow bucket
    // (zero and negative samples) sorts before every positive one.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank < 1)
        rank = 1;
    if (rank <= zeroCount_)
        return min_;
    std::uint64_t seen = zeroCount_;
    for (int i = 0; i < kNumBuckets; ++i)
    {
        seen += buckets_[static_cast<std::size_t>(i)];
        if (seen >= rank)
            return std::clamp(bucketMid(i), min_, max_);
    }
    return max_;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
    {
        slot = std::make_unique<Counter>();
        slot->name_ = name;
    }
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    auto &slot = gauges_[name];
    if (!slot)
    {
        slot = std::make_unique<Gauge>();
        slot->name_ = name;
    }
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    auto &slot = histograms_[name];
    if (!slot)
    {
        slot = std::make_unique<Histogram>();
        slot->name_ = name;
    }
    return *slot;
}

const Counter *
MetricsRegistry::findCounter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge *
MetricsRegistry::findGauge(const std::string &name) const
{
    auto it = gauges_.find(name);
    return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name) const
{
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

void
MetricsRegistry::visitCounters(
    const std::function<void(const Counter &)> &fn) const
{
    for (const auto &[name, c] : counters_)
        fn(*c);
}

void
MetricsRegistry::visitGauges(
    const std::function<void(const Gauge &)> &fn) const
{
    for (const auto &[name, g] : gauges_)
        fn(*g);
}

void
MetricsRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

std::size_t
MetricsRegistry::size() const
{
    return counters_.size() + gauges_.size() + histograms_.size();
}

std::string
MetricsRegistry::toJson() const
{
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_)
    {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + json::escape(name) +
            "\": " + fmtNumber(c->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto &[name, g] : gauges_)
    {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + json::escape(name) +
            "\": {\"value\": " + fmtNumber(g->value()) +
            ", \"min\": " + fmtNumber(g->min()) +
            ", \"max\": " + fmtNumber(g->max()) + "}";
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms_)
    {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + json::escape(name) +
            "\": {\"count\": " +
            fmtNumber(static_cast<double>(h->count())) +
            ", \"min\": " + fmtNumber(h->min()) +
            ", \"max\": " + fmtNumber(h->max()) +
            ", \"sum\": " + fmtNumber(h->sum()) +
            ", \"mean\": " + fmtNumber(h->mean());
        for (std::size_t i = 0; i < std::size(kQuantiles); ++i)
            out += std::string(", \"") + kQuantileNames[i] +
                "\": " + fmtNumber(h->quantile(kQuantiles[i]));
        out += "}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

std::string
MetricsRegistry::toCsv() const
{
    std::string out =
        "type,name,value,count,min,max,mean,p50,p90,p95,p99\n";
    for (const auto &[name, c] : counters_)
        out += "counter," + csvEscape(name) + "," +
            fmtNumber(c->value()) + ",,,,,,,,\n";
    for (const auto &[name, g] : gauges_)
        out += "gauge," + csvEscape(name) + "," +
            fmtNumber(g->value()) + ",," + fmtNumber(g->min()) +
            "," + fmtNumber(g->max()) + ",,,,,\n";
    for (const auto &[name, h] : histograms_)
    {
        out += "histogram," + csvEscape(name) + ",," +
            fmtNumber(static_cast<double>(h->count())) + "," +
            fmtNumber(h->min()) + "," + fmtNumber(h->max()) + "," +
            fmtNumber(h->mean());
        for (double q : kQuantiles)
            out += "," + fmtNumber(h->quantile(q));
        out += "\n";
    }
    return out;
}

double
exactQuantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    if (q <= 0.0)
        return values.front();
    if (q >= 1.0)
        return values.back();
    double pos = q * static_cast<double>(values.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= values.size())
        return values.back();
    return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

void
exportProfSnapshot(const prof::Snapshot &snap,
                   MetricsRegistry &registry)
{
    for (const prof::ZoneStats &z : snap.zones) {
        std::string key = "prof." + z.path;
        std::replace(key.begin(), key.end(), ';', '.');
        registry.counter(key + ".calls")
            .add(static_cast<double>(z.count));
        registry.gauge(key + ".wall_seconds").set(z.wallTotal);
        registry.gauge(key + ".self_seconds").set(z.wallSelf);
        registry.gauge(key + ".cpu_seconds").set(z.cpuTotal);
    }
    registry.gauge("prof.threads")
        .set(static_cast<double>(snap.threads));
    registry.gauge("prof.wall_total_seconds")
        .set(snap.wallTotalRoots());
}

} // namespace mobius

/**
 * @file
 * Metrics primitives and the process-wide registry behind the
 * simulator's observability layer.
 *
 * Three metric kinds cover everything the evaluation figures need:
 *
 *  - Counter   — monotonically accumulating totals (bytes per link,
 *                prefetch hits, solver nodes);
 *  - Gauge     — last-written instantaneous values with min/max
 *                tracking (queue depth, active flows, peak memory);
 *  - Histogram — streaming value distributions with percentile
 *                queries (step time, transfer bandwidth, kernel
 *                duration). Log-linear bucketing keeps memory fixed
 *                (no reservoir, no sample retention) with a bounded
 *                relative quantile error of ~1%.
 *
 * A MetricsRegistry owns metrics by dotted name (the naming
 * convention is documented in DESIGN.md §Observability, e.g.
 * "link.dram<->rc0.bytes", "gpu0.prefetch.miss"). Components cache
 * the returned handles at construction time so the hot paths never
 * touch the name map; when no registry is given, components skip
 * handle creation entirely and instrumentation costs one
 * null-pointer test.
 */

#ifndef MOBIUS_OBS_METRICS_HH
#define MOBIUS_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/prof.hh"

namespace mobius
{

/** A monotonically accumulating total. */
class Counter
{
  public:
    /** Accumulate @p delta (default 1). */
    void add(double delta = 1.0) { value_ += delta; }

    /** @return the accumulated total. */
    double value() const { return value_; }

    /** @return the registry name. */
    const std::string &name() const { return name_; }

  private:
    friend class MetricsRegistry;
    std::string name_;
    double value_ = 0.0;
};

/** An instantaneous value with min/max-over-time tracking. */
class Gauge
{
  public:
    /** Record a new current value. */
    void
    set(double value)
    {
        value_ = value;
        if (!seen_ || value < min_)
            min_ = value;
        if (!seen_ || value > max_)
            max_ = value;
        seen_ = true;
    }

    /** Adjust the current value by @p delta. */
    void add(double delta) { set(value_ + delta); }

    /** @return the most recently set value. */
    double value() const { return value_; }

    /** @return the smallest value ever set (0 before any set()). */
    double min() const { return seen_ ? min_ : 0.0; }

    /** @return the largest value ever set (0 before any set()). */
    double max() const { return seen_ ? max_ : 0.0; }

    /** @return the registry name. */
    const std::string &name() const { return name_; }

  private:
    friend class MetricsRegistry;
    std::string name_;
    double value_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    bool seen_ = false;
};

/**
 * A fixed-memory streaming histogram with percentile queries.
 *
 * Values are bucketed log-linearly: one bucket group per power of
 * two, each split into kSubBuckets linear sub-buckets, so the
 * relative width of any bucket is 1/kSubBuckets and quantile
 * estimates carry at most ~1/(2 kSubBuckets) relative error.
 * Exact min/max/sum/count are tracked alongside, and quantiles are
 * clamped to the observed [min, max]. Zero and negative values are
 * counted in a dedicated underflow bucket that sorts before all
 * positive buckets.
 */
class Histogram
{
  public:
    /** An empty histogram. */
    Histogram();

    /** Record one sample. */
    void record(double value);

    /** @return number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** @return smallest recorded value (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** @return largest recorded value (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /** @return sum of recorded values. */
    double sum() const { return sum_; }

    /** @return arithmetic mean (0 when empty). */
    double
    mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * @return an estimate of the @p q quantile, q in [0, 1]
     *         (0.5 = median). 0 when empty.
     */
    double quantile(double q) const;

    /** @return the registry name. */
    const std::string &name() const { return name_; }

  private:
    friend class MetricsRegistry;

    /** Linear sub-buckets per power of two. */
    static constexpr int kSubBuckets = 32;
    /** Smallest representable exponent (frexp convention). */
    static constexpr int kMinExp = -64;
    /** Largest representable exponent. */
    static constexpr int kMaxExp = 64;
    static constexpr int kNumBuckets =
        (kMaxExp - kMinExp) * kSubBuckets;

    static int bucketIndex(double value);
    static double bucketMid(int index);

    std::string name_;
    std::uint64_t count_ = 0;
    std::uint64_t zeroCount_ = 0; //!< samples <= 0
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
    std::vector<std::uint32_t> buckets_; //!< size kNumBuckets
};

/**
 * Owner and name-keyed index of every metric in a run.
 *
 * counter()/gauge()/histogram() create on first use and return a
 * stable reference afterwards; callers cache the reference. A run
 * that wants no metrics passes no registry (a null pointer), so it
 * pays nothing for them.
 */
class MetricsRegistry
{
  public:
    /** @return the counter named @p name, created on first use. */
    Counter &counter(const std::string &name);

    /** @return the gauge named @p name, created on first use. */
    Gauge &gauge(const std::string &name);

    /** @return the histogram named @p name, created on first use. */
    Histogram &histogram(const std::string &name);

    /** @return the counter named @p name, or nullptr. */
    const Counter *findCounter(const std::string &name) const;

    /** @return the gauge named @p name, or nullptr. */
    const Gauge *findGauge(const std::string &name) const;

    /** @return the histogram named @p name, or nullptr. */
    const Histogram *findHistogram(const std::string &name) const;

    /** Visit every counter in name order. */
    void visitCounters(
        const std::function<void(const Counter &)> &fn) const;

    /** Visit every gauge in name order. */
    void visitGauges(
        const std::function<void(const Gauge &)> &fn) const;

    /** Remove every metric. */
    void clear();

    /** @return total number of registered metrics. */
    std::size_t size() const;

    /**
     * Serialise every metric as one JSON object:
     * {"counters":{name:value,...},
     *  "gauges":{name:{"value":v,"min":m,"max":M},...},
     *  "histograms":{name:{"count":n,"min":m,"max":M,"mean":u,
     *                      "p50":...,"p90":...,"p95":...,"p99":...}}}
     */
    std::string toJson() const;

    /**
     * Serialise every metric as CSV with header
     * "type,name,value,count,min,max,mean,p50,p90,p95,p99"
     * (unused columns empty).
     */
    std::string toCsv() const;

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Exact @p q quantile (q in [0, 1]) of @p values with linear
 * interpolation between order statistics, computed from a sorted
 * copy. 0 when empty. The streaming Histogram trades ~1% relative
 * error for fixed memory; fleet-level reductions (JCT p50/p99 over
 * a completed job list) retain every sample anyway, so they report
 * the exact value — and the exact value is what the bit-identity
 * determinism gates compare across thread widths.
 */
double exactQuantile(std::vector<double> values, double q);

/**
 * Fold a host-profiler snapshot into @p registry so the `--metrics`
 * JSON/CSV export carries the self-profile alongside the simulated
 * metrics. Per zone path (';' replaced by '.'):
 *
 *  - counter `prof.<path>.calls`
 *  - gauge   `prof.<path>.wall_seconds`  (inclusive)
 *  - gauge   `prof.<path>.self_seconds`  (exclusive wall)
 *  - gauge   `prof.<path>.cpu_seconds`   (inclusive thread CPU)
 *
 * plus `prof.threads` and `prof.wall_total_seconds` roll-ups.
 */
void exportProfSnapshot(const prof::Snapshot &snap,
                        MetricsRegistry &registry);

} // namespace mobius

#endif // MOBIUS_OBS_METRICS_HH

/**
 * @file
 * Single-flight memoization of planning results for fleet runs.
 *
 * At fleet scale a job's planning costs more than simulating
 * its step: for GPT-3B on a 2+2 box, planMobius() takes ~1.6 ms CPU
 * (almost all of it the MIP partition search; cross mapping adds
 * ~15 us) against ~0.6 ms for the step simulation and its span
 * fingerprint. A homogeneous fleet of 200 jobs would re-solve the
 * same plan 200 times. planMobius() is a pure function of its
 * inputs, so the fleet memoizes it: jobs are keyed by a canonical
 * string of every planner-relevant input (fleet/job.hh jobPlanKey())
 * and the solve runs once per distinct key, which makes
 * bench_fleet --quick's homogeneous fleet ~3.5x cheaper in CPU.
 *
 * The cache is *single-flight*: concurrent get()s for the same key
 * (parallel fleet workers simulating identical jobs) block on one
 * std::once_flag while the first caller solves, instead of solving
 * redundantly or — worse — racing on the map. That also makes the
 * hit/miss counters deterministic at any thread width: misses always
 * equal the number of distinct keys, regardless of which worker got
 * there first.
 *
 * Correctness contract (cross-checked in tests/test_fleet.cc): a
 * cache hit returns the exact object a fresh solve would have
 * produced — the simulation driven by a cached plan is span-for-span
 * identical to one driven by an uncached solve.
 */

#ifndef MOBIUS_FLEET_PLAN_CACHE_HH
#define MOBIUS_FLEET_PLAN_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "runtime/api.hh"

namespace mobius
{

/**
 * A thread-safe, single-flight memo table from canonical key
 * strings to values of type @p V. The value is computed by the
 * first get() for a key and shared by reference thereafter; @p V
 * must be immutable after construction (callers copy what they
 * need to mutate).
 */
template <typename V>
class SingleFlightCache
{
  public:
    /** Hit/miss totals since construction (or clear()). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;

        /** @return hits / lookups, 0 when no lookups happened. */
        double
        hitRate() const
        {
            std::uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) /
                    static_cast<double>(total)
                         : 0.0;
        }
    };

    /**
     * Return the value for @p key, computing it with @p solve on
     * the first call (subsequent and concurrent callers wait for
     * that one solve). @p hit, when non-null, reports whether this
     * call found the entry already solved — deterministic per key:
     * exactly one get() per key reports a miss.
     */
    V
    get(const std::string &key, const std::function<V()> &solve,
        bool *hit = nullptr)
    {
        Entry *entry = nullptr;
        bool fresh = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto [it, inserted] = entries_.try_emplace(key);
            if (inserted)
                it->second = std::make_unique<Entry>();
            entry = it->second.get();
            fresh = inserted;
            if (fresh)
                ++stats_.misses;
            else
                ++stats_.hits;
        }
        if (hit)
            *hit = !fresh;
        // Solve outside the map lock: a 100ms MIP solve must not
        // serialize lookups for unrelated keys.
        std::call_once(entry->once, [&] { entry->value = solve(); });
        return entry->value;
    }

    /** @return hit/miss totals (consistent snapshot). */
    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

    /** @return number of distinct keys ever solved or in flight. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

    /** Drop every entry and zero the stats. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        stats_ = Stats{};
    }

  private:
    struct Entry
    {
        std::once_flag once;
        V value{};
    };

    mutable std::mutex mu_;
    std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
    Stats stats_;
};

/** The fleet's plan memo: canonical job plan key -> MobiusPlan. */
using PlanCache = SingleFlightCache<MobiusPlan>;

} // namespace mobius

#endif // MOBIUS_FLEET_PLAN_CACHE_HH

/**
 * @file
 * Frozen reference for max-min fair share (test-only).
 *
 * This is maxMinFairRates() as it shipped before the solver moved to
 * flow views and a caller-owned workspace: every call allocates its
 * pool -> flow adjacency and scratch arrays, and each flow owns its
 * pool list. The production solver (xfer/fair_share.hh) must return
 * memcmp-equal rates and equal FairShareStats on every input. Keep
 * this file as it is: it is the oracle, not an implementation to
 * tune.
 */

#ifndef MOBIUS_TESTS_FAIR_SHARE_REFERENCE_HH
#define MOBIUS_TESTS_FAIR_SHARE_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "base/logging.hh"
#include "xfer/fair_share.hh"

namespace mobius::reference
{

/** A flow that owns its pool list. */
struct FairShareFlow
{
    std::vector<int> pools;  //!< capacity pool ids traversed
    double rateCap = 0.0;    //!< optional per-flow cap (0 = none)
};

/** Max-min fair rates, one allocating call per solve. */
inline std::vector<double>
maxMinFairRates(const std::vector<FairShareFlow> &flows,
                const std::vector<double> &pool_capacity,
                FairShareStats *stats = nullptr)
{
    const std::size_t nf = flows.size();
    const std::size_t np = pool_capacity.size();
    std::vector<double> rate(nf, 0.0);
    if (stats)
        *stats = {};
    if (nf == 0)
        return rate;

    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kEps = 1e-6;

    std::vector<std::vector<std::uint32_t>> poolFlows(np);
    for (std::size_t f = 0; f < nf; ++f) {
        for (int pool : flows[f].pools)
            poolFlows[static_cast<std::size_t>(pool)].push_back(
                static_cast<std::uint32_t>(f));
    }

    std::vector<double> residual = pool_capacity;
    std::vector<int> users(np, 0);
    std::vector<bool> frozen(nf, false);
    std::vector<char> inComponent(nf, false);
    std::vector<char> poolSeen(np, false);
    std::vector<std::uint32_t> compFlows;
    std::vector<int> compPools;

    for (std::size_t seed = 0; seed < nf; ++seed) {
        if (inComponent[seed])
            continue;
        compFlows.clear();
        compPools.clear();
        compFlows.push_back(static_cast<std::uint32_t>(seed));
        inComponent[seed] = true;
        for (std::size_t i = 0; i < compFlows.size(); ++i) {
            for (int pool : flows[compFlows[i]].pools) {
                std::size_t p = static_cast<std::size_t>(pool);
                if (poolSeen[p])
                    continue;
                poolSeen[p] = true;
                compPools.push_back(pool);
                for (std::uint32_t g : poolFlows[p]) {
                    if (!inComponent[g]) {
                        inComponent[g] = true;
                        compFlows.push_back(g);
                    }
                }
            }
        }
        std::sort(compFlows.begin(), compFlows.end());
        std::sort(compPools.begin(), compPools.end());
        if (stats)
            ++stats->components;

        for (int pool : compPools) {
            users[static_cast<std::size_t>(pool)] = static_cast<int>(
                poolFlows[static_cast<std::size_t>(pool)].size());
        }
        std::size_t remaining = compFlows.size();
        while (remaining > 0) {
            if (stats)
                ++stats->rounds;
            double best = kInf;
            for (int pool : compPools) {
                std::size_t p = static_cast<std::size_t>(pool);
                if (users[p] > 0)
                    best = std::min(best, residual[p] / users[p]);
            }
            for (std::uint32_t f : compFlows) {
                if (!frozen[f] && flows[f].rateCap > 0.0)
                    best = std::min(best,
                                    flows[f].rateCap - rate[f]);
            }

            if (best == kInf)
                panic("max-min fairness: unconstrained flow");
            if (best < 0)
                best = 0;

            for (std::uint32_t f : compFlows) {
                if (frozen[f])
                    continue;
                rate[f] += best;
                for (int pool : flows[f].pools)
                    residual[static_cast<std::size_t>(pool)] -= best;
            }

            for (std::uint32_t f : compFlows) {
                if (frozen[f])
                    continue;
                bool hit = false;
                bool byCap = false;
                if (flows[f].rateCap > 0.0 &&
                    rate[f] >= flows[f].rateCap - kEps) {
                    hit = true;
                    byCap = true;
                }
                for (int pool : flows[f].pools) {
                    std::size_t p = static_cast<std::size_t>(pool);
                    if (residual[p] <= kEps * pool_capacity[p]) {
                        hit = true;
                        break;
                    }
                }
                if (hit) {
                    frozen[f] = true;
                    --remaining;
                    for (int pool : flows[f].pools)
                        --users[static_cast<std::size_t>(pool)];
                    if (stats && byCap)
                        ++stats->cappedFlows;
                }
            }
        }
    }

    if (stats) {
        for (std::size_t p = 0; p < np; ++p) {
            if (pool_capacity[p] > 0.0 &&
                residual[p] <= kEps * pool_capacity[p])
                ++stats->saturatedPools;
        }
    }
    return rate;
}

} // namespace mobius::reference

#endif // MOBIUS_TESTS_FAIR_SHARE_REFERENCE_HH

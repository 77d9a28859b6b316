#include "xfer/fair_share.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

void
waterfillComponent(std::span<const FairShareFlowView> flows,
                   std::span<const int> pools,
                   std::span<const double> pool_capacity,
                   std::span<double> rates, FairShareWorkspace &ws,
                   FairShareStats *stats)
{
    const std::size_t nf = flows.size();
    if (rates.size() != nf)
        panic("waterfillComponent: %zu rates for %zu flows",
              rates.size(), nf);

    // A flow with no pools (e.g. a pure-DRAM move) is only bounded by
    // its own cap; treat "no cap" as effectively infinite.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kEps = 1e-6;

    // The per-pool arrays grow once to the pool count; only this
    // component's entries are initialised, so a call costs
    // O(component) however many pools the topology has.
    std::vector<double> &residual = ws.residual;
    std::vector<int> &users = ws.users;
    std::vector<char> &frozen = ws.frozen;
    if (residual.size() < pool_capacity.size()) {
        residual.resize(pool_capacity.size());
        users.resize(pool_capacity.size());
    }
    if (frozen.size() < nf)
        frozen.resize(nf);
    for (int pool : pools) {
        std::size_t p = static_cast<std::size_t>(pool);
        residual[p] = pool_capacity[p];
        users[p] = 0;
    }
    for (std::size_t f = 0; f < nf; ++f) {
        rates[f] = 0.0;
        frozen[f] = false;
        for (int pool : flows[f].pools)
            ++users[static_cast<std::size_t>(pool)];
    }
    if (stats)
        ++stats->components;

    // Find the smallest achievable equal increment (pool residual /
    // unfrozen users, or a flow's distance to its own cap), raise
    // every unfrozen flow by it, freeze whoever hit a limit, repeat.
    std::size_t remaining = nf;
    while (remaining > 0) {
        if (stats)
            ++stats->rounds;
        double best = kInf;
        for (int pool : pools) {
            std::size_t p = static_cast<std::size_t>(pool);
            if (users[p] > 0)
                best = std::min(best, residual[p] / users[p]);
        }
        for (std::size_t f = 0; f < nf; ++f) {
            if (!frozen[f] && flows[f].rateCap > 0.0)
                best = std::min(best, flows[f].rateCap - rates[f]);
        }

        if (best == kInf) {
            // Every unfrozen flow is unconstrained; that can only
            // happen for pool-less, cap-less flows, which make no
            // physical sense here.
            panic("max-min fairness: unconstrained flow");
        }
        if (best < 0)
            best = 0;

        for (std::size_t f = 0; f < nf; ++f) {
            if (frozen[f])
                continue;
            rates[f] += best;
            for (int pool : flows[f].pools)
                residual[static_cast<std::size_t>(pool)] -= best;
        }

        for (std::size_t f = 0; f < nf; ++f) {
            if (frozen[f])
                continue;
            bool hit = false;
            bool byCap = false;
            if (flows[f].rateCap > 0.0 &&
                rates[f] >= flows[f].rateCap - kEps) {
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

    // Pools no flow uses keep their capacity, so counting saturation
    // per component counts it over the whole problem.
    if (stats) {
        for (int pool : pools) {
            std::size_t p = static_cast<std::size_t>(pool);
            if (pool_capacity[p] > 0.0 &&
                residual[p] <= kEps * pool_capacity[p])
                ++stats->saturatedPools;
        }
    }
}

void
maxMinFairRates(std::span<const FairShareFlowView> flows,
                std::span<const double> pool_capacity,
                std::span<double> rates, FairShareWorkspace &ws,
                FairShareStats *stats)
{
    MOBIUS_PROF_ZONE("xfer.fair_share");
    const std::size_t nf = flows.size();
    const std::size_t np = pool_capacity.size();
    if (rates.size() != nf)
        panic("maxMinFairRates: %zu rates for %zu flows", rates.size(),
              nf);
    if (stats)
        *stats = {};
    if (nf == 0)
        return;

    // Pool -> flows adjacency in CSR form for the component search:
    // count each pool's flows, prefix-sum the counts into offsets,
    // then fill. `users` is the fill cursor here; the waterfill
    // re-seeds it per component.
    std::vector<std::uint32_t> &start = ws.poolStart;
    std::vector<std::uint32_t> &poolFlows = ws.poolFlows;
    std::vector<int> &users = ws.users;
    start.assign(np + 1, 0);
    for (const FairShareFlowView &f : flows) {
        for (int pool : f.pools)
            ++start[static_cast<std::size_t>(pool) + 1];
    }
    for (std::size_t p = 0; p < np; ++p)
        start[p + 1] += start[p];
    poolFlows.resize(start[np]);
    users.assign(start.begin(), start.end() - 1);
    for (std::size_t f = 0; f < nf; ++f) {
        for (int pool : flows[f].pools)
            poolFlows[static_cast<std::size_t>(
                users[static_cast<std::size_t>(pool)]++)] =
                static_cast<std::uint32_t>(f);
    }

    std::vector<char> &inComponent = ws.inComponent;
    std::vector<char> &poolSeen = ws.poolSeen;
    std::vector<std::uint32_t> &compFlows = ws.compFlows;
    std::vector<int> &compPools = ws.compPools;
    inComponent.assign(nf, false);
    poolSeen.assign(np, false);

    // Every flow belongs to exactly one component, so every rate is
    // written once.
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
                for (std::uint32_t k = start[p]; k < start[p + 1];
                     ++k) {
                    std::uint32_t g = poolFlows[k];
                    if (!inComponent[g]) {
                        inComponent[g] = true;
                        compFlows.push_back(g);
                    }
                }
            }
        }

        ws.compViews.resize(compFlows.size());
        ws.compRates.resize(compFlows.size());
        for (std::size_t i = 0; i < compFlows.size(); ++i)
            ws.compViews[i] = flows[compFlows[i]];
        waterfillComponent(ws.compViews, compPools, pool_capacity,
                           ws.compRates, ws, stats);
        for (std::size_t i = 0; i < compFlows.size(); ++i)
            rates[compFlows[i]] = ws.compRates[i];
    }
}

} // namespace mobius

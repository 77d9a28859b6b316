/**
 * @file
 * Unit and property tests for the max-min fair rate allocator, and
 * bit-identity against the frozen allocating solver
 * (fair_share_reference.hh).
 */

#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "fair_share_reference.hh"
#include "xfer/fair_share.hh"

namespace mobius
{
namespace
{

using reference::FairShareFlow;

/** Solve @p flows with the production solver and workspace @p ws. */
std::vector<double>
solve(const std::vector<FairShareFlow> &flows,
      const std::vector<double> &cap, FairShareWorkspace &ws,
      FairShareStats *stats = nullptr)
{
    std::vector<FairShareFlowView> views(flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f)
        views[f] = {flows[f].pools, flows[f].rateCap};
    std::vector<double> rates(flows.size());
    maxMinFairRates(views, cap, rates, ws, stats);
    return rates;
}

/** solve() with a fresh workspace. */
std::vector<double>
solve(const std::vector<FairShareFlow> &flows,
      const std::vector<double> &cap, FairShareStats *stats = nullptr)
{
    FairShareWorkspace ws;
    return solve(flows, cap, ws, stats);
}

/**
 * solve() through @p ws, checked against the frozen reference:
 * memcmp-equal rates and equal telemetry.
 */
std::vector<double>
solveChecked(const std::vector<FairShareFlow> &flows,
             const std::vector<double> &cap, FairShareWorkspace &ws)
{
    FairShareStats stats;
    FairShareStats refStats;
    auto rates = solve(flows, cap, ws, &stats);
    auto ref = reference::maxMinFairRates(flows, cap, &refStats);
    EXPECT_EQ(rates.size(), ref.size());
    // memcmp must not see the null data() of an empty vector.
    if (rates.size() == ref.size() && !rates.empty()) {
        EXPECT_EQ(std::memcmp(rates.data(), ref.data(),
                              rates.size() * sizeof(double)),
                  0);
    }
    EXPECT_EQ(stats, refStats);
    return rates;
}

/**
 * A random flow over @p npools pools, 1-3 distinct hops, capped with
 * probability 1 / @p cap_one_in.
 */
FairShareFlow
randomFlow(Rng &rng, int npools, std::uint64_t cap_one_in)
{
    FairShareFlow fl;
    int hops = 1 + static_cast<int>(rng.below(3));
    for (int h = 0; h < hops; ++h) {
        int p = static_cast<int>(rng.below(npools));
        bool dup = false;
        for (int q : fl.pools)
            dup |= (q == p);
        if (!dup)
            fl.pools.push_back(p);
    }
    if (rng.below(cap_one_in) == 0)
        fl.rateCap = rng.uniform(0.5, 10.0);
    return fl;
}

/** The problem ComponentSolvesMatchFullSolveExactly uses for @p seed. */
std::pair<std::vector<FairShareFlow>, std::vector<double>>
componentProblem(int seed)
{
    Rng rng(static_cast<std::uint64_t>(seed) + 1000);
    const int npools = 4 + static_cast<int>(rng.below(6));
    std::vector<double> cap;
    for (int p = 0; p < npools; ++p)
        cap.push_back(rng.uniform(1.0, 20.0));

    const int nflows = 2 + static_cast<int>(rng.below(12));
    std::vector<FairShareFlow> flows;
    for (int f = 0; f < nflows; ++f)
        flows.push_back(randomFlow(rng, npools, 4));
    return {flows, cap};
}

/**
 * A random problem that is one connected component: every flow after
 * the first crosses a pool of an earlier flow.
 */
std::pair<std::vector<FairShareFlow>, std::vector<double>>
connectedProblem(int seed)
{
    Rng rng(static_cast<std::uint64_t>(seed) + 3000);
    const int npools = 3 + static_cast<int>(rng.below(8));
    std::vector<double> cap;
    for (int p = 0; p < npools; ++p)
        cap.push_back(rng.uniform(1.0, 20.0));

    const int nflows = 2 + static_cast<int>(rng.below(14));
    std::vector<FairShareFlow> flows;
    for (int f = 0; f < nflows; ++f) {
        FairShareFlow fl = randomFlow(rng, npools, 4);
        if (f > 0) {
            const auto &earlier = flows[rng.below(flows.size())].pools;
            int shared = earlier[rng.below(earlier.size())];
            bool has = false;
            for (int p : fl.pools)
                has |= (p == shared);
            if (!has)
                fl.pools[0] = shared;
        }
        flows.push_back(fl);
    }
    return {flows, cap};
}

/** The distinct pools @p flows traverse, in first-use order. */
std::vector<int>
poolsOf(const std::vector<FairShareFlow> &flows)
{
    std::vector<int> pools;
    for (const FairShareFlow &fl : flows) {
        for (int p : fl.pools) {
            if (std::find(pools.begin(), pools.end(), p) == pools.end())
                pools.push_back(p);
        }
    }
    return pools;
}

/** waterfillComponent() over @p flows (one component) through @p ws. */
std::vector<double>
waterfill(const std::vector<FairShareFlow> &flows,
          const std::vector<int> &pools, const std::vector<double> &cap,
          FairShareWorkspace &ws, FairShareStats *stats)
{
    std::vector<FairShareFlowView> views(flows.size());
    for (std::size_t f = 0; f < flows.size(); ++f)
        views[f] = {flows[f].pools, flows[f].rateCap};
    std::vector<double> rates(flows.size());
    waterfillComponent(views, pools, cap, rates, ws, stats);
    return rates;
}

/** Seeds of the FairShareRandom suite. */
constexpr int kSeeds = 25;

TEST(FairShare, SingleFlowGetsFullLink)
{
    std::vector<FairShareFlow> flows{{{0}, 0.0}};
    auto rates = solve(flows, {10.0});
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_NEAR(rates[0], 10.0, 1e-6);
}

TEST(FairShare, TwoFlowsSplitSharedLink)
{
    // The paper's root-complex contention: two GPUs sharing one root
    // complex each see half the bandwidth (§2.2, Fig. 2).
    std::vector<FairShareFlow> flows{{{0}, 0.0}, {{0}, 0.0}};
    auto rates = solve(flows, {13.1});
    EXPECT_NEAR(rates[0], 6.55, 1e-6);
    EXPECT_NEAR(rates[1], 6.55, 1e-6);
}

TEST(FairShare, BottleneckOnSharedMiddleLink)
{
    // flows: A uses pools {0, 2}; B uses pools {1, 2}; pool 2 shared.
    std::vector<FairShareFlow> flows{{{0, 2}, 0.0}, {{1, 2}, 0.0}};
    auto rates = solve(flows, {10.0, 10.0, 8.0});
    EXPECT_NEAR(rates[0], 4.0, 1e-6);
    EXPECT_NEAR(rates[1], 4.0, 1e-6);
}

TEST(FairShare, MaxMinRedistributesResidual)
{
    // Classic max-min example: flow 0 capped by its private narrow
    // link; flows 1 and 2 share the residual of the big link.
    // pools: 0 (cap 2), 1 (cap 12). Flow0: {0,1}; Flow1: {1}; Flow2: {1}.
    std::vector<FairShareFlow> flows{
        {{0, 1}, 0.0}, {{1}, 0.0}, {{1}, 0.0}};
    auto rates = solve(flows, {2.0, 12.0});
    EXPECT_NEAR(rates[0], 2.0, 1e-6);
    EXPECT_NEAR(rates[1], 5.0, 1e-6);
    EXPECT_NEAR(rates[2], 5.0, 1e-6);
}

TEST(FairShare, RateCapHonored)
{
    std::vector<FairShareFlow> flows{{{0}, 3.0}, {{0}, 0.0}};
    auto rates = solve(flows, {10.0});
    EXPECT_NEAR(rates[0], 3.0, 1e-6);
    EXPECT_NEAR(rates[1], 7.0, 1e-6);
}

TEST(FairShare, AsymmetricPathsFourFlows)
{
    // Two flows on each of two disjoint links: independent halves.
    std::vector<FairShareFlow> flows{
        {{0}, 0.0}, {{0}, 0.0}, {{1}, 0.0}, {{1}, 0.0}};
    auto rates = solve(flows, {10.0, 4.0});
    EXPECT_NEAR(rates[0], 5.0, 1e-6);
    EXPECT_NEAR(rates[1], 5.0, 1e-6);
    EXPECT_NEAR(rates[2], 2.0, 1e-6);
    EXPECT_NEAR(rates[3], 2.0, 1e-6);
}

/** Property: allocations never violate pool capacities. */
class FairShareRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(FairShareRandom, CapacityAndEfficiencyInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const int npools = 2 + static_cast<int>(rng.below(6));
    std::vector<double> cap;
    for (int p = 0; p < npools; ++p)
        cap.push_back(rng.uniform(1.0, 20.0));

    const int nflows = 1 + static_cast<int>(rng.below(10));
    std::vector<FairShareFlow> flows;
    for (int f = 0; f < nflows; ++f)
        flows.push_back(randomFlow(rng, npools, 4));

    FairShareWorkspace ws;
    auto rates = solveChecked(flows, cap, ws);
    ASSERT_EQ(rates.size(), flows.size());

    // 1. No pool over capacity.
    std::vector<double> used(cap.size(), 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
        for (int p : flows[f].pools)
            used[p] += rates[f];
    }
    for (std::size_t p = 0; p < cap.size(); ++p)
        EXPECT_LE(used[p], cap[p] + 1e-5);

    // 2. No cap violated; every rate positive.
    for (std::size_t f = 0; f < flows.size(); ++f) {
        EXPECT_GT(rates[f], 0.0);
        if (flows[f].rateCap > 0) {
            EXPECT_LE(rates[f], flows[f].rateCap + 1e-6);
        }
    }

    // 3. Pareto efficiency: every flow is blocked by a saturated
    // pool or its own cap (no free capacity left on its whole path).
    for (std::size_t f = 0; f < flows.size(); ++f) {
        bool blocked = flows[f].rateCap > 0 &&
            rates[f] >= flows[f].rateCap - 1e-5;
        for (int p : flows[f].pools) {
            if (used[p] >= cap[p] - std::max(1e-5, 1e-5 * cap[p]))
                blocked = true;
        }
        EXPECT_TRUE(blocked) << "flow " << f << " not bottlenecked";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairShareRandom,
                         ::testing::Range(0, kSeeds));

TEST(FairShare, ReportsComponentCount)
{
    // Two disjoint links, two flows each -> two components; a flow
    // bridging both links merges them into one.
    std::vector<FairShareFlow> flows{
        {{0}, 0.0}, {{0}, 0.0}, {{1}, 0.0}, {{1}, 0.0}};
    FairShareStats stats;
    solve(flows, {10.0, 4.0}, &stats);
    EXPECT_EQ(stats.components, 2);

    flows.push_back({{0, 1}, 0.0});
    solve(flows, {10.0, 4.0}, &stats);
    EXPECT_EQ(stats.components, 1);
}

/**
 * The decomposition invariant the incremental transfer engine builds
 * on: a component's rates depend only on its own flows — solving the
 * whole problem and solving one component in isolation must agree
 * *exactly* (==), not merely within a tolerance.
 */
TEST_P(FairShareRandom, ComponentSolvesMatchFullSolveExactly)
{
    auto [flows, cap] = componentProblem(GetParam());
    // One workspace for the full solve and every smaller component
    // solve below.
    FairShareWorkspace ws;
    auto full = solveChecked(flows, cap, ws);

    // Discover components the same way the transfer engine does:
    // BFS over "shares a pool".
    std::vector<int> comp(flows.size(), -1);
    int ncomp = 0;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        if (comp[f] >= 0)
            continue;
        int c = ncomp++;
        std::vector<std::size_t> work{f};
        comp[f] = c;
        while (!work.empty()) {
            std::size_t cur = work.back();
            work.pop_back();
            for (std::size_t g = 0; g < flows.size(); ++g) {
                if (comp[g] >= 0)
                    continue;
                bool shares = false;
                for (int p : flows[cur].pools)
                    for (int q : flows[g].pools)
                        shares |= (p == q);
                if (shares) {
                    comp[g] = c;
                    work.push_back(g);
                }
            }
        }
    }

    // Re-solve each component alone (same flow order, same pool ids)
    // and demand bitwise agreement with the full solve — through
    // maxMinFairRates, and through waterfillComponent with the flows
    // reversed and the pools in first-use order, as the transfer
    // engine's walk hands them over. The waterfills' summed
    // telemetry is the full solve's.
    FairShareStats fullStats;
    solve(flows, cap, ws, &fullStats);
    FairShareStats summed;
    for (int c = 0; c < ncomp; ++c) {
        std::vector<FairShareFlow> sub;
        std::vector<std::size_t> idx;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            if (comp[f] == c) {
                sub.push_back(flows[f]);
                idx.push_back(f);
            }
        }
        auto part = solveChecked(sub, cap, ws);
        for (std::size_t i = 0; i < idx.size(); ++i)
            EXPECT_EQ(part[i], full[idx[i]])
                << "flow " << idx[i] << " component " << c;

        std::reverse(sub.begin(), sub.end());
        auto filled = waterfill(sub, poolsOf(sub), cap, ws, &summed);
        for (std::size_t i = 0; i < idx.size(); ++i)
            EXPECT_EQ(filled[idx.size() - 1 - i], full[idx[i]])
                << "waterfilled flow " << idx[i] << " component " << c;
    }
    EXPECT_EQ(summed, fullStats);
    EXPECT_EQ(summed.components, ncomp);
}

/**
 * Inside one component the waterfill is order-invariant: each
 * round's increment is a minimum and every pool subtracts it once
 * per unfrozen user. Shuffled flows give memcmp-equal rates and
 * equal telemetry, through maxMinFairRates and through
 * waterfillComponent with the pools shuffled too.
 */
TEST_P(FairShareRandom, ShuffledComponentGivesSameRates)
{
    auto [flows, cap] = connectedProblem(GetParam());
    FairShareWorkspace ws;
    FairShareStats stats;
    auto rates = solve(flows, cap, ws, &stats);
    ASSERT_EQ(stats.components, 1);

    Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<std::size_t> perm(flows.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        for (std::size_t i = perm.size(); i > 1; --i)
            std::swap(perm[i - 1], perm[rng.below(i)]);
        std::vector<FairShareFlow> shuffled;
        for (std::size_t i : perm)
            shuffled.push_back(flows[i]);
        std::vector<int> pools = poolsOf(shuffled);
        for (std::size_t i = pools.size(); i > 1; --i)
            std::swap(pools[i - 1], pools[rng.below(i)]);

        FairShareStats solvedStats;
        FairShareStats filledStats;
        auto solved = solve(shuffled, cap, ws, &solvedStats);
        auto filled = waterfill(shuffled, pools, cap, ws, &filledStats);
        std::vector<double> expect;
        for (std::size_t i : perm)
            expect.push_back(rates[i]);
        EXPECT_EQ(std::memcmp(solved.data(), expect.data(),
                              expect.size() * sizeof(double)),
                  0)
            << "trial " << trial;
        EXPECT_EQ(std::memcmp(filled.data(), expect.data(),
                              expect.size() * sizeof(double)),
                  0)
            << "trial " << trial;
        EXPECT_EQ(solvedStats, stats);
        EXPECT_EQ(filledStats, stats);
    }
}

/**
 * Randomized add/remove churn on a flow set, re-solved after every
 * change. Simulating the engine's incremental update — re-solving
 * only the changed flow's component and keeping every other rate —
 * must exactly match a from-scratch solve of the whole set at every
 * step.
 */
TEST_P(FairShareRandom, IncrementalChurnMatchesFullRecompute)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
    const int npools = 3 + static_cast<int>(rng.below(5));
    std::vector<double> cap;
    for (int p = 0; p < npools; ++p)
        cap.push_back(rng.uniform(1.0, 20.0));

    std::vector<FairShareFlow> active;
    std::vector<double> rates; // maintained incrementally
    FairShareWorkspace ws;     // shared by every solve below
    for (int step = 0; step < 40; ++step) {
        std::vector<int> changed_pools;
        if (active.empty() || rng.below(2) == 0) {
            FairShareFlow fl = randomFlow(rng, npools, 5);
            changed_pools = fl.pools;
            active.push_back(fl);
            rates.push_back(0.0);
        } else {
            std::size_t victim = rng.below(active.size());
            changed_pools = active[victim].pools;
            active.erase(active.begin() +
                         static_cast<std::ptrdiff_t>(victim));
            rates.erase(rates.begin() +
                        static_cast<std::ptrdiff_t>(victim));
        }

        // Incremental update: BFS the affected component from the
        // changed pools, re-solve those flows alone, splice their
        // rates in; everything else keeps its stored rate.
        std::vector<bool> touched(active.size(), false);
        std::vector<int> pool_seen(npools, 0);
        for (int p : changed_pools)
            pool_seen[static_cast<std::size_t>(p)] = 1;
        bool grew = true;
        while (grew) {
            grew = false;
            for (std::size_t f = 0; f < active.size(); ++f) {
                if (touched[f])
                    continue;
                bool hit = false;
                for (int p : active[f].pools)
                    hit |= pool_seen[static_cast<std::size_t>(p)] != 0;
                if (hit) {
                    touched[f] = true;
                    grew = true;
                    for (int p : active[f].pools)
                        pool_seen[static_cast<std::size_t>(p)] = 1;
                }
            }
        }
        std::vector<FairShareFlow> sub;
        std::vector<std::size_t> idx;
        for (std::size_t f = 0; f < active.size(); ++f) {
            if (touched[f]) {
                sub.push_back(active[f]);
                idx.push_back(f);
            }
        }
        auto part = solveChecked(sub, cap, ws);
        for (std::size_t i = 0; i < idx.size(); ++i)
            rates[idx[i]] = part[i];

        auto full = solveChecked(active, cap, ws);
        ASSERT_EQ(full.size(), rates.size());
        for (std::size_t f = 0; f < full.size(); ++f)
            EXPECT_EQ(rates[f], full[f])
                << "step " << step << " flow " << f;
    }
}

/**
 * The oracle checks above are not vacuous: across the suite's seeds
 * some problems split into several components and some caps bind.
 */
TEST(FairShareOracle, SeedsCoverComponentsAndCaps)
{
    int split = 0;
    int capped = 0;
    FairShareWorkspace ws;
    for (int seed = 0; seed < kSeeds; ++seed) {
        auto [flows, cap] = componentProblem(seed);
        FairShareStats stats;
        solve(flows, cap, ws, &stats);
        split += stats.components > 1;
        capped += stats.cappedFlows > 0;
    }
    EXPECT_GT(split, 0);
    EXPECT_GT(capped, 0);
}

} // namespace
} // namespace mobius

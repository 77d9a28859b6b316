/**
 * @file
 * Max-min fair bandwidth allocation for fluid flows.
 *
 * Each flow traverses a set of capacity pools (link directions). When
 * several flows share a pool they split its capacity max-min fairly:
 * the most constrained pool is found, its flows are frozen at an equal
 * share, the residual capacity is redistributed, and the process
 * repeats. This reproduces the root-complex contention behaviour the
 * paper profiles in §2.2/§4.2 (e.g. two GPUs under one root complex
 * each observing half the root complex's bandwidth).
 *
 * The solver has two parts:
 *
 *  - **waterfillComponent()** waterfills one connected component of
 *    the flow–pool bipartite graph (flows connected when they share
 *    a pool, directly or transitively). It reads and writes only the
 *    component's own pools, flows and rates, and it sets up nothing
 *    else: its cost is O(the component), whatever the pool count.
 *    Max-min fairness is separable this way, so a component's rates
 *    depend *only* on its own flows, caps and pool capacities —
 *    bit-for-bit, not just mathematically. They do not depend on the
 *    order of the flows or pools either: each round's increment is a
 *    minimum, and every pool subtracts that same increment once per
 *    unfrozen user. The transfer engine relies on both properties:
 *    its component walk hands the flows over in walk order, and its
 *    per-component solve reproduces exactly the rates a full solve
 *    would assign (see transfer_engine.hh and DESIGN.md "Simulator
 *    performance model").
 *  - **maxMinFairRates()** solves any flow set: it builds a CSR
 *    pool -> flow adjacency, splits the flows into components and
 *    calls waterfillComponent() once per component. The engine's
 *    cross-check, the tests and bench_micro use it.
 *
 * **In place.** Both read flow *views* (a span of pool ids and a cap,
 * pointing into storage the caller already has) and write the rates
 * into a caller-provided array. Their scratch lives in a caller-owned
 * FairShareWorkspace. Its per-pool arrays grow once to the pool
 * count and are initialised only at the pools a component uses; the
 * per-flow arrays grow to the largest problem seen. A reused
 * workspace therefore solves allocation-free in steady state.
 */

#ifndef MOBIUS_XFER_FAIR_SHARE_HH
#define MOBIUS_XFER_FAIR_SHARE_HH

#include <cstdint>
#include <span>
#include <vector>

namespace mobius
{

/** A flow, for the purposes of rate allocation. */
struct FairShareFlowView
{
    std::span<const int> pools; //!< capacity pool ids traversed
    double rateCap = 0.0;       //!< optional per-flow cap (0 = none)
};

/**
 * Scratch for the solver, owned by the caller so repeated solves
 * reuse its capacity. Its contents between calls mean nothing; one
 * workspace serves problems of any size.
 */
struct FairShareWorkspace
{
    // waterfillComponent()
    std::vector<double> residual;         //!< unallocated, per pool
    std::vector<int> users;               //!< unfrozen flows, per pool
    std::vector<char> frozen;             //!< flow reached its limit
    // maxMinFairRates()
    std::vector<std::uint32_t> poolStart; //!< CSR offsets, pools + 1
    std::vector<std::uint32_t> poolFlows; //!< flow indices by pool
    std::vector<char> inComponent;        //!< flow already visited
    std::vector<char> poolSeen;           //!< pool already visited
    std::vector<std::uint32_t> compFlows; //!< current component
    std::vector<int> compPools;           //!< its pools
    std::vector<FairShareFlowView> compViews; //!< its flows' views
    std::vector<double> compRates;        //!< its flows' rates
};

/** Telemetry from one max-min fair allocation. */
struct FairShareStats
{
    int rounds = 0;          //!< freeze iterations executed
    int cappedFlows = 0;     //!< flows frozen by their own rate cap
    int saturatedPools = 0;  //!< pools driven to saturation
    int components = 0;      //!< connected components waterfilled

    /** Field-wise equality. */
    bool operator==(const FairShareStats &) const = default;
};

/**
 * Waterfill one connected component.
 *
 * @param flows          the component's flows, in any order; they
 *                       must be connected through shared pools for
 *                       the rates to equal maxMinFairRates()'s
 * @param pools          every pool id the flows traverse, each once,
 *                       in any order
 * @param pool_capacity  capacity of each pool id (bytes/second)
 * @param rates          out: per-flow rate in bytes/second, same
 *                       order as @p flows; must hold flows.size()
 * @param ws             scratch, reusable across calls
 * @param stats          optional telemetry, *added to*: one more
 *                       component, its rounds, capped flows and
 *                       saturated pools
 */
void waterfillComponent(std::span<const FairShareFlowView> flows,
                        std::span<const int> pools,
                        std::span<const double> pool_capacity,
                        std::span<double> rates, FairShareWorkspace &ws,
                        FairShareStats *stats = nullptr);

/**
 * Compute max-min fair rates.
 *
 * @param flows          the active flows
 * @param pool_capacity  capacity of each pool id referenced by flows;
 *                       indexed by pool id (bytes/second)
 * @param rates          out: per-flow rate in bytes/second, same
 *                       order as @p flows; must hold flows.size()
 * @param ws             scratch, reusable across calls
 * @param stats          optional telemetry out-param (reset on entry)
 */
void maxMinFairRates(std::span<const FairShareFlowView> flows,
                     std::span<const double> pool_capacity,
                     std::span<double> rates, FairShareWorkspace &ws,
                     FairShareStats *stats = nullptr);

} // namespace mobius

#endif // MOBIUS_XFER_FAIR_SHARE_HH

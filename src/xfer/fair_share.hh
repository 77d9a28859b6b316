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
 * **Component decomposition.** The solver first splits the flow–pool
 * bipartite graph into connected components (flows connected when
 * they share a pool, directly or transitively) and waterfills each
 * component independently. Max-min fairness is separable this way:
 * the waterfilling rounds of one component never read or write
 * another component's pools, so a component's rates depend *only* on
 * its own flows, caps, and pool capacities — bit-for-bit, not just
 * mathematically. That invariance is what the transfer engine's
 * incremental recomputation relies on: when the active-flow set
 * changes, re-solving just the affected component reproduces exactly
 * the rates a full recomputation would assign (see
 * transfer_engine.hh and DESIGN.md "Simulator performance model").
 *
 * Components are processed in order of their smallest flow index and
 * flows keep their caller-given order inside a component, so results
 * are deterministic and independent of how the caller discovered the
 * component.
 *
 * **In place.** The solver reads flow *views* (a span of pool ids and
 * a cap, pointing into storage the caller already has) and writes
 * the rates into a caller-provided array. Its scratch lives in a
 * caller-owned FairShareWorkspace: a CSR pool -> flow adjacency plus
 * per-pool and per-flow arrays. A workspace reused across calls only
 * grows to the largest problem it has seen, so the transfer engine
 * re-solves allocation-free in steady state.
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
 * Scratch for maxMinFairRates(), owned by the caller so repeated
 * solves reuse its capacity. Its contents between calls mean
 * nothing; one workspace serves problems of any size.
 */
struct FairShareWorkspace
{
    std::vector<std::uint32_t> poolStart; //!< CSR offsets, pools + 1
    std::vector<std::uint32_t> poolFlows; //!< flow indices by pool
    std::vector<double> residual;         //!< unallocated capacity
    std::vector<int> users;               //!< unfrozen flows per pool
    std::vector<char> frozen;             //!< flow reached its limit
    std::vector<char> inComponent;        //!< flow already visited
    std::vector<char> poolSeen;           //!< pool already visited
    std::vector<std::uint32_t> compFlows; //!< current component
    std::vector<int> compPools;           //!< its pools
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

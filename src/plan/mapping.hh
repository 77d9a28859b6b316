/**
 * @file
 * Stage-to-GPU mapping (§3.3).
 *
 * Stages are assigned round-robin over a GPU *order*; the order is
 * what distinguishes sequential mapping (identity) from cross mapping
 * (the order minimising the contention degree of Eq. 12/13). Eq. 13
 * depends only on the sequence of root-complex labels along an order,
 * so cross mapping searches exhaustively over those label sequences,
 * one canonical order each, rather than over all GPU permutations.
 */

#ifndef MOBIUS_PLAN_MAPPING_HH
#define MOBIUS_PLAN_MAPPING_HH

#include <vector>

#include "hw/topology.hh"

namespace mobius
{

/** A stage->GPU assignment via a GPU order. */
struct Mapping
{
    std::vector<int> gpuOrder;  //!< permutation of GPU indices
    double contention = 0.0;    //!< Eq. 13 score for this order

    /** GPU executing stage @p stage (round-robin over the order). */
    int
    gpuOf(int stage) const
    {
        return gpuOrder[static_cast<std::size_t>(stage) %
                        gpuOrder.size()];
    }

    /** @return number of GPUs in the order. */
    int numGpus() const { return static_cast<int>(gpuOrder.size()); }
};

/**
 * Contention degree of a GPU order (Eq. 12/13):
 * sum over stage pairs i < j of shared(i, j) / (j - i), where
 * shared(i, j) is the size of the common root-complex group of the
 * GPUs executing stages i and j (0 when they differ).
 */
double contentionDegree(const Topology &topo,
                        const std::vector<int> &gpu_order,
                        int num_stages);

/** The naive, topology-oblivious mapping of prior pipelines. */
Mapping sequentialMapping(const Topology &topo, int num_stages);

/** Search outcome for cross mapping. */
struct MappingResult
{
    Mapping mapping;            //!< the chosen order
    double searchSeconds = 0.0; //!< wall-clock spent searching
    int evaluated = 0;          //!< canonical orders scored
};

/**
 * §3.3 cross mapping: the GPU order with minimal Eq. 13 score, ties
 * going to the lexicographically smallest order. Scores one canonical
 * order per distinct root-complex label sequence (each group's GPUs
 * in ascending order), N!/(n1!·n2!·...) for groups of n1, n2, ...
 * GPUs; the result is bit-identical to scoring all N! permutations.
 * panic() on a topology without GPUs.
 */
MappingResult crossMapping(const Topology &topo, int num_stages);

} // namespace mobius

#endif // MOBIUS_PLAN_MAPPING_HH

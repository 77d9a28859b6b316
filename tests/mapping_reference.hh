/**
 * @file
 * Frozen brute-force reference for cross mapping (test-only).
 *
 * This is the §3.3 search as it first shipped: score every one of the
 * N! GPU permutations with Eq. 13, in lexicographic order, and keep an
 * order only when it beats the best so far by more than 1e-12, so ties
 * go to the lexicographically smallest order. crossMapping() must
 * choose the same order with a bit-identical contention degree. Keep
 * this file as it is: it is the oracle, not an implementation to tune.
 */

#ifndef MOBIUS_TESTS_MAPPING_REFERENCE_HH
#define MOBIUS_TESTS_MAPPING_REFERENCE_HH

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "hw/topology.hh"
#include "plan/mapping.hh"

namespace mobius::reference
{

/** The Eq. 13 score of @p order, summed row by row over i < j. */
inline double
bruteForceDegree(const std::vector<std::vector<int>> &shared,
                 const std::vector<int> &order, int num_stages)
{
    const int n = static_cast<int>(order.size());
    double total = 0.0;
    for (int i = 0; i < num_stages; ++i) {
        int gi = order[i % n];
        for (int j = i + 1; j < num_stages; ++j) {
            int gj = order[j % n];
            int s = shared[gi][gj];
            if (s > 0)
                total += static_cast<double>(s) / (j - i);
        }
    }
    return total;
}

/** Cross mapping by scoring all N! permutations of the GPUs. */
inline Mapping
bruteForceCrossMapping(const Topology &topo, int num_stages)
{
    int n = topo.numGpus();
    std::vector<std::vector<int>> shared(
        static_cast<std::size_t>(n),
        std::vector<int>(static_cast<std::size_t>(n), 0));
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b)
            shared[a][b] = topo.sharedRootComplexDegree(a, b);
    }

    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    Mapping best_mapping;
    double best = std::numeric_limits<double>::infinity();
    do {
        double d = bruteForceDegree(shared, order, num_stages);
        if (d < best - 1e-12) {
            best = d;
            best_mapping.gpuOrder = order;
        }
    } while (std::next_permutation(order.begin(), order.end()));
    best_mapping.contention = best;
    return best_mapping;
}

} // namespace mobius::reference

#endif // MOBIUS_TESTS_MAPPING_REFERENCE_HH

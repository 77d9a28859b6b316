/**
 * @file
 * Exhaustive partition search, the exact optimum the planner's
 * partitioners are checked against (test-only).
 *
 * It enumerates every composition of the model's layers into
 * contiguous stages and scores each with the production
 * PipelineCostEvaluator, so it is exponential in the layer count and
 * only usable on toy models. Keep it as it is: it is the oracle, not
 * a partitioner to tune.
 */

#ifndef MOBIUS_TESTS_PARTITION_REFERENCE_HH
#define MOBIUS_TESTS_PARTITION_REFERENCE_HH

#include "plan/partition_algos.hh"

namespace mobius
{

/**
 * Exact optimum by enumerating every composition; only for models
 * with at most @p max_layers layers (exponential). Counts every
 * scored partition in `evaluated`; leaves `solveSeconds` at 0.
 */
PartitionResult bruteForcePartition(const PipelineCostEvaluator &eval,
                                    int max_layers = 20);

} // namespace mobius

#endif // MOBIUS_TESTS_PARTITION_REFERENCE_HH

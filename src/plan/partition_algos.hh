/**
 * @file
 * Model partition algorithms (§3.2 and the ablations of §4.3):
 *
 *  - MIP partition: searches the contiguous-partition space for the
 *    minimiser of the Eq. 3 objective evaluated by
 *    PipelineCostEvaluator. Candidate generation (near-uniform
 *    partitions for every stage count) plus boundary hill-climbing
 *    explores the same feasible set as the paper's Gurobi MIP for
 *    this structure; tests cross-check it against brute force.
 *  - Maximum-stage partition: greedily packs as many layers per
 *    stage as fit in GPU memory (no prefetch headroom).
 *  - Minimum-stage partition: one transformer block per stage.
 *  - Brute force: exact enumeration for small models (tests).
 */

#ifndef MOBIUS_PLAN_PARTITION_ALGOS_HH
#define MOBIUS_PLAN_PARTITION_ALGOS_HH

#include "plan/pipeline_cost.hh"

namespace mobius
{

/** A partition plus how it scored and what it cost to find. */
struct PartitionResult
{
    Partition partition;        //!< the chosen stages
    PipelineEstimate estimate;  //!< its analytic schedule
    double solveSeconds = 0.0;  //!< wall-clock spent searching
    int evaluated = 0;          //!< schedules evaluated
};

/** §3.2 MIP partition algorithm (search over contiguous partitions). */
PartitionResult mipPartition(const PipelineCostEvaluator &eval);

/**
 * Best heuristic partition with exactly @p num_stages stages: a
 * near-uniform split hill-climbed on stage boundaries. This is the
 * per-stage-count building block of mipPartition(), exposed so the
 * exact MIP (plan/partition_mip.hh) can seed its branch-and-bound
 * incumbent from it. The result may be memory-infeasible (the caller
 * is expected to check); it always has exactly @p num_stages stages.
 *
 * @param[in,out] evaluated incremented per schedule evaluation
 *                          (may be null).
 */
Partition heuristicPartitionForStages(const PipelineCostEvaluator &eval,
                                      int num_stages,
                                      int *evaluated = nullptr);

/** §4.3 baseline: as many layers per stage as memory allows. */
PartitionResult maxStagePartition(const PipelineCostEvaluator &eval);

/** §4.3 baseline: one transformer block per stage. */
PartitionResult minStagePartition(const PipelineCostEvaluator &eval);

/**
 * Contiguous partition into exactly @p num_stages stages minimising
 * the maximum per-stage compute time (fwd + bwd) — the classic linear
 * partitioning DP used for all-in-GPU-memory pipelines like GPipe.
 */
Partition balancedComputePartition(const CostModel &cost,
                                   int num_stages);

} // namespace mobius

#endif // MOBIUS_PLAN_PARTITION_ALGOS_HH

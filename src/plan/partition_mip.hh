/**
 * @file
 * The paper's literal MIP formulation (§3.2, Eq. 3-11), expressed
 * over the in-tree branch-and-bound solver (solver/mip.hh) instead of
 * Gurobi.
 *
 * Boolean placement variables B_{i,j}, continuous start times
 * t^{f|b}_{j,m}, prefetch volumes P^{f|b}_j and a makespan variable
 * are assembled exactly as in the paper, for a *fixed* stage count S
 * with non-empty stages (the paper's "L logical stages, empties
 * allowed" is equivalent to trying every S; exactMipPartition does
 * that sweep).
 *
 * This formulation is exponential in practice, so it is intended for
 * small models: unit tests cross-validate the scalable search in
 * partition_algos.cc against it, and it documents the formulation
 * concretely. It assumes uniform boundary-activation size across
 * layers (true for transformer stacks), since the activation crossing
 * a stage boundary must be a constant for the constraint matrix to
 * stay linear.
 */

#ifndef MOBIUS_PLAN_PARTITION_MIP_HH
#define MOBIUS_PLAN_PARTITION_MIP_HH

#include "obs/metrics.hh"
#include "plan/pipeline_cost.hh"
#include "solver/mip.hh"

namespace mobius
{

/** Outcome of the faithful-MIP solve. */
struct ExactMipResult
{
    bool solved = false;          //!< a feasible partition was found
    Partition partition;          //!< the best partition
    double objective = 0.0;       //!< MIP makespan (seconds)
    std::uint64_t nodes = 0;      //!< B&B nodes explored
    std::uint64_t lpPivots = 0;   //!< simplex pivots over all solves
    std::uint64_t lpWarmSolves = 0; //!< node LPs solved warm
    std::uint64_t lpColdSolves = 0; //!< cold solves incl. fallbacks
    double wallSeconds = 0.0;     //!< host wall-clock spent solving
    int threadsUsed = 1;          //!< stage-sweep worker threads
};

/**
 * Build the Eq. 3-11 MIP for @p eval with exactly @p num_stages
 * non-empty stages. Exposed for testing/inspection.
 *
 * @param[out] b_var b_var[i][j] = variable index of B_{i,j}.
 */
MipProblem buildPartitionMip(const PipelineCostEvaluator &eval,
                             int num_stages,
                             std::vector<std::vector<int>> *b_var);

/**
 * Solve Eq. 3-11 for stage counts N..max_stages and return the best.
 *
 * Each stage count is an independent MIP, so the sweep fans out
 * through runReplicas() across opts.threads workers (0 = one per
 * hardware core). Every solve seeds its incumbent from
 * heuristicPartitionForStages() and runs warm-started
 * branch-and-bound; results are reduced deterministically (lowest
 * objective, ties to the smaller stage count), so the chosen
 * partition is bit-identical for any thread count. Tractable up to
 * medium instances (tens of layers); beyond that use the scalable
 * search in partition_algos.cc.
 *
 * When @p metrics is non-null, the solve records
 * plan.mip.solves / plan.mip.nodes / plan.mip.lp_pivots /
 * solver.lp.warm_solves / solver.lp.cold_solves counters, a
 * plan.mip.solve_seconds histogram (one sample per stage count) and
 * a plan.mip.threads gauge — always from the calling thread, after
 * the workers have joined (MetricsRegistry is not thread-safe).
 */
ExactMipResult exactMipPartition(const PipelineCostEvaluator &eval,
                                 int max_stages,
                                 const MipOptions &opts = {},
                                 MetricsRegistry *metrics = nullptr);

} // namespace mobius

#endif // MOBIUS_PLAN_PARTITION_MIP_HH

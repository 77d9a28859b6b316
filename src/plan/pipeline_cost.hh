/**
 * @file
 * Analytical Mobius-pipeline schedule evaluator.
 *
 * Implements the constraint system of §3.2 (Eq. 4-11) as a forward
 * recurrence: given a partition it computes every stage's
 * forward/backward start times under the memory constraints (Eq. 4-5),
 * prefetch limits (Eq. 6), pipeline-order constraints (Eq. 8),
 * weight-availability constraints (Eq. 9), per-stage microbatch
 * serialisation (Eq. 10) and the forward/backward barrier (Eq. 11).
 * The returned step time is the objective of the paper's MIP (Eq. 3).
 *
 * Communication uses the *average* GPU bandwidth B, exactly like the
 * MIP's constant B in Table 2 — contention is deliberately not
 * modelled here (it is handled by cross mapping and observed in the
 * event-driven executor).
 *
 * The partition search scores thousands of candidates per plan, so
 * the evaluator is table-driven. Construction tabulates every
 * stage range [lo, hi)'s constants (W_j, gradient bytes, S^f_j/S^b_j,
 * T^f_j/T^b_j): L(L+1)/2 entries of 48 B, about 110 KB for GPT-3B's
 * 67 layers. Each entry extends the previous range by one layer,
 * which performs the same left-to-right sums and running maxima as
 * CostModel::range* and stageMem*, so the entries are bit-identical
 * to them. One recurrence over flat S x M
 * start-time rows then serves two callers: evaluate() fills the full
 * PipelineEstimate, and the score-only stepTime() returns just the
 * makespan, writing nothing but a caller-owned PipelineScratch and
 * allocating nothing once that scratch has grown. The evaluator is
 * immutable after construction, so one instance may be shared by
 * threads that each bring their own scratch.
 */

#ifndef MOBIUS_PLAN_PIPELINE_COST_HH
#define MOBIUS_PLAN_PIPELINE_COST_HH

#include <string>
#include <vector>

#include "plan/partition.hh"

namespace mobius
{

/** Inputs the evaluator needs beyond the cost model. */
struct PipelineEnv
{
    int numGpus = 4;              //!< N
    Bytes gpuMemBytes = 0;        //!< G, per-GPU capacity
    double avgBandwidth = 13.1e9; //!< B, average GPU comm bandwidth
    /**
     * Keep the last round of forward stages resident for the
     * backward pass when memory allows (avoids a reload bubble at
     * the forward/backward boundary).
     */
    bool keepResidentTail = true;
};

/** Per-stage schedule detail of one evaluation. */
struct StageSchedule
{
    double fwdStart = 0.0;  //!< t^f_{j,1}
    double fwdEnd = 0.0;    //!< t^f_{j,M} + T^f_j
    double bwdStart = 0.0;  //!< t^b_{j,1}
    double bwdEnd = 0.0;    //!< t^b_{j,M} + T^b_j
    double fwdReady = 0.0;  //!< weights fully on GPU (forward)
    double bwdReady = 0.0;  //!< weights fully on GPU (backward)
    Bytes prefetchedFwd = 0; //!< P^f_j actually prefetched
    Bytes prefetchedBwd = 0; //!< P^b_j actually prefetched
    bool residentForBwd = false; //!< stage never left the GPU
};

/** Result of evaluating one partition. */
struct PipelineEstimate
{
    bool feasible = false;        //!< schedule fits in GPU memory
    std::string infeasibleReason; //!< human-readable cause if not
    double stepTime = 0.0;        //!< makespan (seconds)
    std::vector<StageSchedule> stages; //!< per-stage detail

    /** Communication the schedule implies (parameters both ways,
     * activations, gradients) in bytes. */
    Bytes commBytes = 0;
};

/**
 * Scratch for PipelineCostEvaluator::stepTime(), owned by the caller
 * so repeated evaluations reuse its capacity. Its contents between
 * calls mean nothing; one scratch serves partitions of any size, but
 * only one thread at a time.
 */
struct PipelineScratch
{
    std::vector<std::size_t> entry; //!< each stage's table entry
    std::vector<double> actTime;    //!< boundary activation / B
    std::vector<double> fstart;     //!< t^f_{j,m}, row j at j * M
    std::vector<double> bstart;     //!< t^b_{j,m}, row j at j * M
};

/** Evaluates partitions against one (model, GPU, config, server). */
class PipelineCostEvaluator
{
  public:
    PipelineCostEvaluator(const CostModel &cost, PipelineEnv env);

    /** Evaluate one partition (Eq. 3-11). */
    PipelineEstimate evaluate(const Partition &partition) const;

    /**
     * Score-only evaluation: evaluate(@p partition).stepTime when the
     * partition is feasible, +inf when it is not. Builds no
     * PipelineEstimate; allocates only while @p scratch grows.
     */
    double stepTime(const Partition &partition,
                    PipelineScratch &scratch) const;

    const PipelineEnv &env() const { return env_; }
    const CostModel &cost() const { return *cost_; }

  private:
    /** Constants of the stage range [lo, hi) (Table 2). */
    struct StageCosts
    {
        Bytes w = 0;     //!< W_j, FP16 weights
        Bytes grad = 0;  //!< FP16 gradients
        Bytes memF = 0;  //!< S^f_j
        Bytes memB = 0;  //!< S^b_j
        double tf = 0.0; //!< T^f_j, one microbatch
        double tb = 0.0; //!< T^b_j, one microbatch
    };

    /** Index of [lo, hi)'s constants in table_. */
    std::size_t
    entryOf(int lo, int hi) const
    {
        // Row lo holds hi = lo+1..L and follows the L, L-1, ...,
        // L-lo+1 entries of rows 0..lo-1.
        const int L = cost_->numLayers();
        return static_cast<std::size_t>(lo * L - lo * (lo - 1) / 2 +
                                        (hi - lo - 1));
    }

    /**
     * Check @p partition and load its stage constants into
     * @p scratch. @return the first stage breaking Eq. 4, or -1.
     */
    int loadStages(const Partition &partition,
                   PipelineScratch &scratch) const;

    /**
     * Eq. 5-11 over the stages loadStages() put in @p scratch.
     * @p detail (S entries, may be null) receives each stage's
     * schedule. @return the step time.
     */
    double schedule(PipelineScratch &scratch,
                    StageSchedule *detail) const;

    const CostModel *cost_;
    PipelineEnv env_;
    std::vector<StageCosts> table_;
};

} // namespace mobius

#endif // MOBIUS_PLAN_PIPELINE_COST_HH

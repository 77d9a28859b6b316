/**
 * @file
 * Megatron-style tensor (model) parallelism baseline — the "model
 * parallelism" alternative of the paper's related-work discussion
 * (§5), provided as an extra comparator beyond the paper's own
 * baselines.
 *
 * Every layer is sharded across all GPUs (weights and gradients
 * resident, 1/N each; the optimizer state lives in DRAM as in the
 * other systems). Each microbatch runs forward and then backward
 * through the whole model in lockstep; a transformer block costs two
 * activation all-reduces in the forward and two in the backward
 * pass. On commodity servers those collectives are staged through
 * the CPU root complexes; and the per-GPU weight shard must fit in
 * device memory, which bounds the trainable scale (the 51B model
 * OOMs on 24 GB GPUs).
 */

#ifndef MOBIUS_RUNTIME_TP_EXECUTOR_HH
#define MOBIUS_RUNTIME_TP_EXECUTOR_HH

#include <vector>

#include "model/cost_model.hh"
#include "runtime/run_context.hh"

namespace mobius
{

/** Runs one tensor-parallel training step. */
class TensorParallelExecutor
{
  public:
    /** Bind the executor to a run context. */
    TensorParallelExecutor(RunContext &ctx, const CostModel &cost);

    /** Execute one step and return its measurements. */
    StepStats run();

  private:
    /**
     * Slot sequence per microbatch: forward layers 0..L-1 then
     * backward layers L-1..0; microbatches run back to back.
     * slot = m * 2L + (k in [0, 2L)).
     */
    int slotLayer(int slot) const;
    bool slotIsBwd(int slot) const;

    Bytes collectiveBytes(int layer) const;
    void startCompute(int gpu);
    void onCompute(int gpu, int slot);
    void onPiece(int gpu, int slot);

    RunContext &ctx_;
    const CostModel &cost_;
    int numLayers_ = 0;
    int slots_ = 0;

    struct GpuState
    {
        int slot = 0;              //!< next/current slot
        bool computing = false;
        bool computeDone = false;  //!< this slot's compute finished
        int piecesLeft = 0;        //!< collective pieces outstanding

        /** Span of this GPU's most recent compute. */
        SpanId computeSpan = kNoSpan;
        /** Collective-piece spans gating the next slot's compute. */
        std::vector<SpanId> nextDeps;
    };

    std::vector<GpuState> gpus_;
    /** sent_[slot][src * N + dst] piece submitted. */
    std::vector<std::vector<bool>> sent_;

    Counter *mAllReducePieces_ = nullptr;
    Counter *mGradFlushes_ = nullptr;
};

} // namespace mobius

#endif // MOBIUS_RUNTIME_TP_EXECUTOR_HH

/**
 * @file
 * DeepSpeed baseline: ZeRO-3 data parallelism with heterogeneous
 * memory (§2.3), the paper's primary comparison system.
 *
 * Parameters live sharded in DRAM. For every layer, every GPU gathers
 * the full FP16 layer weights (the all-gather; on a commodity server
 * every byte of it crosses the CPU root complexes, so all GPUs fetch
 * concurrently and contend — the Fig. 2 CDF). Each GPU computes the
 * layer on its own microbatch (data parallel), forward then backward;
 * the backward re-gathers weights and pushes every GPU's FP16 layer
 * gradients back to DRAM where the CPU optimizer reduces and applies
 * them. Per-step traffic is therefore
 *     2N x (P/2) + N x (P/4) = 1.5N x P      (Eq. 2)
 * for FP32 model size P, ~7.3x the model size at N = 4 with
 * activation checkpoints included, matching §2.3.
 */

#ifndef MOBIUS_RUNTIME_ZERO_EXECUTOR_HH
#define MOBIUS_RUNTIME_ZERO_EXECUTOR_HH

#include <vector>

#include "model/cost_model.hh"
#include "runtime/run_context.hh"

namespace mobius
{

/** ZeRO executor tunables. */
struct ZeroExecutorConfig
{
    /**
     * Collective semantics: a layer's compute may start only once
     * every GPU finished gathering it (all-gather is a barrier).
     */
    bool layerSync = true;

    /** Field-wise equality (runStep() rejects stray options). */
    bool operator==(const ZeroExecutorConfig &) const = default;
};

/** Runs one DeepSpeed-style (ZeRO-3 + offload) training step. */
class ZeroHeteroExecutor
{
  public:
    /** Bind the executor to a run context and tunables. */
    ZeroHeteroExecutor(RunContext &ctx, const CostModel &cost,
                       ZeroExecutorConfig cfg = {});

    /** Execute one step and return its measurements. */
    StepStats run();

  private:
    /**
     * Execution slots: k in [0, L) is the forward of layer k;
     * k in [L, 2L) is the backward of layer 2L-1-k.
     */
    int slotLayer(int k) const;
    bool slotIsBwd(int k) const { return k >= numLayers_; }

    void pump(int gpu);
    void sendPeerPiece(int src, int dst, int k);
    void onShard(int gpu, int k);
    void onPiece(int gpu, int k);
    void tryCompute(int gpu);
    void onCompute(int gpu, int k);

    RunContext &ctx_;
    const CostModel &cost_;
    ZeroExecutorConfig cfg_;
    int numLayers_ = 0;

    struct GpuState
    {
        int nextFetch = 0;    //!< next slot to gather weights for
        int nextCompute = 0;  //!< next slot to run
        bool busy = false;
        std::vector<bool> gathered;   //!< per slot: all pieces in
        std::vector<bool> shardDone;  //!< per slot: own shard in
        std::vector<int> gatherRemaining; //!< pieces still missing
        std::vector<Bytes> held;      //!< bytes resident per slot

        /** Per slot: spans of the shard/piece transfers gathered
         *  here — the causal inputs of the slot's compute. */
        std::vector<std::vector<SpanId>> gatherSpans;
        /** Last compute on this GPU (serialisation edge). */
        SpanId lastComputeSpan = kNoSpan;
        /** Compute whose completion last freed memory here. */
        SpanId memFreedBy = kNoSpan;
    };

    std::vector<GpuState> gpus_;
    std::vector<int> gatherCount_;   //!< per slot: #GPUs gathered
    /** Per slot: span that completed the collective on the last
     *  rank — the layerSync barrier edge. */
    std::vector<SpanId> slotBarrierSpan_;
    std::vector<int> gradLanded_;    //!< per layer: grad shards in
    /** peerSent_[k][src * N + dst]: piece transfer submitted. */
    std::vector<std::vector<bool>> peerSent_;

    /** Per-GPU allocation-stall counters (empty when metrics off). */
    std::vector<Counter *> mAllocStalls_;
    Counter *mShardFetches_ = nullptr;
    Counter *mGathersDone_ = nullptr;
};

} // namespace mobius

#endif // MOBIUS_RUNTIME_ZERO_EXECUTOR_HH

/**
 * @file
 * The Mobius pipeline executor (§3.1/§3.3): event-driven execution of
 * one training step on the simulated server.
 *
 * The model is partitioned into S >= N stages held in DRAM; stages
 * are assigned round-robin over the mapping's GPU order. Each GPU
 * keeps a load queue (its forward stages in ascending order, then its
 * backward stages in descending order) and pumps at most one lookahead
 * load — the prefetch of §3.1 — into whatever memory is free
 * (Eq. 5/6). Weight-load transfers carry priorities ordered by stage
 * start (§3.3's cudaStreamCreateWithPriority); activations and
 * activation gradients travel between adjacent stages' GPUs (staged
 * through DRAM on commodity boxes); input checkpoints are offloaded
 * after forward and uploaded before backward; gradients are flushed
 * to DRAM when a stage's backward completes. Under fault injection,
 * weight loads bound for a GPU the injector is throttling are
 * demoted behind that GPU's other H2D loads (see pump()).
 */

#ifndef MOBIUS_RUNTIME_MOBIUS_EXECUTOR_HH
#define MOBIUS_RUNTIME_MOBIUS_EXECUTOR_HH

#include <vector>

#include "plan/mapping.hh"
#include "plan/partition.hh"
#include "runtime/run_context.hh"

namespace mobius
{

/** Executor tunables. */
struct MobiusExecutorConfig
{
    bool keepResidentTail = true; //!< pin the last stages on-GPU
    /**
     * How many stage loads per GPU may be in flight beyond the
     * current one. 1 = the paper's next-stage prefetch (§3.1);
     * 0 disables prefetching (ablation).
     */
    int prefetchLookahead = 1;
    /**
     * Rate cap for weight loads in bytes/second (0 = none). Setting
     * this to NVMe speeds models the SSD tier the paper rejects in
     * §3.1 ("the limited bandwidth of SSDs is a performance
     * bottleneck") — see the ablation bench.
     */
    double weightSourceRateCap = 0.0;

    /** Field-wise equality (runStep() rejects stray options). */
    bool operator==(const MobiusExecutorConfig &) const = default;
};

/** Runs one Mobius training step. */
class MobiusExecutor
{
  public:
    /** Bind the executor to a run context, plan, and tunables. */
    MobiusExecutor(RunContext &ctx, const CostModel &cost,
                   Partition partition, Mapping mapping,
                   MobiusExecutorConfig cfg = {});

    /** Execute the step to completion and return its statistics. */
    StepStats run();

  private:
    enum class Phase { Fwd, Bwd };

    /** One pending stage load on a GPU's queue. */
    struct LoadEntry
    {
        int stage = -1;
        Phase phase = Phase::Fwd;
        Bytes footprint = 0;       //!< total bytes to reserve
        Bytes transferBytes = 0;   //!< portion that moves over PCIe
        Bytes allocated = 0;
        Bytes requested = 0;       //!< transfer bytes requested
        Bytes landed = 0;          //!< transfer bytes arrived
        bool done = false;         //!< freed / retired
        int order = 0;             //!< global execution order index
        /**
         * When compute first found itself waiting on this load
         * (-1 = never): set by the scheduler when the stage's input
         * is ready but the load is not — a prefetch miss.
         */
        SimTime blockedAt = -1.0;
        bool readyRecorded = false; //!< hit/miss metric emitted
        /**
         * Spans that made this load possible: the eviction (final
         * compute) that freed GPU memory for it, plus each landed
         * weight-chunk transfer. Computes gated by the load inherit
         * these as causal deps.
         */
        std::vector<SpanId> depSpans;

        bool
        ready() const
        {
            return !done && allocated >= footprint &&
                landed >= transferBytes;
        }
    };

    /** Dynamic state of one stage. */
    struct StageState
    {
        Bytes wBytes = 0, gradBytes = 0, aInBytes = 0, aOutBytes = 0;
        Bytes memFwd = 0, memBwd = 0;
        double tFwd = 0.0, tBwd = 0.0;
        int gpu = -1;
        bool resident = false;    //!< tail stage kept for backward

        int nextFwdMb = 0;        //!< next microbatch to compute
        int nextBwdMb = 0;
        bool fwdInFlight = false; //!< a compute task is submitted
        bool bwdInFlight = false;
        int fwdDone = 0;          //!< completed microbatches
        int bwdDone = 0;
        std::vector<bool> actReady;        //!< fwd input act per mb
        std::vector<bool> gradReady;       //!< bwd act-grad per mb
        std::vector<bool> checkpointReady; //!< bwd checkpoint per mb
        std::vector<bool> checkpointAsked;
        LoadEntry *fwdEntry = nullptr;
        LoadEntry *bwdEntry = nullptr;

        /** Producing span per ready flag (kNoSpan = free input). */
        std::vector<SpanId> actReadySpan;
        std::vector<SpanId> gradReadySpan;
        std::vector<SpanId> checkpointReadySpan;
        /** Last fwd/bwd compute span: the Eq. 9 microbatch-order
         *  edge on the same stage. */
        SpanId lastFwdSpan = kNoSpan;
        SpanId lastBwdSpan = kNoSpan;
    };

    void buildLoadQueues();
    void pump(int gpu);
    void onWeightChunk(int gpu, LoadEntry *entry, Bytes bytes);
    void onEntryReady(LoadEntry *entry);

    void tryScheduleFwd(int stage);
    void onFwdCompute(int stage, int mb);
    void finishFwdStage(int stage);

    void tryScheduleBwd(int stage);
    void onBwdCompute(int stage, int mb);
    void finishBwdStage(int stage);
    void askCheckpoint(int stage, int mb,
                       SpanId trigger = kNoSpan);

    RunContext &ctx_;
    const CostModel &cost_;
    Partition partition_;
    Mapping mapping_;
    MobiusExecutorConfig cfg_;

    int S_ = 0; //!< number of stages
    int M_ = 0; //!< microbatches per step

    std::vector<StageState> stages_;
    /** Load queues: loads_[gpu] in execution order. */
    std::vector<std::vector<LoadEntry>> loads_;
    /** Per GPU: span of the compute whose completion last freed
     *  memory — the "stage evict blocked load" causal edge. */
    std::vector<SpanId> memFreedBy_;

    /** Cached per-GPU metric handles (empty when metrics are off). */
    struct GpuMetrics
    {
        Counter *prefetchHit = nullptr;
        Counter *prefetchMiss = nullptr;
        Counter *prefetchWait = nullptr; //!< seconds blocked
        Counter *swapLoads = nullptr;
        Counter *swapEvictions = nullptr;
    };
    std::vector<GpuMetrics> gpuMetrics_;

    void recordEntryReady(LoadEntry *entry);
    void markBlocked(LoadEntry *entry);
};

} // namespace mobius

#endif // MOBIUS_RUNTIME_MOBIUS_EXECUTOR_HH

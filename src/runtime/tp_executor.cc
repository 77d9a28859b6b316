#include "runtime/tp_executor.hh"

#include "base/logging.hh"

namespace mobius
{

namespace
{

/**
 * Relative compute efficiency of N-way sharded GEMMs (narrow
 * matrices waste tensor-core tiles).
 */
constexpr double kShardEfficiency = 0.8;
/** All-reduces per transformer block, forward (Megatron: 2). */
constexpr int kAllReducesPerBlock = 2;
constexpr int kPrioCollective = 1; //!< all-reduce pieces
constexpr int kPrioGradient = 20;  //!< gradient flushes

} // namespace

TensorParallelExecutor::TensorParallelExecutor(RunContext &ctx,
                                               const CostModel &cost)
    : ctx_(ctx), cost_(cost), numLayers_(cost.numLayers())
{
    const int n = ctx_.numGpus();
    const int m = cost_.cfg().numMicrobatches;
    slots_ = 2 * numLayers_ * m;
    gpus_.resize(static_cast<std::size_t>(n));
    sent_.assign(static_cast<std::size_t>(slots_),
                 std::vector<bool>(static_cast<std::size_t>(n) *
                                       static_cast<std::size_t>(n),
                                   false));

    if (MetricsRegistry *reg = ctx_.metrics()) {
        mAllReducePieces_ = &reg->counter("tp.allreduce.pieces");
        mGradFlushes_ = &reg->counter("tp.grad.flushes");
    }

    // Residency check: weight + gradient shards, one microbatch's
    // checkpoints, and the largest live set must fit per GPU.
    Bytes shard = (cost_.model().totalParamBytesFp16() * 2) /
        static_cast<Bytes>(n);
    Bytes checkpoints = 0;
    Bytes live = 0;
    for (int l = 0; l < numLayers_; ++l) {
        checkpoints += cost_.inActBytes(l);
        live = std::max(live, cost_.stageMemBwd(l, l + 1) -
                            cost_.paramBytes(l) -
                            cost_.gradBytes(l));
    }
    Bytes need = shard + checkpoints + live;
    for (int g = 0; g < n; ++g) {
        Bytes cap = ctx_.memory(g).capacity();
        if (need > cap) {
            fatal("tensor parallelism out of memory: shard needs %s "
                  "per GPU (plus %s activations), GPU %d has %s",
                  formatBytes(shard).c_str(),
                  formatBytes(checkpoints + live).c_str(), g,
                  formatBytes(cap).c_str());
        }
        ctx_.memory(g).alloc(need);
    }
}

int
TensorParallelExecutor::slotLayer(int slot) const
{
    int k = slot % (2 * numLayers_);
    return k < numLayers_ ? k : 2 * numLayers_ - 1 - k;
}

bool
TensorParallelExecutor::slotIsBwd(int slot) const
{
    return slot % (2 * numLayers_) >= numLayers_;
}

Bytes
TensorParallelExecutor::collectiveBytes(int layer) const
{
    // Transformer blocks pay kAllReducesPerBlock full-activation
    // all-reduces; the thin layers (embedding/norm/head) pay one.
    const LayerDesc &l = cost_.model().layers[layer];
    int count = l.type == LayerType::TransformerBlock
        ? kAllReducesPerBlock
        : 1;
    return cost_.actBytes(layer) * static_cast<Bytes>(count);
}

void
TensorParallelExecutor::startCompute(int gpu)
{
    GpuState &g = gpus_[gpu];
    if (g.computing || g.slot >= slots_)
        return;
    g.computing = true;
    g.computeDone = false;
    int slot = g.slot;
    int layer = slotLayer(slot);
    double base = slotIsBwd(slot) ? cost_.bwdTime(layer)
                                  : cost_.fwdTime(layer);
    double t = base / (ctx_.numGpus() * kShardEfficiency);
    // Gated by the previous slot's collective pieces and this GPU's
    // previous compute.
    std::vector<SpanId> deps = std::move(g.nextDeps);
    g.nextDeps.clear();
    deps.push_back(g.computeSpan);
    ctx_.compute(gpu).submit(
        t, [this, gpu, slot] { onCompute(gpu, slot); },
        strfmt("%c%d.%d", slotIsBwd(slot) ? 'b' : 'f', layer,
               slot / (2 * numLayers_)),
        std::move(deps), layer);
}

void
TensorParallelExecutor::onCompute(int gpu, int slot)
{
    const int n = ctx_.numGpus();
    GpuState &g = gpus_[gpu];
    g.computing = false;
    g.computeDone = true;
    g.computeSpan = ctx_.compute(gpu).lastSpanId();

    if (n == 1) {
        onPiece(gpu, slot); // degenerate collective
        return;
    }

    // All-reduce: exchange 1/N-sized pieces with every peer whose
    // compute for this slot also finished; peers that finish later
    // trigger the exchange from their side.
    int layer = slotLayer(slot);
    Bytes piece = collectiveBytes(layer) / static_cast<Bytes>(n);
    g.piecesLeft += n - 1;
    for (int other = 0; other < n; ++other) {
        if (other == gpu)
            continue;
        const GpuState &og = gpus_[other];
        bool other_ready = og.slot == slot && og.computeDone;
        bool other_passed = og.slot > slot;
        if (!other_ready && !other_passed)
            continue;
        for (auto [src, dst] : {std::pair{gpu, other},
                                std::pair{other, gpu}}) {
            std::size_t idx = static_cast<std::size_t>(src) *
                    static_cast<std::size_t>(n) +
                static_cast<std::size_t>(dst);
            if (sent_[slot][idx])
                continue;
            sent_[slot][idx] = true;
            if (mAllReducePieces_)
                mAllReducePieces_->add();
            TransferRequest req;
            req.src = Endpoint::gpuAt(src);
            req.dst = Endpoint::gpuAt(dst);
            req.bytes = piece;
            req.kind = slotIsBwd(slot)
                ? TrafficKind::ActivationGrad
                : TrafficKind::Activation;
            req.priority = kPrioCollective;
            req.label = strfmt("ar%d", slot);
            req.deps = {gpus_[src].computeSpan};
            req.stage = layer;
            int d = dst;
            req.onComplete = [this, d, slot] {
                gpus_[d].nextDeps.push_back(
                    ctx_.xfer().lastSpanId());
                onPiece(d, slot);
            };
            ctx_.submitXfer(req);
        }
    }
}

void
TensorParallelExecutor::onPiece(int gpu, int slot)
{
    GpuState &g = gpus_[gpu];
    if (ctx_.numGpus() > 1) {
        if (g.slot != slot)
            panic("TP collective piece for slot %d arrived at slot "
                  "%d", slot, g.slot);
        if (--g.piecesLeft > 0)
            return;
    }

    // Slot complete: flush gradient shards at the end of each
    // microbatch's backward sweep through a layer.
    if (slotIsBwd(slot)) {
        int layer = slotLayer(slot);
        bool last_mb =
            slot / (2 * numLayers_) ==
            cost_.cfg().numMicrobatches - 1;
        if (last_mb) {
            Bytes shard = cost_.gradBytes(layer) /
                static_cast<Bytes>(ctx_.numGpus());
            TransferRequest flush;
            flush.src = Endpoint::gpuAt(gpu);
            flush.dst = Endpoint::dram();
            flush.bytes = shard;
            flush.kind = TrafficKind::Gradient;
            flush.priority = kPrioGradient;
            flush.label = strfmt("flush l%d", layer);
            flush.deps = {g.computeSpan};
            flush.stage = layer;
            int lyr = layer;
            flush.onComplete = [this, lyr, gpu] {
                if (gpu == 0) {
                    ctx_.cpuOptimizer().apply(
                        cost_.model().layers[lyr].paramCount,
                        strfmt("adam l%d", lyr),
                        {ctx_.xfer().lastSpanId()}, lyr);
                }
            };
            ctx_.submitXfer(flush);
            if (mGradFlushes_)
                mGradFlushes_->add();
        }
    }

    ++g.slot;
    g.computeDone = false;
    startCompute(gpu);
}

StepStats
TensorParallelExecutor::run()
{
    for (int g = 0; g < ctx_.numGpus(); ++g)
        startCompute(g);
    StepStats stats = ctx_.finish("TensorParallel");
    for (int g = 0; g < ctx_.numGpus(); ++g) {
        if (gpus_[g].slot != slots_)
            panic("TP step deadlocked on GPU %d (%d/%d slots)", g,
                  gpus_[g].slot, slots_);
        ctx_.memory(g).free(ctx_.memory(g).used());
    }
    return stats;
}

} // namespace mobius

#include "runtime/zero_executor.hh"

#include "base/logging.hh"
#include "runtime/span_label.hh"

namespace mobius
{

namespace
{

// Transfer priorities (smaller = more urgent).
constexpr int kPrioWeights = 10;    //!< + slot: weight-shard all-gathers
constexpr int kPrioGradient = 20;   //!< gradient reduce-scatter
constexpr int kPrioCheckpoint = 30; //!< checkpoint offload/reload

/** Slots of weight prefetch lookahead (DeepSpeed prefetches). */
constexpr int kLookahead = 1;

} // namespace

ZeroHeteroExecutor::ZeroHeteroExecutor(RunContext &ctx,
                                       const CostModel &cost,
                                       ZeroExecutorConfig cfg)
    : ctx_(ctx), cost_(cost), cfg_(cfg),
      numLayers_(cost.numLayers())
{
    const int slots = 2 * numLayers_;
    const int n = ctx_.numGpus();
    gpus_.resize(static_cast<std::size_t>(n));
    for (auto &g : gpus_) {
        g.gathered.assign(static_cast<std::size_t>(slots), false);
        g.shardDone.assign(static_cast<std::size_t>(slots), false);
        g.gatherRemaining.assign(static_cast<std::size_t>(slots), 0);
        g.held.assign(static_cast<std::size_t>(slots), 0);
        g.gatherSpans.assign(static_cast<std::size_t>(slots), {});
    }
    gatherCount_.assign(static_cast<std::size_t>(slots), 0);
    slotBarrierSpan_.assign(static_cast<std::size_t>(slots),
                            kNoSpan);
    gradLanded_.assign(static_cast<std::size_t>(numLayers_), 0);
    peerSent_.assign(static_cast<std::size_t>(slots),
                     std::vector<bool>(static_cast<std::size_t>(n) *
                                           static_cast<std::size_t>(n),
                                       false));

    if (MetricsRegistry *m = ctx_.metrics()) {
        mAllocStalls_.resize(static_cast<std::size_t>(n));
        for (int g = 0; g < n; ++g) {
            mAllocStalls_[static_cast<std::size_t>(g)] =
                &m->counter("gpu" + std::to_string(g) +
                            ".alloc.stalls");
        }
        mShardFetches_ = &m->counter("zero.shard.fetches");
        mGathersDone_ = &m->counter("zero.gathers.completed");
    }

    // The largest single layer (weights + live set + gradients) must
    // fit; otherwise even ZeRO cannot train the model.
    for (int l = 0; l < numLayers_; ++l) {
        Bytes need = cost_.stageMemBwd(l, l + 1);
        for (int g = 0; g < n; ++g) {
            if (need > ctx_.memory(g).capacity()) {
                fatal("ZeRO: layer %d needs %s but GPU %d has %s", l,
                      formatBytes(need).c_str(), g,
                      formatBytes(ctx_.memory(g).capacity()).c_str());
            }
        }
    }
}

int
ZeroHeteroExecutor::slotLayer(int k) const
{
    return k < numLayers_ ? k : 2 * numLayers_ - 1 - k;
}

void
ZeroHeteroExecutor::pump(int gpu)
{
    GpuState &g = gpus_[gpu];
    const int slots = 2 * numLayers_;
    const int n = ctx_.numGpus();

    while (g.nextFetch < slots &&
           g.nextFetch <= g.nextCompute + kLookahead) {
        int k = g.nextFetch;
        int layer = slotLayer(k);
        Bytes need = slotIsBwd(k)
            ? cost_.stageMemBwd(layer, layer + 1)
            : cost_.stageMemFwd(layer, layer + 1);
        if (!ctx_.memory(gpu).tryAlloc(need)) {
            if (!mAllocStalls_.empty())
                mAllocStalls_[static_cast<std::size_t>(gpu)]->add();
            break;
        }
        g.held[k] = need;
        ++g.nextFetch;
        g.gatherRemaining[k] = n; // own shard + (n-1) peer pieces
        if (mShardFetches_)
            mShardFetches_->add();

        // ZeRO-3 + offload all-gather, step 1: fetch this rank's
        // 1/N parameter shard from DRAM.
        Bytes shard = cost_.paramBytes(layer) /
            static_cast<Bytes>(n);
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(gpu);
        req.bytes = shard;
        req.kind = TrafficKind::Parameter;
        req.priority = kPrioWeights + k;
        req.label = spanLabel(slotIsBwd(k) ? 'b' : 'f', layer,
                              ".shard");
        req.deps = {g.memFreedBy};
        req.stage = layer;
        req.onComplete = [this, gpu, k] {
            gpus_[gpu].gatherSpans[static_cast<std::size_t>(k)]
                .push_back(ctx_.xfer().lastSpanId());
            onShard(gpu, k);
        };
        ctx_.submitXfer(req);

        // Backward additionally uploads the layer's checkpointed
        // input activation (A_DeepSpeed).
        if (slotIsBwd(k) && cost_.inActBytes(layer) > 0) {
            TransferRequest up;
            up.src = Endpoint::dram();
            up.dst = Endpoint::gpuAt(gpu);
            up.bytes = cost_.inActBytes(layer);
            up.kind = TrafficKind::Activation;
            up.priority = kPrioCheckpoint;
            up.label = spanLabel("c", layer);
            up.deps = {g.memFreedBy};
            up.stage = layer;
            ctx_.submitXfer(up);
        }
    }
}

void
ZeroHeteroExecutor::sendPeerPiece(int src, int dst, int k)
{
    const int n = ctx_.numGpus();
    auto &sent = peerSent_[k];
    std::size_t idx = static_cast<std::size_t>(src) *
            static_cast<std::size_t>(n) +
        static_cast<std::size_t>(dst);
    if (sent[idx])
        return;
    sent[idx] = true;

    int layer = slotLayer(k);
    Bytes piece = cost_.paramBytes(layer) / static_cast<Bytes>(n);
    TransferRequest req;
    req.src = Endpoint::gpuAt(src);
    req.dst = Endpoint::gpuAt(dst);
    req.bytes = piece;
    req.kind = TrafficKind::Parameter;
    req.priority = kPrioWeights + k;
    req.label = spanLabel("ag", layer, ':', src, '>', dst);
    // The sender could not forward a shard it did not have yet.
    auto &spans =
        gpus_[src].gatherSpans[static_cast<std::size_t>(k)];
    req.deps = {spans.empty() ? kNoSpan : spans.front()};
    req.stage = layer;
    req.onComplete = [this, dst, k] {
        gpus_[dst].gatherSpans[static_cast<std::size_t>(k)]
            .push_back(ctx_.xfer().lastSpanId());
        onPiece(dst, k);
    };
    ctx_.submitXfer(req);
}

void
ZeroHeteroExecutor::onShard(int gpu, int k)
{
    GpuState &g = gpus_[gpu];
    g.shardDone[k] = true;

    // All-gather, step 2: exchange shards with every rank that also
    // has its shard resident (both directions per pair). Without
    // GPUDirect P2P each piece is staged through the CPU root
    // complexes, which is where DeepSpeed's contention comes from
    // (§2.3); with NVLink it flows over the mesh.
    for (int other = 0; other < ctx_.numGpus(); ++other) {
        if (other == gpu || !gpus_[other].shardDone[k])
            continue;
        sendPeerPiece(gpu, other, k);
        sendPeerPiece(other, gpu, k);
    }
    onPiece(gpu, k); // own shard counts towards the gather
}

void
ZeroHeteroExecutor::onPiece(int gpu, int k)
{
    GpuState &g = gpus_[gpu];
    if (--g.gatherRemaining[k] > 0)
        return;
    g.gathered[k] = true;
    ++gatherCount_[k];
    if (mGathersDone_)
        mGathersDone_->add();
    if (cfg_.layerSync && gatherCount_[k] == ctx_.numGpus()) {
        // Collective completed everywhere: all ranks may proceed.
        // The transfer that just landed is the barrier release.
        slotBarrierSpan_[static_cast<std::size_t>(k)] =
            ctx_.xfer().lastSpanId();
        for (int other = 0; other < ctx_.numGpus(); ++other)
            tryCompute(other);
    } else {
        tryCompute(gpu);
    }
}

void
ZeroHeteroExecutor::tryCompute(int gpu)
{
    GpuState &g = gpus_[gpu];
    const int slots = 2 * numLayers_;
    if (g.busy || g.nextCompute >= slots)
        return;
    int k = g.nextCompute;
    if (!g.gathered[k])
        return;
    if (cfg_.layerSync && gatherCount_[k] < ctx_.numGpus())
        return;

    g.busy = true;
    int layer = slotLayer(k);
    double t = slotIsBwd(k) ? cost_.bwdTime(layer)
                            : cost_.fwdTime(layer);
    // Gated by this rank's gathered pieces, the collective barrier
    // (layerSync), and the previous compute on this GPU.
    std::vector<SpanId> deps =
        g.gatherSpans[static_cast<std::size_t>(k)];
    if (cfg_.layerSync)
        deps.push_back(slotBarrierSpan_[static_cast<std::size_t>(k)]);
    deps.push_back(g.lastComputeSpan);
    ctx_.compute(gpu).submit(
        t, [this, gpu, k] { onCompute(gpu, k); },
        spanLabel(slotIsBwd(k) ? 'b' : 'f', layer),
        std::move(deps), layer);
}

void
ZeroHeteroExecutor::onCompute(int gpu, int k)
{
    GpuState &g = gpus_[gpu];
    g.busy = false;
    ++g.nextCompute;
    g.lastComputeSpan = ctx_.compute(gpu).lastSpanId();
    int layer = slotLayer(k);

    if (!slotIsBwd(k)) {
        // Offload the input checkpoint for the backward pass.
        if (cost_.inActBytes(layer) > 0) {
            TransferRequest off;
            off.src = Endpoint::gpuAt(gpu);
            off.dst = Endpoint::dram();
            off.bytes = cost_.inActBytes(layer);
            off.kind = TrafficKind::Activation;
            off.priority = kPrioCheckpoint;
            off.label = spanLabel("ckpt", layer);
            off.deps = {g.lastComputeSpan};
            off.stage = layer;
            ctx_.submitXfer(off);
        }
    } else {
        // Reduce-scatter this rank's FP16 layer gradients: (N-1)/N
        // goes to the peers that own those shards (staged through
        // the host on commodity boxes, NVLink on data-center ones),
        // then the rank's own reduced 1/N shard is offloaded to DRAM
        // for the CPU optimizer. Aggregate wire traffic is
        // G_DeepSpeed = N x gradient size on commodity servers
        // (Eq. 2).
        const int n = ctx_.numGpus();
        Bytes piece = cost_.gradBytes(layer) /
            static_cast<Bytes>(n);
        for (int other = 0; other < n; ++other) {
            if (other == gpu)
                continue;
            TransferRequest rs;
            rs.src = Endpoint::gpuAt(gpu);
            rs.dst = Endpoint::gpuAt(other);
            rs.bytes = piece;
            rs.kind = TrafficKind::Gradient;
            rs.priority = kPrioGradient;
            rs.label = spanLabel("rs", layer, ':', gpu, '>', other);
            rs.deps = {g.lastComputeSpan};
            rs.stage = layer;
            ctx_.submitXfer(rs);
        }
        TransferRequest grad;
        grad.src = Endpoint::gpuAt(gpu);
        grad.dst = Endpoint::dram();
        grad.bytes = piece;
        grad.kind = TrafficKind::Gradient;
        grad.priority = kPrioGradient;
        grad.label = spanLabel("flush l", layer);
        grad.deps = {g.lastComputeSpan};
        grad.stage = layer;
        int lyr = layer;
        grad.onComplete = [this, lyr] {
            if (++gradLanded_[lyr] == ctx_.numGpus()) {
                ctx_.cpuOptimizer().apply(
                    cost_.model().layers[lyr].paramCount,
                    strfmt("adam l%d", lyr),
                    {ctx_.xfer().lastSpanId()}, lyr);
            }
        };
        ctx_.submitXfer(grad);
    }

    // Release the slot's memory and refill the prefetch window.
    ctx_.memory(gpu).free(g.held[k]);
    g.held[k] = 0;
    g.memFreedBy = g.lastComputeSpan;
    pump(gpu);
    tryCompute(gpu);
}

StepStats
ZeroHeteroExecutor::run()
{
    for (int g = 0; g < ctx_.numGpus(); ++g)
        pump(g);
    StepStats stats = ctx_.finish("DeepSpeed");
    for (int g = 0; g < ctx_.numGpus(); ++g) {
        if (gpus_[g].nextCompute != 2 * numLayers_)
            panic("ZeRO step deadlocked on GPU %d (%d/%d slots)", g,
                  gpus_[g].nextCompute, 2 * numLayers_);
    }
    return stats;
}

} // namespace mobius

#include "runtime/mobius_executor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "runtime/span_label.hh"

namespace mobius
{

namespace
{

// Transfer priorities (smaller = more urgent, §3.3).
constexpr int kPrioActivation = 1;       //!< inter-stage activations
constexpr int kPrioCheckpointUpload = 2; //!< checkpoint reloads
constexpr int kPrioWeightBase = 10;      //!< + stage execution order
constexpr int kPrioGradFlush = 2000;     //!< gradient flushes to DRAM
constexpr int kPrioCheckpointOffload = 3000; //!< checkpoint offloads

} // namespace

MobiusExecutor::MobiusExecutor(RunContext &ctx, const CostModel &cost,
                               Partition partition, Mapping mapping,
                               MobiusExecutorConfig cfg)
    : ctx_(ctx), cost_(cost), partition_(std::move(partition)),
      mapping_(std::move(mapping)), cfg_(cfg)
{
    checkPartition(partition_, cost_.numLayers());
    if (mapping_.numGpus() != ctx_.numGpus())
        fatal("mapping covers %d GPUs but server has %d",
              mapping_.numGpus(), ctx_.numGpus());

    S_ = static_cast<int>(partition_.size());
    M_ = cost_.cfg().numMicrobatches;
    const int N = ctx_.numGpus();

    stages_.resize(static_cast<std::size_t>(S_));
    for (int j = 0; j < S_; ++j) {
        const StageRange &r = partition_[j];
        StageState &s = stages_[j];
        s.wBytes = cost_.rangeParamBytes(r.lo, r.hi);
        s.gradBytes = cost_.rangeGradBytes(r.lo, r.hi);
        s.aInBytes = cost_.inActBytes(r.lo);
        s.aOutBytes = cost_.actBytes(r.hi - 1);
        s.memFwd = cost_.stageMemFwd(r.lo, r.hi);
        s.memBwd = cost_.stageMemBwd(r.lo, r.hi);
        s.tFwd = cost_.rangeFwdTime(r.lo, r.hi);
        s.tBwd = cost_.rangeBwdTime(r.lo, r.hi);
        s.gpu = mapping_.gpuOf(j);
        s.resident = cfg_.keepResidentTail && j >= S_ - N;
        s.actReady.assign(static_cast<std::size_t>(M_), j == 0);
        s.gradReady.assign(static_cast<std::size_t>(M_), false);
        s.checkpointReady.assign(static_cast<std::size_t>(M_), false);
        s.checkpointAsked.assign(static_cast<std::size_t>(M_), false);
        s.actReadySpan.assign(static_cast<std::size_t>(M_), kNoSpan);
        s.gradReadySpan.assign(static_cast<std::size_t>(M_), kNoSpan);
        s.checkpointReadySpan.assign(static_cast<std::size_t>(M_),
                                     kNoSpan);

        Bytes cap = ctx_.memory(s.gpu).capacity();
        if (s.memFwd > cap || s.memBwd > cap) {
            fatal("Mobius: stage %d (%s) needs %s fwd / %s bwd but "
                  "GPU %d has %s",
                  j, partitionToString(partition_).c_str(),
                  formatBytes(s.memFwd).c_str(),
                  formatBytes(s.memBwd).c_str(), s.gpu,
                  formatBytes(cap).c_str());
        }
    }

    buildLoadQueues();
    memFreedBy_.assign(static_cast<std::size_t>(N), kNoSpan);

    if (MetricsRegistry *m = ctx_.metrics()) {
        gpuMetrics_.resize(static_cast<std::size_t>(N));
        for (int g = 0; g < N; ++g) {
            std::string p = "gpu" + std::to_string(g);
            GpuMetrics &gm = gpuMetrics_[static_cast<std::size_t>(g)];
            gm.prefetchHit = &m->counter(p + ".prefetch.hit");
            gm.prefetchMiss = &m->counter(p + ".prefetch.miss");
            gm.prefetchWait =
                &m->counter(p + ".prefetch.wait_seconds");
            gm.swapLoads = &m->counter(p + ".swap.loads");
            gm.swapEvictions = &m->counter(p + ".swap.evictions");
        }
    }
}

/**
 * Compute wants this load but it has not landed: note when the wait
 * began so the prefetch-miss latency can be attributed.
 */
void
MobiusExecutor::markBlocked(LoadEntry *entry)
{
    if (gpuMetrics_.empty() || entry->readyRecorded)
        return;
    if (entry->blockedAt < 0)
        entry->blockedAt = ctx_.queue().now();
}

/**
 * A load finished: classify it as a prefetch hit (landed before any
 * compute waited on it) or miss (compute stalled), once per entry.
 */
void
MobiusExecutor::recordEntryReady(LoadEntry *entry)
{
    if (gpuMetrics_.empty() || entry->readyRecorded)
        return;
    entry->readyRecorded = true;
    GpuMetrics &gm = gpuMetrics_[static_cast<std::size_t>(
        stages_[entry->stage].gpu)];
    if (entry->blockedAt >= 0) {
        gm.prefetchMiss->add();
        gm.prefetchWait->add(ctx_.queue().now() - entry->blockedAt);
    } else {
        gm.prefetchHit->add();
    }
    if (entry->transferBytes > 0)
        gm.swapLoads->add();
}

void
MobiusExecutor::buildLoadQueues()
{
    const int N = ctx_.numGpus();
    loads_.assign(static_cast<std::size_t>(N), {});

    // Reserve so LoadEntry pointers stay stable.
    std::vector<int> counts(static_cast<std::size_t>(N), 0);
    for (int j = 0; j < S_; ++j)
        counts[stages_[j].gpu] += 2;
    for (int g = 0; g < N; ++g)
        loads_[g].reserve(static_cast<std::size_t>(counts[g]));

    // Forward loads in ascending stage order.
    for (int j = 0; j < S_; ++j) {
        StageState &s = stages_[j];
        LoadEntry e;
        e.stage = j;
        e.phase = Phase::Fwd;
        e.footprint = s.memFwd;
        e.transferBytes = s.wBytes;
        e.order = j;
        loads_[s.gpu].push_back(e);
        s.fwdEntry = &loads_[s.gpu].back();
    }
    // Backward loads in descending stage order.
    for (int j = S_ - 1; j >= 0; --j) {
        StageState &s = stages_[j];
        LoadEntry e;
        e.stage = j;
        e.phase = Phase::Bwd;
        e.order = S_ + (S_ - 1 - j);
        if (s.resident) {
            // Ownership of the forward footprint transfers at the
            // fwd->bwd transition; only the delta is new.
            e.footprint = s.memBwd > s.memFwd
                ? s.memBwd - s.memFwd
                : 0;
            e.transferBytes = 0;
        } else {
            e.footprint = s.memBwd;
            e.transferBytes = s.wBytes;
        }
        loads_[s.gpu].push_back(e);
        s.bwdEntry = &loads_[s.gpu].back();
    }
}

void
MobiusExecutor::pump(int gpu)
{
    auto &queue = loads_[gpu];
    GpuMemory &mem = ctx_.memory(gpu);

    // Find the first entry that is not retired; pump it and, when it
    // is already complete (its stage is executing), also pump up to
    // prefetchLookahead more — the next-stage prefetch of §3.1.
    std::size_t first = 0;
    while (first < queue.size() && queue[first].done)
        ++first;

    std::size_t last = first +
        static_cast<std::size_t>(std::max(cfg_.prefetchLookahead, 0));
    for (std::size_t idx = first;
         idx < queue.size() && idx <= last; ++idx) {
        LoadEntry &e = queue[idx];
        if (e.done)
            continue;
        // Allocate what fits.
        if (e.allocated < e.footprint) {
            Bytes chunk =
                std::min(e.footprint - e.allocated, mem.available());
            if (chunk > 0) {
                mem.alloc(chunk);
                e.allocated += chunk;
                // This allocation was enabled by whatever eviction
                // last freed memory here: the load was blocked on it.
                SpanId freed = memFreedBy_[gpu];
                if (freed != kNoSpan &&
                    (e.depSpans.empty() ||
                     e.depSpans.back() != freed)) {
                    e.depSpans.push_back(freed);
                }
            }
        }
        // Issue the transfer for the weight portion now reserved.
        Bytes covered = std::min(e.allocated, e.transferBytes);
        if (covered > e.requested) {
            Bytes bytes = covered - e.requested;
            e.requested = covered;
            TransferRequest req;
            req.src = Endpoint::dram();
            req.dst = Endpoint::gpuAt(gpu);
            req.bytes = bytes;
            req.kind = TrafficKind::Parameter;
            req.priority = kPrioWeightBase + e.order;
            req.rateCap = cfg_.weightSourceRateCap;
            req.label = strfmt("S%d.%s", e.stage,
                               e.phase == Phase::Fwd ? "fwd"
                                                     : "bwd");
            req.deps = e.depSpans;
            req.stage = e.stage;
            LoadEntry *ep = &e;
            req.onComplete = [this, gpu, ep, bytes] {
                onWeightChunk(gpu, ep, bytes);
            };
            ctx_.submitXfer(std::move(req));
        }
        if (e.transferBytes == 0 && e.ready())
            onEntryReady(&e);
        // Only look one entry ahead, and only when this entry has
        // everything it needs in flight.
        if (e.allocated < e.footprint)
            break;
    }
}

void
MobiusExecutor::onWeightChunk(int gpu, LoadEntry *entry, Bytes bytes)
{
    entry->landed += bytes;
    SpanId chunk = ctx_.xfer().lastSpanId();
    if (chunk != kNoSpan)
        entry->depSpans.push_back(chunk);
    if (entry->ready())
        onEntryReady(entry);
    pump(gpu);
}

void
MobiusExecutor::onEntryReady(LoadEntry *entry)
{
    StageState &s = stages_[entry->stage];
    recordEntryReady(entry);
    if (entry->phase == Phase::Fwd) {
        tryScheduleFwd(entry->stage);
    } else {
        // Start uploading the first checkpoint as soon as the stage's
        // weights are back (overlapped with the predecessor).
        askCheckpoint(entry->stage, 0,
                      entry->depSpans.empty() ? kNoSpan
                                              : entry->depSpans.back());
        tryScheduleBwd(entry->stage);
    }
    (void)s;
}

void
MobiusExecutor::tryScheduleFwd(int stage)
{
    StageState &s = stages_[stage];
    if (s.fwdInFlight || s.nextFwdMb >= M_)
        return;
    if (!s.fwdEntry->ready()) {
        if (s.actReady[s.nextFwdMb])
            markBlocked(s.fwdEntry);
        return;
    }
    int mb = s.nextFwdMb;
    if (!s.actReady[mb])
        return;

    s.fwdInFlight = true;
    // Why this compute starts now: the stage's weight load (chunk
    // transfers + any eviction that made room), the input activation
    // (Eq. 8), and the previous microbatch on this stage (Eq. 9).
    std::vector<SpanId> deps = s.fwdEntry->depSpans;
    deps.push_back(s.actReadySpan[static_cast<std::size_t>(mb)]);
    deps.push_back(s.lastFwdSpan);
    ctx_.compute(s.gpu).submit(
        s.tFwd, [this, stage, mb] { onFwdCompute(stage, mb); },
        spanLabel("F", stage, ',', mb), std::move(deps), stage);
}

void
MobiusExecutor::onFwdCompute(int stage, int mb)
{
    StageState &s = stages_[stage];
    s.fwdInFlight = false;
    ++s.fwdDone;
    ++s.nextFwdMb;
    s.lastFwdSpan = ctx_.compute(s.gpu).lastSpanId();

    // Offload the input checkpoint for the backward pass (§3.1's
    // A_Mobius; fire-and-forget, low priority).
    if (s.aInBytes > 0) {
        TransferRequest off;
        off.src = Endpoint::gpuAt(s.gpu);
        off.dst = Endpoint::dram();
        off.bytes = s.aInBytes;
        off.kind = TrafficKind::Activation;
        off.priority = kPrioCheckpointOffload;
        off.label = spanLabel("ckpt", stage, ',', mb);
        off.deps = {s.lastFwdSpan};
        off.stage = stage;
        ctx_.submitXfer(std::move(off));
    }

    // Hand the boundary activation to the next stage.
    if (stage + 1 < S_) {
        StageState &next = stages_[stage + 1];
        if (next.gpu == s.gpu) {
            next.actReady[mb] = true;
            next.actReadySpan[static_cast<std::size_t>(mb)] =
                s.lastFwdSpan;
            tryScheduleFwd(stage + 1);
        } else {
            TransferRequest act;
            act.src = Endpoint::gpuAt(s.gpu);
            act.dst = Endpoint::gpuAt(next.gpu);
            act.bytes = s.aOutBytes;
            act.kind = TrafficKind::Activation;
            act.priority = kPrioActivation;
            act.label = spanLabel("a", stage, ',', mb);
            act.deps = {s.lastFwdSpan};
            act.stage = stage + 1;
            int nstage = stage + 1;
            act.onComplete = [this, nstage, mb] {
                stages_[nstage].actReady[mb] = true;
                stages_[nstage]
                    .actReadySpan[static_cast<std::size_t>(mb)] =
                    ctx_.xfer().lastSpanId();
                tryScheduleFwd(nstage);
            };
            ctx_.submitXfer(std::move(act));
        }
    } else if (s.fwdDone == M_) {
        // Loss computed; the last stage's backward may begin on all
        // microbatches (Eq. 11) — each gated by the final forward.
        for (int m = 0; m < M_; ++m) {
            s.gradReady[m] = true;
            s.gradReadySpan[static_cast<std::size_t>(m)] =
                s.lastFwdSpan;
        }
    }

    if (s.fwdDone == M_)
        finishFwdStage(stage);
    else
        tryScheduleFwd(stage);
    if (s.fwdDone == M_ && stage == S_ - 1)
        tryScheduleBwd(stage);
}

void
MobiusExecutor::finishFwdStage(int stage)
{
    StageState &s = stages_[stage];
    GpuMemory &mem = ctx_.memory(s.gpu);
    if (s.resident) {
        // Hand the forward footprint over to the backward entry;
        // causally, the final forward compute enables it.
        s.fwdEntry->done = true;
        s.bwdEntry->depSpans.push_back(s.lastFwdSpan);
        s.bwdEntry->allocated += s.fwdEntry->allocated;
        if (s.bwdEntry->allocated > s.memBwd) {
            mem.free(s.bwdEntry->allocated - s.memBwd);
            s.bwdEntry->allocated = s.memBwd;
        }
        s.bwdEntry->footprint = s.memBwd;
        if (s.bwdEntry->ready())
            onEntryReady(s.bwdEntry);
    } else {
        mem.free(s.fwdEntry->allocated);
        s.fwdEntry->allocated = 0;
        s.fwdEntry->done = true;
        // The next load on this GPU was blocked on this eviction.
        memFreedBy_[static_cast<std::size_t>(s.gpu)] = s.lastFwdSpan;
        if (!gpuMetrics_.empty())
            gpuMetrics_[static_cast<std::size_t>(s.gpu)]
                .swapEvictions->add();
    }
    pump(s.gpu);
}

void
MobiusExecutor::askCheckpoint(int stage, int mb, SpanId trigger)
{
    if (mb >= M_)
        return;
    StageState &s = stages_[stage];
    if (s.checkpointAsked[mb])
        return;
    s.checkpointAsked[mb] = true;
    if (s.aInBytes == 0) {
        s.checkpointReady[mb] = true;
        s.checkpointReadySpan[static_cast<std::size_t>(mb)] =
            trigger;
        tryScheduleBwd(stage);
        return;
    }
    TransferRequest up;
    up.src = Endpoint::dram();
    up.dst = Endpoint::gpuAt(s.gpu);
    up.bytes = s.aInBytes;
    up.kind = TrafficKind::Activation;
    up.priority = kPrioCheckpointUpload;
    up.label = spanLabel("c", stage, ',', mb);
    up.deps = {trigger};
    up.stage = stage;
    up.onComplete = [this, stage, mb] {
        stages_[stage].checkpointReady[mb] = true;
        stages_[stage]
            .checkpointReadySpan[static_cast<std::size_t>(mb)] =
            ctx_.xfer().lastSpanId();
        tryScheduleBwd(stage);
    };
    ctx_.submitXfer(std::move(up));
}

void
MobiusExecutor::tryScheduleBwd(int stage)
{
    StageState &s = stages_[stage];
    if (s.bwdInFlight || s.nextBwdMb >= M_)
        return;
    if (!s.bwdEntry->ready()) {
        if (s.gradReady[s.nextBwdMb])
            markBlocked(s.bwdEntry);
        return;
    }
    if (stage == S_ - 1 && s.fwdDone < M_)
        return;
    int mb = s.nextBwdMb;
    askCheckpoint(stage, mb,
                  s.gradReadySpan[static_cast<std::size_t>(mb)]);
    if (!s.gradReady[mb] || !s.checkpointReady[mb])
        return;

    s.bwdInFlight = true;
    // Overlap the next checkpoint upload with this compute.
    askCheckpoint(stage, mb + 1, s.lastBwdSpan);
    // Why this compute starts now: the weight reload, the output
    // gradient from the next stage (Eq. 10 via the loss at Eq. 11),
    // the reloaded input checkpoint, and the previous microbatch.
    std::vector<SpanId> deps = s.bwdEntry->depSpans;
    deps.push_back(s.gradReadySpan[static_cast<std::size_t>(mb)]);
    deps.push_back(
        s.checkpointReadySpan[static_cast<std::size_t>(mb)]);
    deps.push_back(s.lastBwdSpan);
    ctx_.compute(s.gpu).submit(
        s.tBwd, [this, stage, mb] { onBwdCompute(stage, mb); },
        spanLabel("B", stage, ',', mb), std::move(deps), stage);
}

void
MobiusExecutor::onBwdCompute(int stage, int mb)
{
    StageState &s = stages_[stage];
    s.bwdInFlight = false;
    ++s.bwdDone;
    ++s.nextBwdMb;
    s.lastBwdSpan = ctx_.compute(s.gpu).lastSpanId();

    // Send the activation gradient to the previous stage.
    if (stage > 0) {
        StageState &prev = stages_[stage - 1];
        if (prev.gpu == s.gpu) {
            prev.gradReady[mb] = true;
            prev.gradReadySpan[static_cast<std::size_t>(mb)] =
                s.lastBwdSpan;
            tryScheduleBwd(stage - 1);
        } else {
            TransferRequest g;
            g.src = Endpoint::gpuAt(s.gpu);
            g.dst = Endpoint::gpuAt(prev.gpu);
            g.bytes = prev.aOutBytes; // gradient of prev's output
            g.kind = TrafficKind::ActivationGrad;
            g.priority = kPrioActivation;
            g.label = spanLabel("g", stage, ',', mb);
            g.deps = {s.lastBwdSpan};
            g.stage = stage - 1;
            int pstage = stage - 1;
            g.onComplete = [this, pstage, mb] {
                stages_[pstage].gradReady[mb] = true;
                stages_[pstage]
                    .gradReadySpan[static_cast<std::size_t>(mb)] =
                    ctx_.xfer().lastSpanId();
                tryScheduleBwd(pstage);
            };
            ctx_.submitXfer(std::move(g));
        }
    }

    if (s.bwdDone == M_)
        finishBwdStage(stage);
    else
        tryScheduleBwd(stage);
}

void
MobiusExecutor::finishBwdStage(int stage)
{
    StageState &s = stages_[stage];
    GpuMemory &mem = ctx_.memory(s.gpu);

    // Flush this stage's gradients to DRAM for the CPU optimizer;
    // everything else is freed immediately.
    Bytes keep = std::min(s.gradBytes, s.bwdEntry->allocated);
    mem.free(s.bwdEntry->allocated - keep);
    s.bwdEntry->allocated = keep;
    s.bwdEntry->done = true;
    memFreedBy_[static_cast<std::size_t>(s.gpu)] = s.lastBwdSpan;
    if (!gpuMetrics_.empty())
        gpuMetrics_[static_cast<std::size_t>(s.gpu)]
            .swapEvictions->add();

    int gpu = s.gpu;
    if (keep > 0) {
        TransferRequest flush;
        flush.src = Endpoint::gpuAt(gpu);
        flush.dst = Endpoint::dram();
        flush.bytes = s.gradBytes;
        flush.kind = TrafficKind::Gradient;
        flush.priority = kPrioGradFlush;
        flush.label = strfmt("flush S%d", stage);
        flush.deps = {s.lastBwdSpan};
        flush.stage = stage;
        int stage_idx = stage;
        flush.onComplete = [this, gpu, keep, stage_idx] {
            ctx_.memory(gpu).free(keep);
            const StageRange &r = partition_[stage_idx];
            std::uint64_t params = 0;
            for (int i = r.lo; i < r.hi; ++i)
                params += cost_.model().layers[i].paramCount;
            ctx_.applyOptimizer(
                params, strfmt("adam S%d", stage_idx),
                {ctx_.xfer().lastSpanId()}, stage_idx);
            pump(gpu);
        };
        ctx_.submitXfer(std::move(flush));
    }
    pump(gpu);
}

StepStats
MobiusExecutor::run()
{
    for (int g = 0; g < ctx_.numGpus(); ++g)
        pump(g);
    StepStats stats = ctx_.finish("Mobius");

    for (int j = 0; j < S_; ++j) {
        if (stages_[j].fwdDone != M_ || stages_[j].bwdDone != M_) {
            panic("Mobius step deadlocked: stage %d finished %d/%d "
                  "fwd, %d/%d bwd microbatches",
                  j, stages_[j].fwdDone, M_, stages_[j].bwdDone, M_);
        }
    }
    return stats;
}

} // namespace mobius

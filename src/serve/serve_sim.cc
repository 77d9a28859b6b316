#include "serve/serve_sim.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

namespace
{

/** Weight loads sit behind activations, like the training executor. */
constexpr int kPrioActivation = 1;
constexpr int kPrioWeightBase = 10;

/** Swap carve-out per GPU, in stages (placement.hh). */
constexpr int kResidentStages = 2;
static_assert(kResidentStages > 0);
/** Gather placement: chunks prefetched past the frontier chunk. */
constexpr int kGatherLookahead = 1;
/** Adaptive placement: backlog at which to fall back to swap. */
constexpr int kSwitchLow = 1;
/** Adaptive placement: min iterations between switches. */
constexpr int kSwitchCooldownIters = 2;

} // namespace

/** All runtime state of one serving simulation. */
struct ServeSim::Impl
{
    /** Residency state of one pipeline stage's weights. */
    struct StageRt
    {
        bool resident = false;
        bool loading = false;
    };

    /** Per-GPU weight carve-out and swap ring. */
    struct GpuRt
    {
        Bytes fullBytes = 0;   //!< all owned stages, FP16
        Bytes swapBytes = 0;   //!< kResidentStages-sized carve-out
        Bytes budget = 0;      //!< carve-out currently allocated
        Bytes weightUsed = 0;  //!< resident + in-flight stage bytes
        bool swapping = false; //!< budget < fullBytes: ring active
        std::size_t nextLoad = 0; //!< ring cursor into owned order
    };

    explicit Impl(ServeOptions o)
        : opts(std::move(o)),
          server(makeCommodityServer(opts.groups)),
          work(opts.model, server),
          plan(buildServePlan(work.cost(), server.topo,
                              opts.placement)),
          ctx(server, {.metrics = opts.metrics,
                       .faults = &opts.faults,
                       .faultSeed = opts.faultSeed}),
          batcher(opts.batch),
          gather(opts.placement.policy == ServePlacement::ZeroGather)
    {
        const int gpus = ctx.numGpus();
        stageRt.assign(plan.stages.size(), {});
        gpuRt.assign(static_cast<std::size_t>(gpus), {});
        kvAllocated.assign(static_cast<std::size_t>(gpus), 0);
        ctx.trace().setEnabled(opts.recordSpans);
        ctx.setExtraBusy([this] { return completed < records.size(); });
    }

    // ---- configuration & engines -------------------------------
    ServeOptions opts;
    Server server;
    Workload work;
    ServePlan plan;
    RunContext ctx;
    ContinuousBatcher batcher;
    const bool gather;

    // ---- request state -----------------------------------------
    std::vector<RequestRecord> records;
    std::vector<int> running;       //!< admitted, not yet finished
    std::size_t completed = 0;
    double lastFinish = 0.0;
    /** Per request: KV bytes reserved per GPU (freed at finish). */
    std::vector<std::vector<Bytes>> kvHeld;
    std::vector<Bytes> kvAllocated; //!< per GPU, live KV bytes

    // ---- placement state ---------------------------------------
    std::vector<StageRt> stageRt;
    std::vector<GpuRt> gpuRt;
    bool modeFull = false;     //!< pipeline: all stages resident
    int loadsInFlight = 0;
    std::uint64_t switches = 0;
    std::uint64_t lastSwitchIter = 0;
    Bytes gatherScratchBudget = 0;

    // ---- per-iteration state -----------------------------------
    bool iterActive = false;
    double iterStart = 0.0;
    double iterIdeal = 0.0; //!< ideal compute chain, seconds
    int iterTokens = 0;     //!< total tokens this iteration
    std::vector<char> actReady;  //!< per stage
    std::vector<char> started;   //!< per stage
    std::vector<int> gpuTokens;  //!< gather: tokens per home GPU
    // gather lockstep chunk state
    std::vector<char> gIssued, gGathered, gStarted, gDone;
    std::vector<int> gLanded;       //!< pieces landed, of gpus^2
    std::vector<int> gComputeLeft;  //!< computes outstanding
    Bytes gScratchUsed = 0;

    // ---- counters ----------------------------------------------
    std::uint64_t iterations = 0;
    std::uint64_t swapLoads = 0;
    Bytes swapBytes = 0;
    double occupancySum = 0.0;
    int maxOccupancy = 0;
    bool ran = false;

    // ============================================================
    // Setup
    // ============================================================

    int
    numStages() const
    {
        return plan.numStages();
    }

    RequestRecord &
    rec(int id)
    {
        return records[static_cast<std::size_t>(id)];
    }

    const ServeStage &
    stage(int s) const
    {
        return plan.stages[static_cast<std::size_t>(s)];
    }

    /** Reserve weight carve-outs and warm-start residency. */
    void
    initPlacement()
    {
        const int gpus = ctx.numGpus();
        if (gather) {
            // Scratch for (1 + kGatherLookahead) gathered chunks
            // per GPU.
            const Bytes chunk = plan.maxStageBytes();
            const int depth =
                std::min(numStages(), 1 + kGatherLookahead);
            gatherScratchBudget =
                chunk * static_cast<Bytes>(depth);
            for (int g = 0; g < gpus; ++g)
                ctx.memory(g).alloc(gatherScratchBudget);
            return;
        }
        modeFull =
            opts.placement.policy == ServePlacement::AllInGpu;
        for (int g = 0; g < gpus; ++g) {
            GpuRt &grt = gpuRt[static_cast<std::size_t>(g)];
            grt.fullBytes = plan.ownedBytes(g);
            grt.swapBytes = std::min(
                grt.fullBytes,
                plan.maxOwnedStageBytes(g) *
                    static_cast<Bytes>(kResidentStages));
            // AllInGpu must seat the whole model: alloc() is fatal
            // on OOM, which the bench reports as the policy's
            // infeasibility marker for DRAM-sized models.
            grt.budget = modeFull ? grt.fullBytes : grt.swapBytes;
            ctx.memory(g).alloc(grt.budget);
            grt.swapping = grt.budget < grt.fullBytes;

            // Warm start: whatever fits the carve-out is resident at
            // t=0 (the steady-state ring reloads it each iteration).
            const auto &owned =
                plan.owned[static_cast<std::size_t>(g)];
            Bytes used = 0;
            std::size_t i = 0;
            for (; i < owned.size(); ++i) {
                const Bytes b =
                    stage(owned[i]).weightBytes;
                if (used + b > grt.budget)
                    break;
                used += b;
                stageRt[static_cast<std::size_t>(owned[i])]
                    .resident = true;
            }
            grt.weightUsed = used;
            grt.nextLoad = i;
        }
    }

    // ============================================================
    // Admission
    // ============================================================

    void
    onArrival(int id)
    {
        batcher.enqueue(id);
        maybeStartIteration();
    }

    /** Try to reserve request @p id's KV-cache; all-or-nothing. */
    bool
    reserveKv(int id)
    {
        RequestRecord &r = rec(id);
        const Bytes tokens =
            static_cast<Bytes>(r.reservedTokens());
        std::vector<Bytes> &held =
            kvHeld[static_cast<std::size_t>(id)];
        if (gather) {
            // Whole-depth KV on the least-loaded GPU (deterministic
            // argmin by index).
            int best = 0;
            for (int g = 1; g < ctx.numGpus(); ++g) {
                if (kvAllocated[static_cast<std::size_t>(g)] <
                    kvAllocated[static_cast<std::size_t>(best)])
                    best = g;
            }
            const Bytes need = plan.kvBytesPerToken * tokens;
            if (!ctx.memory(best).tryAlloc(need))
                return false;
            held[static_cast<std::size_t>(best)] = need;
            kvAllocated[static_cast<std::size_t>(best)] += need;
            r.gpu = best;
            return true;
        }
        for (int g = 0; g < ctx.numGpus(); ++g) {
            const Bytes need =
                plan.kvPerTokenGpu[static_cast<std::size_t>(g)] *
                tokens;
            if (need == 0)
                continue;
            if (!ctx.memory(g).tryAlloc(need)) {
                // Roll back the GPUs already charged.
                for (int h = 0; h < g; ++h) {
                    const Bytes got =
                        held[static_cast<std::size_t>(h)];
                    if (got > 0) {
                        ctx.memory(h).free(got);
                        kvAllocated[static_cast<std::size_t>(h)] -=
                            got;
                        held[static_cast<std::size_t>(h)] = 0;
                    }
                }
                return false;
            }
            held[static_cast<std::size_t>(g)] = need;
            kvAllocated[static_cast<std::size_t>(g)] += need;
        }
        return true;
    }

    void
    freeKv(int id)
    {
        std::vector<Bytes> &held =
            kvHeld[static_cast<std::size_t>(id)];
        for (int g = 0; g < ctx.numGpus(); ++g) {
            const Bytes got = held[static_cast<std::size_t>(g)];
            if (got > 0) {
                ctx.memory(g).free(got);
                kvAllocated[static_cast<std::size_t>(g)] -= got;
                held[static_cast<std::size_t>(g)] = 0;
            }
        }
    }

    void
    maybeStartIteration()
    {
        if (iterActive)
            return;
        adaptPlacement();
        MOBIUS_PROF_ZONE("serve.batcher.cycle");
        const double now = ctx.queue().now();
        std::vector<int> admitted = batcher.admit(
            static_cast<int>(running.size()),
            [this](int id) { return reserveKv(id); });
        for (int id : admitted) {
            RequestRecord &r = rec(id);
            r.admit = now;
            r.lat.queue = now - r.spec.arrival;
            running.push_back(id);
        }
        if (running.empty())
            return;
        startIteration();
    }

    // ============================================================
    // Iterations
    // ============================================================

    void
    startIteration()
    {
        iterActive = true;
        iterStart = ctx.queue().now();
        iterIdeal = 0.0;
        ++iterations;
        occupancySum += static_cast<double>(running.size());
        maxOccupancy = std::max(
            maxOccupancy, static_cast<int>(running.size()));

        iterTokens = 0;
        gpuTokens.assign(static_cast<std::size_t>(ctx.numGpus()),
                         0);
        for (int id : running) {
            const RequestRecord &r = rec(id);
            const int t =
                r.generated == 0 ? r.spec.promptTokens : 1;
            iterTokens += t;
            if (gather)
                gpuTokens[static_cast<std::size_t>(r.gpu)] += t;
        }

        if (gather) {
            startGatherIteration();
            return;
        }

        const std::size_t S =
            static_cast<std::size_t>(numStages());
        actReady.assign(S, 0);
        started.assign(S, 0);
        actReady[0] = 1;
        for (int s = 0; s < numStages(); ++s)
            tryRunStage(s);
    }

    /** Start stage @p s's compute once its weights and input are in. */
    void
    tryRunStage(int s)
    {
        if (!iterActive)
            return;
        const std::size_t i = static_cast<std::size_t>(s);
        if (started[i] || !actReady[i] || !stageRt[i].resident)
            return;
        started[i] = 1;
        const ServeStage &st = stage(s);
        const double dur = st.time(iterTokens);
        iterIdeal += dur;
        ctx.compute(st.gpu).submit(
            dur, [this, s] { onStageDone(s); },
            "serve s" + std::to_string(s), {}, s);
    }

    void
    onStageDone(int s)
    {
        const ServeStage &st = stage(s);
        GpuRt &grt = gpuRt[static_cast<std::size_t>(st.gpu)];
        // Swap ring: this stage is not needed again until the next
        // iteration — evict it and pull the ring forward.
        if (grt.swapping) {
            StageRt &srt = stageRt[static_cast<std::size_t>(s)];
            srt.resident = false;
            grt.weightUsed -= st.weightBytes;
            pumpLoads(st.gpu);
        }
        if (s + 1 == numStages()) {
            endIteration();
            return;
        }
        // Hand the boundary activation to the next stage's GPU.
        const ServeStage &nx = stage(s + 1);
        if (nx.gpu == st.gpu) {
            actReady[static_cast<std::size_t>(s + 1)] = 1;
            tryRunStage(s + 1);
            return;
        }
        TransferRequest req;
        req.src = Endpoint::gpuAt(st.gpu);
        req.dst = Endpoint::gpuAt(nx.gpu);
        req.bytes = std::max<Bytes>(
            1, plan.actBytesPerToken *
                   static_cast<Bytes>(iterTokens));
        req.kind = TrafficKind::Activation;
        req.priority = kPrioActivation;
        req.label = "act s" + std::to_string(s);
        req.stage = s + 1;
        req.onComplete = [this, s] {
            actReady[static_cast<std::size_t>(s + 1)] = 1;
            tryRunStage(s + 1);
        };
        ctx.submitXfer(std::move(req));
    }

    /**
     * Issue ring-order weight loads while the carve-out has room.
     * Loads always follow execution order, so the stage needed
     * soonest is always the one in flight — the serving analogue of
     * the training executor's priority prefetch.
     */
    void
    pumpLoads(int g)
    {
        MOBIUS_PROF_ZONE("serve.swap.pump");
        GpuRt &grt = gpuRt[static_cast<std::size_t>(g)];
        const auto &owned =
            plan.owned[static_cast<std::size_t>(g)];
        if (owned.empty())
            return;
        for (;;) {
            const std::size_t idx = grt.nextLoad % owned.size();
            const int s = owned[idx];
            StageRt &srt = stageRt[static_cast<std::size_t>(s)];
            if (srt.resident || srt.loading)
                break; // ring caught up with residency
            const Bytes b = stage(s).weightBytes;
            if (grt.weightUsed + b > grt.budget)
                break; // wait for the next eviction
            srt.loading = true;
            grt.weightUsed += b;
            ++grt.nextLoad;
            issueLoad(s);
        }
    }

    void
    issueLoad(int s)
    {
        const ServeStage &st = stage(s);
        ++loadsInFlight;
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(st.gpu);
        req.bytes = st.weightBytes;
        req.kind = TrafficKind::Parameter;
        req.priority = kPrioWeightBase + s;
        req.label = "load s" + std::to_string(s);
        req.stage = s;
        req.onComplete = [this, s] {
            StageRt &srt = stageRt[static_cast<std::size_t>(s)];
            srt.loading = false;
            srt.resident = true;
            --loadsInFlight;
            ++swapLoads;
            swapBytes += stage(s).weightBytes;
            tryRunStage(s);
        };
        ctx.submitXfer(std::move(req));
    }

    void
    endIteration()
    {
        MOBIUS_PROF_ZONE("serve.iter.end");
        const double now = ctx.queue().now();
        const double dur = now - iterStart;
        // The iteration's compute part is its ideal serial compute
        // chain; everything beyond that was spent blocked on weight
        // swaps, activation hops, gather barriers, or fault retries
        // — the swap-stall category.
        double stall = dur - iterIdeal;
        if (stall < 0.0)
            stall = 0.0;
        const double computePart = dur - stall;

        std::vector<int> still;
        still.reserve(running.size());
        for (int id : running) {
            RequestRecord &r = rec(id);
            ++r.iterations;
            if (r.generated == 0) {
                r.lat.prefill += computePart;
                r.firstToken = now;
                r.generated = 1;
            } else {
                r.lat.decode += computePart;
                ++r.generated;
            }
            r.lat.swapStall += stall;
            if (r.generated >= r.spec.maxNewTokens) {
                finishRequest(id, now);
            } else {
                still.push_back(id);
            }
        }
        running.swap(still);

        if (opts.recordSpans) {
            TraceSpan span;
            span.track = "serve.batcher";
            span.name = "iter" + std::to_string(iterations);
            span.category = "serve";
            span.start = iterStart;
            span.end = now;
            span.work = iterIdeal;
            ctx.trace().record(std::move(span));
        }

        iterActive = false;
        maybeStartIteration();
    }

    void
    finishRequest(int id, double now)
    {
        RequestRecord &r = rec(id);
        r.finish = now;
        const double deadline = effectiveSlo(r.spec, opts.slo);
        r.sloMet = deadline <= 0.0 || r.e2e() <= deadline;
        freeKv(id);
        ++completed;
        lastFinish = std::max(lastFinish, now);
    }

    // ============================================================
    // ZeRO-gather iteration (lockstep all-gathered layer chunks)
    // ============================================================

    void
    startGatherIteration()
    {
        const std::size_t S =
            static_cast<std::size_t>(numStages());
        gIssued.assign(S, 0);
        gGathered.assign(S, 0);
        gStarted.assign(S, 0);
        gDone.assign(S, 0);
        gLanded.assign(S, 0);
        gComputeLeft.assign(S, 0);
        gScratchUsed = 0;
        pumpGather();
    }

    void
    pumpGather()
    {
        MOBIUS_PROF_ZONE("serve.gather.pump");
        int frontier = 0;
        while (frontier < numStages() &&
               gDone[static_cast<std::size_t>(frontier)])
            ++frontier;
        const int horizon =
            std::min(numStages(), frontier + 1 + kGatherLookahead);
        for (int k = frontier; k < horizon; ++k) {
            const std::size_t ki = static_cast<std::size_t>(k);
            if (gIssued[ki])
                continue;
            const Bytes chunk = stage(k).weightBytes;
            if (gScratchUsed + chunk > gatherScratchBudget)
                break;
            gScratchUsed += chunk;
            gIssued[ki] = 1;
            issueGatherChunk(k);
        }
    }

    /**
     * Gather chunk @p k on every GPU: each GPU fetches a 1/N shard
     * from DRAM, then sends its shard to every peer (staged through
     * the root complexes). A chunk is gathered when all N GPUs hold
     * all N pieces — N^2 landings.
     */
    void
    issueGatherChunk(int k)
    {
        const int gpus = ctx.numGpus();
        const Bytes chunk = stage(k).weightBytes;
        const Bytes piece =
            std::max<Bytes>(1, chunk / static_cast<Bytes>(gpus));
        for (int g = 0; g < gpus; ++g) {
            TransferRequest req;
            req.src = Endpoint::dram();
            req.dst = Endpoint::gpuAt(g);
            req.bytes = piece;
            req.kind = TrafficKind::Parameter;
            req.priority = kPrioWeightBase + k;
            req.label = "shard s" + std::to_string(k);
            req.stage = k;
            // Capture no more than std::function stores inline, and
            // recompute the rest: the plan is fixed while an
            // iteration runs, and this one cannot end before every
            // shard lands.
            req.onComplete = [this, k, g] {
                onGatherPiece(k);
                const int gpus = ctx.numGpus();
                const Bytes piece = std::max<Bytes>(
                    1, stage(k).weightBytes / static_cast<Bytes>(gpus));
                for (int p = 0; p < gpus; ++p) {
                    if (p == g)
                        continue;
                    TransferRequest peer;
                    peer.src = Endpoint::gpuAt(g);
                    peer.dst = Endpoint::gpuAt(p);
                    peer.bytes = piece;
                    peer.kind = TrafficKind::Parameter;
                    peer.priority = kPrioWeightBase + k;
                    peer.label = "peer s" + std::to_string(k);
                    peer.stage = k;
                    peer.onComplete = [this, k] {
                        onGatherPiece(k);
                    };
                    ctx.submitXfer(std::move(peer));
                }
            };
            ctx.submitXfer(std::move(req));
        }
    }

    void
    onGatherPiece(int k)
    {
        const int gpus = ctx.numGpus();
        const std::size_t ki = static_cast<std::size_t>(k);
        if (++gLanded[ki] < gpus * gpus)
            return;
        gGathered[ki] = 1;
        tryComputeChunk(k);
    }

    void
    tryComputeChunk(int k)
    {
        const std::size_t ki = static_cast<std::size_t>(k);
        if (gStarted[ki] || !gGathered[ki])
            return;
        if (k > 0 && !gDone[static_cast<std::size_t>(k - 1)])
            return; // lockstep: chunk k-1 must finish everywhere
        gStarted[ki] = 1;
        const int gpus = ctx.numGpus();
        gComputeLeft[ki] = gpus;
        double worst = 0.0;
        for (int g = 0; g < gpus; ++g) {
            const double dur = stage(k).time(
                gpuTokens[static_cast<std::size_t>(g)]);
            worst = std::max(worst, dur);
            ctx.compute(g).submit(
                dur, [this, k] { onChunkComputeDone(k); },
                "serve g" + std::to_string(k), {}, k);
        }
        // The lockstep ideal chain advances by the slowest GPU.
        iterIdeal += worst;
    }

    void
    onChunkComputeDone(int k)
    {
        const std::size_t ki = static_cast<std::size_t>(k);
        if (--gComputeLeft[ki] > 0)
            return;
        gDone[ki] = 1;
        gScratchUsed -= stage(k).weightBytes;
        swapBytes += stage(k).weightBytes *
                     static_cast<Bytes>(ctx.numGpus());
        ++swapLoads;
        if (k + 1 == numStages()) {
            endIteration();
            return;
        }
        pumpGather();
        tryComputeChunk(k + 1);
    }

    // ============================================================
    // Adaptive placement (the MOEBIUS move)
    // ============================================================

    bool
    switchCooledDown() const
    {
        return iterations - lastSwitchIter >=
               static_cast<std::uint64_t>(kSwitchCooldownIters);
    }

    void
    adaptPlacement()
    {
        if (opts.placement.policy != ServePlacement::Adaptive ||
            iterActive)
            return;
        MOBIUS_PROF_ZONE("serve.adapt");
        const int pending = batcher.pendingDepth();
        if (!modeFull && pending >= opts.placement.switchHigh &&
            switchCooledDown()) {
            if (trySwitchToFull()) {
                ++switches;
                lastSwitchIter = iterations;
            }
        } else if (modeFull &&
                   pending <= kSwitchLow &&
                   static_cast<int>(running.size()) * 4 <=
                       opts.batch.maxBatch &&
                   loadsInFlight == 0 && switchCooledDown()) {
            switchToSwap();
            ++switches;
            lastSwitchIter = iterations;
        }
    }

    /** Grow every carve-out to the full model; all-or-nothing. */
    bool
    trySwitchToFull()
    {
        const int gpus = ctx.numGpus();
        std::vector<Bytes> grown(
            static_cast<std::size_t>(gpus), 0);
        for (int g = 0; g < gpus; ++g) {
            GpuRt &grt = gpuRt[static_cast<std::size_t>(g)];
            const Bytes delta = grt.fullBytes - grt.budget;
            if (delta == 0)
                continue;
            if (!ctx.memory(g).tryAlloc(delta)) {
                for (int h = 0; h < g; ++h) {
                    if (grown[static_cast<std::size_t>(h)] > 0)
                        ctx.memory(h).free(
                            grown[static_cast<std::size_t>(h)]);
                }
                return false; // live KV leaves no room; stay in swap
            }
            grown[static_cast<std::size_t>(g)] = delta;
        }
        for (int g = 0; g < gpus; ++g) {
            GpuRt &grt = gpuRt[static_cast<std::size_t>(g)];
            grt.budget = grt.fullBytes;
            grt.swapping = false;
            // Backfill every absent stage now; the loads overlap
            // serving and their cost lands in swap-stall.
            for (int s : plan.owned[static_cast<std::size_t>(g)]) {
                StageRt &srt =
                    stageRt[static_cast<std::size_t>(s)];
                if (srt.resident || srt.loading)
                    continue;
                srt.loading = true;
                grt.weightUsed += stage(s).weightBytes;
                issueLoad(s);
            }
        }
        modeFull = true;
        return true;
    }

    /** Shrink back to the swap carve-out (light load). */
    void
    switchToSwap()
    {
        const int gpus = ctx.numGpus();
        for (int g = 0; g < gpus; ++g) {
            GpuRt &grt = gpuRt[static_cast<std::size_t>(g)];
            if (grt.fullBytes == grt.swapBytes) {
                continue;
            }
            const auto &owned =
                plan.owned[static_cast<std::size_t>(g)];
            // Keep the stages the next iteration needs first.
            const std::size_t keep = std::min(
                owned.size(),
                static_cast<std::size_t>(kResidentStages));
            for (std::size_t i = keep; i < owned.size(); ++i) {
                StageRt &srt = stageRt[static_cast<std::size_t>(
                    owned[i])];
                if (srt.resident) {
                    srt.resident = false;
                    grt.weightUsed -=
                        stage(owned[i]).weightBytes;
                }
            }
            ctx.memory(g).free(grt.budget - grt.swapBytes);
            grt.budget = grt.swapBytes;
            grt.swapping = true;
            grt.nextLoad = keep;
        }
        modeFull = false;
    }

    // ============================================================
    // Run + reduce
    // ============================================================

    ServeMetrics
    runAll()
    {
        if (ran)
            fatal("ServeSim::run() may only be called once");
        ran = true;
        initPlacement();
        for (std::size_t i = 0; i < records.size(); ++i) {
            const int id = static_cast<int>(i);
            ctx.queue().schedule(records[i].spec.arrival,
                                 [this, id] { onArrival(id); });
        }
        ctx.queue().run();
        if (completed != records.size())
            panic("serving deadlock: %zu of %zu requests finished",
                  completed, records.size());

        ServeMetrics m = reduceServeMetrics(records, lastFinish);
        m.iterations = iterations;
        m.swapLoads = swapLoads;
        m.swapBytes = swapBytes;
        m.switches = switches;
        m.admissions = batcher.stats().admissions;
        m.maxOccupancy = maxOccupancy;
        if (iterations > 0)
            m.avgOccupancy =
                occupancySum / static_cast<double>(iterations);
        if (ctx.faults()) {
            const FaultCounters &fc = ctx.faults()->counters();
            m.faultFailures = fc.failures;
            m.faultRetries = fc.retries;
            m.faultCrashes = fc.crashes;
        }
        exportMetrics(m);
        return m;
    }

    void
    exportMetrics(const ServeMetrics &m)
    {
        MetricsRegistry *reg = opts.metrics;
        if (!reg)
            return;
        reg->counter("serve.requests")
            .add(static_cast<double>(m.requests));
        reg->counter("serve.completed")
            .add(static_cast<double>(m.completed));
        reg->counter("serve.slo.met")
            .add(static_cast<double>(m.sloMet));
        reg->counter("serve.iterations")
            .add(static_cast<double>(m.iterations));
        reg->counter("serve.admissions")
            .add(static_cast<double>(m.admissions));
        reg->counter("serve.swap.loads")
            .add(static_cast<double>(m.swapLoads));
        reg->counter("serve.swap.bytes")
            .add(static_cast<double>(m.swapBytes));
        reg->counter("serve.switches")
            .add(static_cast<double>(m.switches));
        reg->gauge("serve.slo.attainment").set(m.sloAttainment);
        reg->gauge("serve.goodput.tokens_per_sec")
            .set(m.sloGoodputTokensPerSec);
        reg->gauge("serve.latency.e2e.p50").set(m.e2eP50);
        reg->gauge("serve.latency.e2e.p99").set(m.e2eP99);
        reg->gauge("serve.latency.ttft.p50").set(m.ttftP50);
        reg->gauge("serve.latency.ttft.p99").set(m.ttftP99);
        reg->gauge("serve.batch.occupancy.max")
            .set(static_cast<double>(m.maxOccupancy));
        reg->gauge("serve.batch.occupancy.avg")
            .set(m.avgOccupancy);
        for (const RequestRecord &r : records) {
            if (r.finish >= 0.0)
                reg->histogram("serve.e2e.seconds").record(r.e2e());
        }
    }
};

ServeSim::ServeSim(ServeOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{
}

ServeSim::~ServeSim() = default;

int
ServeSim::submit(ServeRequest req)
{
    if (impl_->ran)
        fatal("ServeSim: submit() after run()");
    if (req.arrival < 0.0)
        fatal("request arrival must be >= 0 (got %g)", req.arrival);
    if (req.promptTokens <= 0 || req.maxNewTokens <= 0)
        fatal("request needs positive prompt (%d) and generation "
              "(%d) lengths",
              req.promptTokens, req.maxNewTokens);
    const int id = static_cast<int>(impl_->records.size());
    req.id = id;
    if (req.name.empty())
        req.name = "req" + std::to_string(id);
    RequestRecord r;
    r.spec = std::move(req);
    impl_->records.push_back(std::move(r));
    impl_->kvHeld.emplace_back(
        static_cast<std::size_t>(impl_->ctx.numGpus()), 0);
    return id;
}

int
ServeSim::submitOpenLoop(const ServeRequest &prototype, int count,
                         const std::vector<ArrivalPhase> &phases,
                         std::uint64_t seed)
{
    if (count <= 0)
        return static_cast<int>(impl_->records.size());
    ArrivalProcess proc(phases, seed, prototype.arrival);
    int first = -1;
    for (int i = 0; i < count; ++i) {
        ServeRequest req = prototype;
        req.arrival = proc.next();
        req.name.clear();
        const int id = submit(std::move(req));
        if (first < 0)
            first = id;
    }
    return first;
}

ServeMetrics
ServeSim::run()
{
    return impl_->runAll();
}

const std::vector<RequestRecord> &
ServeSim::records() const
{
    return impl_->records;
}

const ServePlan &
ServeSim::plan() const
{
    return impl_->plan;
}

RunContext &
ServeSim::ctx()
{
    return impl_->ctx;
}

} // namespace mobius

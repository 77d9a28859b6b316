#include "xfer/transfer_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

namespace
{

/** Low 32 bits of a FlowId: the flow's slot. */
constexpr FlowId kSlotMask = 0xffffffffu;

} // namespace

TransferEngine::TransferEngine(EventQueue &queue, const Topology &topo,
                               UsageTracker *usage,
                               TransferEngineConfig cfg,
                               TraceRecorder *trace,
                               MetricsRegistry *metrics)
    : queue_(queue), topo_(topo), usage_(usage), cfg_(cfg),
      trace_(trace), stats_(cfg.bandwidthSamples)
{
    // PCIe H2D/D2H engines plus dedicated NVLink send/receive
    // engines per GPU.
    engines_.resize(static_cast<std::size_t>(topo.numGpus()) * 4);
    poolCapacity_.resize(static_cast<std::size_t>(topo.numLinks()) * 2);
    for (int l = 0; l < topo.numLinks(); ++l) {
        poolCapacity_[static_cast<std::size_t>(l) * 2] =
            topo.link(l).capacity;
        poolCapacity_[static_cast<std::size_t>(l) * 2 + 1] =
            topo.link(l).capacity;
    }
    basePoolCapacity_ = poolCapacity_;
    poolUsers_.resize(poolCapacity_.size());
    poolMark_.resize(poolCapacity_.size(), 0);
    flows_.reserve(64);
    buildRoutes();

    if (metrics) {
        mLinkBytes_.resize(static_cast<std::size_t>(topo.numLinks()));
        for (int l = 0; l < topo.numLinks(); ++l) {
            mLinkBytes_[static_cast<std::size_t>(l)] =
                &metrics->counter("link." + topo.link(l).name +
                                  ".bytes");
        }
        mQueueDepth_ = &metrics->gauge("xfer.queue.depth");
        mActiveFlows_ = &metrics->gauge("xfer.flows.active");
        mSubmitted_ = &metrics->counter("xfer.flows.submitted");
        mCompleted_ = &metrics->counter("xfer.flows.completed");
        mFailed_ = &metrics->counter("xfer.flows.failed");
        mStalled_ = &metrics->counter("xfer.flows.stalled");
        mRecomputes_ = &metrics->counter("xfer.rate.recomputes");
        mFlowsTouched_ =
            &metrics->counter("xfer.rate.flows_touched");
        mFlowsSkipped_ =
            &metrics->counter("xfer.rate.flows_skipped");
        mBandwidth_ = &metrics->histogram("xfer.bandwidth");
        mFairShareRounds_ =
            &metrics->histogram("xfer.fair_share.rounds");
    }
}

int
TransferEngine::routeIndex(Endpoint src, Endpoint dst) const
{
    const int g = topo_.numGpus();
    auto side = [g](Endpoint e) {
        if (e.isDram)
            return 0;
        if (e.gpu < 0 || e.gpu >= g)
            panic("transfer endpoint gpu%d out of range", e.gpu);
        return e.gpu + 1;
    };
    return side(src) * (g + 1) + side(dst);
}

void
TransferEngine::buildRoutes()
{
    const int n = topo_.numGpus() + 1;
    routes_.resize(static_cast<std::size_t>(n) *
                   static_cast<std::size_t>(n));
    auto endpoint = [](int i) {
        return i == 0 ? Endpoint::dram() : Endpoint::gpuAt(i - 1);
    };
    for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
            if (s == d)
                continue; // submit() rejects identical endpoints
            const Endpoint src = endpoint(s);
            const Endpoint dst = endpoint(d);
            Route &r = routes_[static_cast<std::size_t>(
                routeIndex(src, dst))];

            // GPU->GPU without P2P is staged through DRAM: model the
            // chunked staging as one cut-through flow across both
            // legs.
            std::vector<Hop> hops;
            if (!src.isDram && !dst.isDram && !topo_.gpudirectP2p()) {
                hops = topo_.route(src, Endpoint::dram());
                auto down = topo_.route(Endpoint::dram(), dst);
                hops.insert(hops.end(), down.begin(), down.end());
            } else {
                hops = topo_.route(src, dst);
            }
            r.poolOff = static_cast<std::uint32_t>(routePools_.size());
            r.poolCount = static_cast<std::uint32_t>(hops.size());
            bool all_peer = !hops.empty();
            for (const auto &h : hops) {
                // A lone flow's rate is its route's bottleneck only
                // if it counts once in each pool's share.
                if (std::find(routePools_.begin() + r.poolOff,
                              routePools_.end(),
                              h.poolId()) != routePools_.end())
                    panic("route %d -> %d crosses pool %d twice", s, d,
                          h.poolId());
                routePools_.push_back(h.poolId());
                all_peer = all_peer && topo_.link(h.link).peer;
            }

            // Copy engines: sender's D2H and/or receiver's H2D.
            // Pure-NVLink routes use the dedicated NVLink engines
            // instead.
            r.peerOnly = all_peer;
            if (all_peer) {
                r.engines[r.numEngines++] =
                    nvlinkEngineId(src.gpu, true);
                r.engines[r.numEngines++] =
                    nvlinkEngineId(dst.gpu, false);
            } else {
                if (!src.isDram)
                    r.engines[r.numEngines++] =
                        engineId(src.gpu, true);
                if (!dst.isDram)
                    r.engines[r.numEngines++] =
                        engineId(dst.gpu, false);
            }
            if (!src.isDram)
                r.commGpus[r.numCommGpus++] = src.gpu;
            if (!dst.isDram)
                r.commGpus[r.numCommGpus++] = dst.gpu;

            // Spans land on the GPU-side engine track.
            if (r.peerOnly)
                r.track = TraceName("gpu" + std::to_string(src.gpu) +
                                    ".nvlink");
            else if (!dst.isDram)
                r.track = TraceName("gpu" + std::to_string(dst.gpu) +
                                    ".h2d");
            else
                r.track = TraceName("gpu" + std::to_string(src.gpu) +
                                    ".d2h");
        }
    }
    refreshBottlenecks();
}

void
TransferEngine::refreshBottlenecks()
{
    for (Route &r : routes_) {
        r.bottleneck = std::numeric_limits<double>::infinity();
        for (int pool : poolsOf(r))
            r.bottleneck = std::min(
                r.bottleneck,
                poolCapacity_[static_cast<std::size_t>(pool)]);
    }
}

TransferEngine::Flow &
TransferEngine::flowAt(FlowId id)
{
    Flow &flow = flows_[static_cast<std::size_t>(id & kSlotMask)];
    if (flow.id != id)
        panic("transfer engine: no live flow %llu",
              static_cast<unsigned long long>(id));
    return flow;
}

void
TransferEngine::setLinkCapacityFactor(int link, double factor)
{
    if (link < 0 || link >= topo_.numLinks())
        panic("setLinkCapacityFactor: no link %d", link);
    if (!(factor > 0.0))
        panic("link capacity factor must be > 0, got %g", factor);
    int seeds[2];
    for (int d = 0; d < 2; ++d) {
        std::size_t pool = static_cast<std::size_t>(link) * 2 +
            static_cast<std::size_t>(d);
        poolCapacity_[pool] = basePoolCapacity_[pool] * factor;
        seeds[d] = static_cast<int>(pool);
    }
    refreshBottlenecks();
    updateRates(seeds, 0);
}

FlowId
TransferEngine::submit(TransferRequest req)
{
    if (req.src == req.dst)
        panic("transfer with identical endpoints");
    const int route = routeIndex(req.src, req.dst);

    std::uint64_t seq = nextSeq_++;
    if (seq > kSlotMask)
        panic("transfer engine: flow sequence overflow");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(flows_.size());
        flows_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }

    Flow &flow = flows_[slot];
    flow.id = seq << 32 | slot;
    flow.req = std::move(req);
    flow.route = route;
    flow.remaining = flow.req.bytes;
    flow.submitTime = queue_.now();

    // Stats attribution.
    const Endpoint &src = flow.req.src;
    const Endpoint &dst = flow.req.dst;
    if (flow.req.statsGpu < 0) {
        flow.req.statsGpu =
            !dst.isDram ? dst.gpu : (!src.isDram ? src.gpu : -1);
    }

    FlowId id = flow.id;
    if (mSubmitted_) {
        mSubmitted_->add();
        ++waitingCount_;
        mQueueDepth_->set(waitingCount_);
    }
    enqueueOnEngines(flow);
    tryStartFlows(routeOf(flow));
    return id;
}

void
TransferEngine::enqueueOnEngines(const Flow &flow)
{
    const Route &route = routeOf(flow);
    const Waiter w{flow.req.priority, flow.id};
    auto before = [](const Waiter &a, const Waiter &b) {
        return a.priority < b.priority ||
            (a.priority == b.priority && a.id < b.id);
    };
    for (int i = 0; i < route.numEngines; ++i) {
        auto &waiting = engines_[route.engines[i]].waiting;
        // Insert keeping (priority, seq) order; ids sort by seq.
        waiting.insert(std::upper_bound(waiting.begin(), waiting.end(),
                                        w, before),
                       w);
    }
}

bool
TransferEngine::canStart(const Flow &flow) const
{
    const Route &route = routeOf(flow);
    for (int i = 0; i < route.numEngines; ++i) {
        const CopyEngine &eng = engines_[route.engines[i]];
        if (eng.current != 0)
            return false;
        if (eng.waiting.empty() || eng.waiting.front().id != flow.id)
            return false;
    }
    return true;
}

void
TransferEngine::tryStartFlows(const Route &touched)
{
    // Between calls no flow is startable, and a flow's startability
    // depends only on its own engines, so a new startable flow can
    // only sit at the front of an engine the caller touched. Startable
    // flows hold disjoint engines; starting one only occupies engines,
    // so it cannot enable or disable another. Start them by lowest
    // engine id: the order a sweep over every engine would find them.
    FlowId start[2] = {0, 0};
    int lowest[2] = {0, 0};
    int n = 0;
    for (int i = 0; i < touched.numEngines; ++i) {
        const CopyEngine &eng = engines_[touched.engines[i]];
        if (eng.current != 0 || eng.waiting.empty())
            continue;
        FlowId id = eng.waiting.front().id;
        if (n == 1 && start[0] == id)
            continue;
        const Flow &flow = flowAt(id);
        if (!canStart(flow))
            continue;
        const Route &route = routeOf(flow);
        start[n] = id;
        lowest[n] = *std::min_element(
            route.engines, route.engines + route.numEngines);
        ++n;
    }
    if (n == 2 && lowest[1] < lowest[0])
        std::swap(start[0], start[1]);
    for (int i = 0; i < n; ++i)
        beginSetup(flowAt(start[i]));
}

void
TransferEngine::beginSetup(Flow &flow)
{
    const Route &route = routeOf(flow);
    flow.state = FlowState::Setup;
    if (mQueueDepth_) {
        --waitingCount_;
        mQueueDepth_->set(waitingCount_);
        ++activeCount_;
        mActiveFlows_->set(activeCount_);
    }
    for (int i = 0; i < route.numEngines; ++i) {
        auto &eng = engines_[route.engines[i]];
        eng.waiting.erase(eng.waiting.begin());
        eng.current = flow.id;
    }
    if (usage_) {
        for (int i = 0; i < route.numCommGpus; ++i)
            usage_->commBegin(route.commGpus[i]);
    }
    FlowId id = flow.id;
    flow.pendingEvent = queue_.scheduleAfter(
        cfg_.setupLatency, [this, id] { beginData(id); });
}

void
TransferEngine::addToPools(const Flow &flow)
{
    for (int pool : poolsOf(routeOf(flow)))
        poolUsers_[static_cast<std::size_t>(pool)].push_back(
            flow.id);
    ++movingCount_;
}

void
TransferEngine::removeFromPools(const Flow &flow)
{
    // Swap-and-pop: the order of a pool's users reaches no output
    // (updateRates()).
    for (int pool : poolsOf(routeOf(flow))) {
        auto &users = poolUsers_[static_cast<std::size_t>(pool)];
        *std::find(users.begin(), users.end(), flow.id) = users.back();
        users.pop_back();
    }
    --movingCount_;
}

void
TransferEngine::beginData(FlowId id)
{
    Flow &flow = flowAt(id);
    flow.state = FlowState::Moving;
    flow.pendingEvent = kNoEvent;
    flow.dataStart = queue_.now();
    flow.lastUpdate = queue_.now();
    addToPools(flow);
    if (flow.remaining == 0) {
        finish(id);
        return;
    }
    updateRates(poolsOf(routeOf(flow)), id);
}

void
TransferEngine::updateRates(std::span<const int> seed_pools,
                            FlowId seed_flow)
{
    MOBIUS_PROF_ZONE("xfer.update_rates");
    // Find each connected component of moving flows reachable from
    // the seeds through shared pools: the seed flow's first, then one
    // from each seed pool no earlier component reached. compEnds_
    // records where each component's flows and pools end. Epoch
    // stamps make the search allocation-free.
    ++walkEpoch_;
    compFlows_.clear();
    compPools_.clear();
    compEnds_.clear();
    auto visitPool = [this](int pool) {
        std::size_t p = static_cast<std::size_t>(pool);
        if (poolMark_[p] != walkEpoch_) {
            poolMark_[p] = walkEpoch_;
            compPools_.push_back(pool);
        }
    };
    auto visitFlow = [this, &visitPool](Flow &f) {
        if (f.mark != walkEpoch_) {
            f.mark = walkEpoch_;
            compFlows_.push_back(f.id);
            for (int pool : poolsOf(routeOf(f)))
                visitPool(pool);
        }
    };
    // A flow that is the only user of every pool on its route is a
    // component by itself: stamp it and its pools, and record it
    // without scanning pool users. Its pools stay out of compPools_,
    // since no waterfill reads them.
    auto closeAlone = [this](Flow &f) {
        for (int pool : poolsOf(routeOf(f))) {
            if (poolUsers_[static_cast<std::size_t>(pool)].size() != 1)
                return false;
        }
        f.mark = walkEpoch_;
        for (int pool : poolsOf(routeOf(f)))
            poolMark_[static_cast<std::size_t>(pool)] = walkEpoch_;
        compFlows_.push_back(f.id);
        compEnds_.push_back({compFlows_.size(), compPools_.size()});
        return true;
    };
    auto walk = [this, &visitFlow](std::size_t first_pool) {
        for (std::size_t i = first_pool; i < compPools_.size(); ++i) {
            auto &users =
                poolUsers_[static_cast<std::size_t>(compPools_[i])];
            for (FlowId fid : users)
                visitFlow(flowAt(fid));
        }
        compEnds_.push_back({compFlows_.size(), compPools_.size()});
    };
    if (seed_flow != 0) {
        Flow &f = flowAt(seed_flow);
        if (!closeAlone(f)) {
            visitFlow(f);
            walk(0);
        }
    }
    for (int pool : seed_pools) {
        std::size_t p = static_cast<std::size_t>(pool);
        const auto &users = poolUsers_[p];
        if (poolMark_[p] == walkEpoch_ || users.empty())
            continue;
        if (users.size() == 1 && closeAlone(flowAt(users[0])))
            continue;
        const std::size_t first = compPools_.size();
        visitPool(pool);
        walk(first);
    }

    if (movingCount_ > 0 || !compFlows_.empty()) {
        ++fsActivity_.solves;
        fsActivity_.flowsTouched += compFlows_.size();
        fsActivity_.flowsSkipped +=
            static_cast<std::uint64_t>(movingCount_) -
            compFlows_.size();
        fsActivity_.multiComponentSolves += compEnds_.size() > 1;
        if (mFlowsTouched_) {
            mFlowsTouched_->add(
                static_cast<double>(compFlows_.size()));
            mFlowsSkipped_->add(static_cast<double>(
                static_cast<std::uint64_t>(movingCount_) -
                compFlows_.size()));
        }
    }
    if (compFlows_.empty())
        return;

    // Integrate progress of every component flow since its last
    // update, then re-rate its component. Untouched flows keep
    // integrating at their unchanged rate; their scheduled completion
    // stays exact.
    auto integrate = [this](FlowId fid) -> Flow & {
        Flow &f = flowAt(fid);
        double dt = queue_.now() - f.lastUpdate;
        if (dt > 0 && f.rate > 0) {
            double moved = f.rate * dt;
            if (moved >= static_cast<double>(f.remaining))
                f.remaining = 0;
            else
                f.remaining -= static_cast<Bytes>(moved);
        }
        f.lastUpdate = queue_.now();
        return f;
    };
    // Components are solved one by one; inside one the rates do not
    // depend on flow or pool order (fair_share.hh).
    FairShareStats fsStats;
    const std::span<const int> pools = compPools_;
    std::size_t flowBegin = 0;
    std::size_t poolBegin = 0;
    for (const CompEnd &end : compEnds_) {
        const std::size_t n = end.flows - flowBegin;
        if (n == 1) {
            // A one-flow waterfill's single round raises the flow to
            // the least of its pools' capacities and its cap.
            Flow &f = integrate(compFlows_[flowBegin]);
            f.rate = cappedBottleneck(f);
            if (std::isinf(f.rate))
                panic("max-min fairness: unconstrained flow");
            ++fsStats.rounds;
        } else {
            fsViews_.resize(n);
            fsRates_.resize(n);
            for (std::size_t i = 0; i < n; ++i) {
                const Flow &f = integrate(compFlows_[flowBegin + i]);
                fsViews_[i].pools = poolsOf(routeOf(f));
                fsViews_[i].rateCap = f.req.rateCap;
            }
            waterfillComponent(
                fsViews_, pools.subspan(poolBegin, end.pools - poolBegin),
                poolCapacity_, fsRates_, fsWork_,
                mRecomputes_ ? &fsStats : nullptr);
            for (std::size_t i = 0; i < n; ++i)
                flowAt(compFlows_[flowBegin + i]).rate = fsRates_[i];
        }
        flowBegin = end.flows;
        poolBegin = end.pools;
    }
    if (mRecomputes_) {
        mRecomputes_->add();
        mFairShareRounds_->record(fsStats.rounds);
    }

    // Reschedule completions in submission order, as a full
    // recompute would: equal-time events fire in schedule order. A
    // pending completion moves in place; only the flow that just
    // started moving schedules a new one.
    std::sort(compFlows_.begin(), compFlows_.end());
    for (FlowId fid : compFlows_) {
        Flow &f = flowAt(fid);
        if (f.rate <= 0)
            panic("flow %llu got zero rate",
                  static_cast<unsigned long long>(f.id));
        double eta = static_cast<double>(f.remaining) / f.rate;
        if (f.pendingEvent != kNoEvent)
            f.pendingEvent =
                queue_.reschedule(f.pendingEvent, queue_.now() + eta);
        else
            f.pendingEvent = queue_.scheduleAfter(
                eta, [this, fid] { finish(fid); });
    }

    if (cfg_.fairShareCrossCheck)
        crossCheckRates();
}

void
TransferEngine::crossCheckRates()
{
    ++fsActivity_.crossChecks;
    std::vector<FlowId> moving;
    moving.reserve(static_cast<std::size_t>(movingCount_));
    for (const Flow &f : flows_) {
        if (f.id != 0 && f.state == FlowState::Moving)
            moving.push_back(f.id);
    }
    std::sort(moving.begin(), moving.end());

    fsViews_.resize(moving.size());
    fsRates_.resize(moving.size());
    for (std::size_t i = 0; i < moving.size(); ++i) {
        const Flow &f = flowAt(moving[i]);
        fsViews_[i].pools = poolsOf(routeOf(f));
        fsViews_[i].rateCap = f.req.rateCap;
    }
    maxMinFairRates(fsViews_, poolCapacity_, fsRates_, fsWork_);
    for (std::size_t i = 0; i < moving.size(); ++i) {
        const Flow &f = flowAt(moving[i]);
        if (fsRates_[i] != f.rate) {
            panic("fair-share cross-check: flow %llu has rate "
                  "%.17g, full recompute says %.17g",
                  static_cast<unsigned long long>(f.id), f.rate,
                  fsRates_[i]);
        }
    }
}

void
TransferEngine::finish(FlowId id)
{
    Flow &flow = flowAt(id);
    const Route &route = routeOf(flow);
    const std::span<const int> pools = poolsOf(route);
    flow.pendingEvent = kNoEvent;
    flow.remaining = 0;

    // Account the bytes and the achieved-bandwidth sample, which the
    // stats keep only when the sample log is on (setup latency
    // excluded so tiny transfers do not read as absurdly slow links).
    double duration = queue_.now() - flow.dataStart;
    BandwidthSample sample;
    sample.bytes = flow.req.bytes;
    sample.bandwidth = duration > 0
        ? static_cast<double>(flow.req.bytes) / duration
        : 0.0;
    sample.start = flow.dataStart;
    sample.finish = queue_.now();
    sample.gpu = flow.req.statsGpu;
    sample.kind = flow.req.kind;
    sample.peerOnly = route.peerOnly;
    stats_.record(sample);

    // Uncontended bottleneck: the slowest link-direction on the
    // route (and the flow's own cap, if any). Finishing below it
    // means fair sharing stalled this flow; the shortfall is the
    // span's contention stretch in critical-path attribution.
    const double bottleneck = cappedBottleneck(flow);

    if (mCompleted_) {
        (flow.req.willFail ? mFailed_ : mCompleted_)->add();
        --activeCount_;
        mActiveFlows_->set(activeCount_);
        for (int pool : pools) {
            mLinkBytes_[static_cast<std::size_t>(pool / 2)]->add(
                static_cast<double>(flow.req.bytes));
        }
        if (duration > 0 && flow.req.bytes > 0) {
            mBandwidth_->record(sample.bandwidth);
            if (std::isfinite(bottleneck) &&
                sample.bandwidth < 0.98 * bottleneck)
                mStalled_->add();
        }
    }

    if (trace_ && trace_->enabled()) {
        SpanFields s;
        s.name = flow.req.label.empty()
            ? std::string_view(trafficKindName(flow.req.kind))
            : std::string_view(flow.req.label);
        // A doomed attempt consumed the link for nothing: its whole
        // interval is fault time, and the retry records it as a
        // causal dependency (fault/fault_injector.hh).
        if (flow.req.willFail)
            s.nameSuffix = "!fail";
        s.start = flow.dataStart;
        s.end = queue_.now();
        s.deps = flow.req.deps;
        // Ready once submitted and past the fixed setup cost; any
        // later start is queueing behind other DMA on the engines.
        s.queuedAt = flow.submitTime + cfg_.setupLatency;
        // Intrinsic seconds at the uncontended bottleneck rate.
        if (std::isfinite(bottleneck) && bottleneck > 0.0)
            s.work = static_cast<double>(flow.req.bytes) /
                bottleneck;
        s.gpu = flow.req.statsGpu;
        s.stage = flow.req.stage;
        lastSpan_ = trace_->record(
            routes_[static_cast<std::size_t>(flow.route)].track,
            flow.req.willFail ? faultCategory_ : transferCategory_, s);
    } else {
        lastSpan_ = kNoSpan; // what a disabled recorder returns
    }

    if (usage_) {
        for (int i = 0; i < route.numCommGpus; ++i)
            usage_->commEnd(route.commGpus[i]);
    }
    for (int i = 0; i < route.numEngines; ++i) {
        int e = route.engines[i];
        if (engines_[e].current != id)
            panic("copy engine %d does not own finishing flow", e);
        engines_[e].current = 0;
    }

    removeFromPools(flow);
    auto on_complete = flow.req.willFail
        ? std::move(flow.req.onFail)
        : std::move(flow.req.onComplete);
    // Free the slot (and whatever the request still holds) before
    // anything below can submit into it: end the flow's lifetime and
    // start a default one in place.
    std::destroy_at(&flow);
    std::construct_at(&flow);
    freeSlots_.push_back(static_cast<std::uint32_t>(id & kSlotMask));

    updateRates(pools, 0);
    tryStartFlows(route);

    if (on_complete)
        on_complete();
}

} // namespace mobius

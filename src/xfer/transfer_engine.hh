/**
 * @file
 * The fluid-flow transfer engine.
 *
 * Models DMA transfers between DRAM and GPUs (and GPU-to-GPU) on top of
 * the event queue:
 *
 *  - every GPU has one H2D and one D2H copy engine; an engine runs one
 *    transfer at a time and picks the next by priority (lower value =
 *    more urgent, FIFO within a priority) — this models CUDA streams
 *    created with cudaStreamCreateWithPriority (§3.3);
 *  - an in-flight transfer is a fluid flow across the link-direction
 *    capacity pools on its route; rates are recomputed with max-min
 *    fairness whenever the active set changes, which is how
 *    root-complex contention arises;
 *  - GPU-to-GPU transfers on servers without GPUDirect P2P are routed
 *    through DRAM (chunked staging: a single cut-through flow whose
 *    route covers both legs), matching §2.2;
 *  - every transfer pays a fixed setup latency (driver/launch cost).
 *
 * **Incremental fair-share recomputation.** A change to the active
 * flow set (a flow starts moving, finishes, or a link's capacity is
 * rescaled) can only move the rates of flows that share a pool with
 * the change — directly or transitively. The engine keeps a
 * pool -> moving-flows index and walks each connected component the
 * change touches on its own: the started flow's, or one per seed
 * pool (the finished flow's, or both directions of a rescaled link)
 * that still carries moving flows and no earlier walk reached. It
 * then waterfills each component with waterfillComponent()
 * (fair_share.hh), which initialises only that component's pools,
 * so an update costs O(the components it re-solves), not O(pools).
 * Untouched flows keep their rate, their progress integral, and
 * their already-scheduled completion event. A component's rates
 * depend only on its own flows, in any order, so the incremental
 * rates are bit-identical to what a full recomputation would
 * produce; TransferEngineConfig::fairShareCrossCheck re-runs the
 * full solve (maxMinFairRates) after every update and panics on
 * any divergence. Completions are rescheduled in ascending FlowId
 * order across all the re-solved components, as a full recompute
 * would.
 *
 * **No rebuilding or rescanning per flow.** The per-flow path reuses
 * what it can compute once and looks only at the state a change can
 * affect:
 *
 *  - routes: each (src, dst) endpoint pair's pools, copy engines,
 *    comm GPUs, peer-only flag and trace track are computed once at
 *    construction into a (G+1)^2 table (DRAM plus G GPUs per side);
 *    a flow names its route by index;
 *  - flows live in a slot table with a free list. A FlowId is
 *    `seq << 32 | slot`, so ids sort in submission order, and a
 *    lookup checks the slot still holds that id;
 *  - the waterfill reads views of the route table's pool lists and
 *    writes into a FairShareWorkspace the engine keeps;
 *  - copy-engine wake-up: only the engines a submit or finish
 *    touched can have gained a startable flow at their front, so
 *    only they are looked at. Startable flows are started in
 *    ascending order of their lowest engine id, the order a rescan
 *    of every engine would find them in (starting a flow only
 *    occupies engines, so it never makes another flow startable).
 *
 * A rate re-solve (including setLinkCapacityFactor, and one that
 * spans several components) makes no heap allocation once the
 * scratch has grown to the largest update. Spans are built only
 * when the recorder is enabled.
 */

#ifndef MOBIUS_XFER_TRANSFER_ENGINE_HH
#define MOBIUS_XFER_TRANSFER_ENGINE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "hw/topology.hh"
#include "obs/metrics.hh"
#include "simcore/event_queue.hh"
#include "simcore/trace.hh"
#include "xfer/fair_share.hh"
#include "xfer/stats.hh"

namespace mobius
{

/** Identifies one submitted transfer. */
using FlowId = std::uint64_t;

/** A transfer submitted to the engine. */
struct TransferRequest
{
    Endpoint src;                 //!< source endpoint
    Endpoint dst;                 //!< destination endpoint
    Bytes bytes = 0;              //!< payload size
    TrafficKind kind = TrafficKind::Other; //!< traffic accounting
    int priority = 10;            //!< lower value = more urgent
    int statsGpu = -1;            //!< stats attribution; -1 = auto
    /**
     * Per-flow rate cap in bytes/second (0 = none). Models a slow
     * source such as an NVMe tier feeding stage loads.
     */
    double rateCap = 0.0;
    std::string label;            //!< trace span name
    std::function<void()> onComplete; //!< fires when the flow lands
    /**
     * Fault-injection hook (fault/fault_injector.hh): when set, this
     * attempt is doomed — it occupies its engines and links for the
     * full transfer, then surfaces as a failure (a CRC/timeout-style
     * transient error detected at completion). onFail fires instead
     * of onComplete and the span lands in category "fault".
     */
    bool willFail = false;
    std::function<void()> onFail; //!< fires when a doomed flow ends
    /** Spans that causally enabled this transfer (e.g. the compute
     *  that produced the activation, or the eviction that freed
     *  destination memory). */
    std::vector<SpanId> deps;
    int stage = -1;               //!< pipeline stage gated, -1 = none
};

/** Per-transfer engine configuration. */
struct TransferEngineConfig
{
    double setupLatency = 30e-6;  //!< seconds before data moves
    /**
     * Verification mode: after every incremental fair-share update,
     * re-solve *all* moving flows from scratch and panic unless
     * every stored rate matches the full solution exactly (==, not
     * within a tolerance). Costs a full recompute per change; meant
     * for tests and the bench_simcore quick gate, not production.
     */
    bool fairShareCrossCheck = false;
};

/**
 * Always-on counters for the incremental fair-share machinery. A
 * "solve" is one reaction to an active-set change; each solve touches
 * the flows in the affected component and skips every other moving
 * flow (work a full recomputation would have redone).
 */
struct FairShareActivity
{
    std::uint64_t solves = 0;       //!< incremental updates performed
    std::uint64_t flowsTouched = 0; //!< component flows re-solved
    std::uint64_t flowsSkipped = 0; //!< moving flows left untouched
    /** Updates that waterfilled two or more components. */
    std::uint64_t multiComponentSolves = 0;
    std::uint64_t crossChecks = 0;  //!< full-solve verifications run
};

/** Schedules transfers over a Topology on an EventQueue. */
class TransferEngine
{
  public:
    TransferEngine(EventQueue &queue, const Topology &topo,
                   UsageTracker *usage = nullptr,
                   TransferEngineConfig cfg = {},
                   TraceRecorder *trace = nullptr,
                   MetricsRegistry *metrics = nullptr);

    /** Submit a transfer; completes asynchronously. */
    FlowId submit(TransferRequest req);

    /**
     * Rescale link @p link's capacity (both directions) to
     * @p factor x its construction-time value and re-solve the
     * fair-share rates of every in-flight flow sharing a pool with
     * it (transitively). The fault injector's bandwidth-degradation
     * hook: factors compose by overwriting (pass the product of
     * active degradations), and factor 1 restores the nominal
     * capacity.
     */
    void setLinkCapacityFactor(int link, double factor);

    /** @return true when nothing is queued or in flight. */
    bool
    idle() const
    {
        return flows_.size() == freeSlots_.size();
    }

    /** @return number of flows currently moving data. */
    int dataActiveFlows() const { return movingCount_; }

    TrafficStats &stats() { return stats_; }
    const TrafficStats &stats() const { return stats_; }

    const Topology &topo() const { return topo_; }

    /** Incremental fair-share work counters (always maintained). */
    const FairShareActivity &
    fairShareActivity() const
    {
        return fsActivity_;
    }

    /**
     * Id of the most recently finished transfer's span (kNoSpan
     * before any finish, or without a recorder). Valid inside
     * onComplete callbacks: the span is recorded before they fire.
     */
    SpanId lastSpanId() const { return lastSpan_; }

  private:
    enum class FlowState { Waiting, Setup, Moving };

    /**
     * What the engine needs about one (src, dst) endpoint pair,
     * computed once at construction (see routeIndex()).
     */
    struct Route
    {
        std::uint32_t poolOff = 0;   //!< first pool in routePools_
        std::uint32_t poolCount = 0; //!< capacity pools on the route
        int engines[2] = {-1, -1};   //!< copy-engine ids required
        int numEngines = 0;
        int commGpus[2] = {-1, -1};  //!< GPUs for usage tracking
        int numCommGpus = 0;
        bool peerOnly = false;       //!< pure-NVLink route
        std::string track;           //!< trace track of its spans
    };

    struct Flow
    {
        FlowId id = 0;             //!< 0 = free slot
        TransferRequest req;
        int route = -1;            //!< index into routes_
        FlowState state = FlowState::Waiting;
        Bytes remaining = 0;
        double rate = 0.0;
        SimTime submitTime = 0.0;
        SimTime dataStart = 0.0;
        SimTime lastUpdate = 0.0;
        EventId pendingEvent = kNoEvent;
        std::uint64_t mark = 0;    //!< component-walk epoch stamp
    };

    /** A queued flow; engines order their queues by (priority, id). */
    struct Waiter
    {
        int priority = 0;
        FlowId id = 0;
    };

    struct CopyEngine
    {
        FlowId current = 0;               //!< 0 = idle
        std::deque<Waiter> waiting;       //!< kept (priority, id)-sorted
    };

    /** Copy-engine id for a GPU and direction (false=H2D, true=D2H). */
    int
    engineId(int gpu, bool d2h) const
    {
        return gpu * 2 + (d2h ? 1 : 0);
    }

    /**
     * NVLink copy-engine id. Transfers whose whole route is peer
     * links use these, so NVLink traffic does not queue behind PCIe
     * DMA on the same device (matching dedicated NVLink engines on
     * real GPUs).
     */
    int
    nvlinkEngineId(int gpu, bool send) const
    {
        return topo_.numGpus() * 2 + gpu * 2 + (send ? 1 : 0);
    }

    /** Index of the src -> dst entry in routes_. */
    int routeIndex(Endpoint src, Endpoint dst) const;
    /** Fill routes_ and routePools_ for every endpoint pair. */
    void buildRoutes();

    /** The route @p flow takes. */
    const Route &
    routeOf(const Flow &flow) const
    {
        return routes_[static_cast<std::size_t>(flow.route)];
    }

    /** Capacity pools on @p route. */
    std::span<const int>
    poolsOf(const Route &route) const
    {
        return {routePools_.data() + route.poolOff, route.poolCount};
    }

    /** The live flow @p id; panics when its slot was reused. */
    Flow &flowAt(FlowId id);

    void enqueueOnEngines(const Flow &flow);
    /**
     * Start every flow that became startable at the front of one of
     * @p touched's copy engines, in ascending order of the flows'
     * lowest engine id.
     */
    void tryStartFlows(const Route &touched);
    bool canStart(const Flow &flow) const;
    void beginSetup(Flow &flow);
    void beginData(FlowId id);
    void finish(FlowId id);

    /** Register @p flow as moving in the pool -> flows index. */
    void addToPools(const Flow &flow);
    /** Remove @p flow from the pool -> flows index. */
    void removeFromPools(const Flow &flow);

    /**
     * React to an active-set change: walk the connected components
     * of moving flows reachable from @p seed_flow (when nonzero) and
     * @p seed_pools, integrate their progress, waterfill each
     * component, and reschedule their completion events. Every other
     * moving flow is left untouched.
     */
    void updateRates(std::span<const int> seed_pools, FlowId seed_flow);

    /** Full-solve verification of every stored rate (cross-check). */
    void crossCheckRates();

    EventQueue &queue_;
    const Topology &topo_;
    UsageTracker *usage_;
    TransferEngineConfig cfg_;
    TraceRecorder *trace_;
    TrafficStats stats_;

    /** Flow slots; freeSlots_ lists the unused ones. */
    std::vector<Flow> flows_;
    std::vector<std::uint32_t> freeSlots_;
    /** (G+1)^2 routes, row = source endpoint (DRAM first). */
    std::vector<Route> routes_;
    /** Every route's pool ids, back to back. */
    std::vector<int> routePools_;
    std::vector<CopyEngine> engines_;
    std::vector<double> poolCapacity_;
    std::vector<double> basePoolCapacity_; //!< nominal (factor 1)
    /** Moving flows per pool id (the component-walk adjacency). */
    std::vector<std::vector<FlowId>> poolUsers_;
    /** Per-pool epoch stamps for the component walk. */
    std::vector<std::uint64_t> poolMark_;
    std::uint64_t walkEpoch_ = 0;
    int movingCount_ = 0;
    FairShareActivity fsActivity_;
    /** Where one walked component's flows and pools end. */
    struct CompEnd
    {
        std::size_t flows = 0;
        std::size_t pools = 0;
    };
    /**
     * Scratch for updateRates (kept to avoid re-allocation): the
     * walked components' flows and pools, back to back.
     */
    std::vector<FlowId> compFlows_;
    std::vector<int> compPools_;
    std::vector<CompEnd> compEnds_;
    std::vector<FairShareFlowView> fsViews_;
    std::vector<double> fsRates_;
    FairShareWorkspace fsWork_;
    std::uint64_t nextSeq_ = 1;
    SpanId lastSpan_ = kNoSpan;

    /**
     * Metric handles, cached at construction (all null when metrics
     * are off so the hot paths pay one pointer test). "Stalled"
     * means a flow finished below ~98% of its uncontended bottleneck
     * bandwidth, i.e. fair sharing throttled it.
     */
    std::vector<Counter *> mLinkBytes_;  //!< per link id
    Gauge *mQueueDepth_ = nullptr;
    Gauge *mActiveFlows_ = nullptr;
    Counter *mSubmitted_ = nullptr;
    Counter *mCompleted_ = nullptr;
    Counter *mFailed_ = nullptr;
    Counter *mStalled_ = nullptr;
    Counter *mRecomputes_ = nullptr;
    Counter *mFlowsTouched_ = nullptr;
    Counter *mFlowsSkipped_ = nullptr;
    Histogram *mBandwidth_ = nullptr;
    Histogram *mFairShareRounds_ = nullptr;
    int waitingCount_ = 0;  //!< flows submitted but not yet started
    int activeCount_ = 0;   //!< flows in setup or moving
};

} // namespace mobius

#endif // MOBIUS_XFER_TRANSFER_ENGINE_HH

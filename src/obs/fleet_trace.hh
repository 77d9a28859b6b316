/**
 * @file
 * Fleet-wide observability: timeline tracing, the scheduler
 * decision log, and per-job attribution roll-ups.
 *
 * PR 7's fleet simulator reduced each job to timing scalars plus a
 * trace digest, and scheduler activity to three counters — enough
 * to gate determinism, but a black box when a 10k-job fleet needs
 * to answer *why* job 42 waited 400 seconds or lost its server.
 * This module promotes the fleet to a fully explainable timeline:
 *
 *  - **FleetTrace** records typed per-job events (submit, admit,
 *    backfill, preempt, dock, resume, finish, server-free) stamped
 *    by the fleet event loop, plus server-occupancy stints and
 *    counter samples (pending-queue depth, running jobs, free
 *    servers per class). It exports a Chrome trace — one track per
 *    server, occupancy spans named after their job, flow arrows
 *    from each preempted stint to its resume, and "ph":"C" counter
 *    tracks — by reusing the PR 1/3 TraceRecorder plumbing.
 *
 *  - **FleetDecision** is one structured scheduler decision (admit
 *    / backfill / preempt) with the inputs the scheduler saw and a
 *    one-line human explanation. The decision log serialises as
 *    JSONL, one object per line, emitted strictly in event order
 *    on the single-threaded fleet event loop, so the bytes are
 *    identical at any `--threads` width and with the plan cache on
 *    or off.
 *
 *  - **FleetAttribution** aggregates per-job time breakdowns
 *    (queue-wait / compute / transfer / contention / optimizer /
 *    fault / bubble / preemption-lost seconds, from
 *    obs/critical_path run on each job's retained step spans) into
 *    a fleet-wide "where did fleet time go" table, grouped by
 *    server class and by priority, with a Top-K worst-JCT
 *    drill-down that names each straggler's dominant category.
 *    Every job's categories sum to its JCT to ~1e-13; the fleet
 *    bench gates the invariant at 1e-9.
 *
 * Retention is bounded: each job keeps at most
 * FleetTraceConfig::maxEventsPerJob events in a ring (oldest
 * dropped first); drops are counted, never silent. Occupancy
 * stints and decisions are O(admissions), which the scheduler
 * already bounds.
 */

#ifndef MOBIUS_OBS_FLEET_TRACE_HH
#define MOBIUS_OBS_FLEET_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mobius
{

/** Fleet tracing knobs (FleetOptions::trace). */
struct FleetTraceConfig
{
    /** Master switch; off = zero recording work in the fleet. */
    bool enabled = false;
    /** Ring budget: events retained per job (oldest dropped first,
     *  drops counted); <= 0 = unbounded. */
    int maxEventsPerJob = 64;
};

/** What happened to a job at one instant of fleet time. */
enum class FleetEventType : std::uint8_t
{
    Submit,     //!< job entered the pending queue
    Admit,      //!< first placement, in FIFO order
    Backfill,   //!< first placement that jumped a blocked head
    Preempt,    //!< evicted by a higher-priority arrival
    Dock,       //!< progress docked to whole steps after eviction
    Resume,     //!< re-placement after a preemption
    Finish,     //!< ran its last step
    ServerFree, //!< its server returned to the free pool
};

/** @return the lowercase wire name of @p type (e.g. "backfill"). */
const char *fleetEventName(FleetEventType type);

/** One typed, timestamped fleet event. */
struct FleetEvent
{
    FleetEventType type = FleetEventType::Submit;
    double time = 0.0; //!< fleet seconds
    int job = -1;      //!< subject job
    int server = -1;   //!< server involved, -1 = none (Submit)
    /** Companion id: preemptor (Preempt), blocked head jumped
     *  (Backfill), whole steps kept (Dock); -1/0 otherwise. */
    int other = -1;
    /** Extra scalar: seconds of lost progress (Dock), the job's
     *  priority (Admit/Backfill/Resume), the victim's priority
     *  (Preempt); 0 otherwise. */
    double value = 0.0;
};

/** One scheduler decision with its inputs and explanation. */
struct FleetDecision
{
    /** The decision taxonomy mirrors SchedDecision::Kind. */
    enum class Kind : std::uint8_t
    {
        Admit,    //!< head-of-line FIFO admission
        Backfill, //!< admission that jumped a blocked head
        Preempt,  //!< priority eviction to make room
    };

    Kind kind = Kind::Admit;
    double time = 0.0;  //!< fleet seconds
    int job = -1;       //!< admitted job, or the preemptor
    int server = -1;    //!< server granted / being vacated
    int priority = 0;   //!< the acting job's priority
    std::string klass;  //!< server class requested
    int freeInClass = 0;   //!< free machines in klass before the act
    int blockedHead = -1;  //!< earliest blocked job jumped, or -1
    std::string blockedHeadKlass; //!< its class ("" when none)
    int victim = -1;          //!< evicted job (Preempt), or -1
    int victimPriority = 0;   //!< its priority
    double victimStart = 0.0; //!< when the victim's stint began
    std::uint64_t pending = 0; //!< jobs still waiting behind this one
    std::string why; //!< one-line human explanation
};

/** @return the lowercase wire name of @p kind (e.g. "preempt"). */
const char *fleetDecisionName(FleetDecision::Kind kind);

/** Render @p d as one JSONL decision record (no trailing \n). */
std::string fleetDecisionJson(const FleetDecision &d);

/**
 * Seconds of one grouping cell (a job, a server class, a priority
 * band, or the whole fleet) attributed to each cause. For a single
 * job the categories sum to its JCT (see FleetAttribution).
 */
struct FleetTimeBreakdown
{
    double queueWait = 0.0; //!< waiting for a server (incl. requeues)
    double compute = 0.0;   //!< kernel work on the step critical path
    double transfer = 0.0;  //!< uncontended data movement on the path
    double contention = 0.0; //!< in-step queue wait + fair-share stretch
    double optimizer = 0.0;  //!< CPU optimizer work on the path
    double fault = 0.0;      //!< fault/retry/recovery work on the path
    double bubble = 0.0;     //!< in-step idle gaps with no cause
    double other = 0.0;      //!< unrecognised step span categories
    double preemptionLost = 0.0; //!< partial-step progress docked away
    std::uint64_t jobs = 0;      //!< jobs aggregated into this cell

    /** @return the sum of every category. */
    double total() const;

    /** Accumulate @p o into this cell (categories and job count). */
    void add(const FleetTimeBreakdown &o);

    /** @return the name of the largest category (e.g. "compute"),
     *  "none" when every category is zero. */
    const char *dominant() const;
};

/** One job's attributed time, ready for roll-up and JSONL export. */
struct FleetJobAttribution
{
    int job = -1;      //!< fleet job id
    std::string name;  //!< printable name ("job42")
    std::string klass; //!< server class it ran on
    int priority = 0;  //!< scheduler priority
    double jct = 0.0;  //!< residence seconds (finish - arrival)
    int preemptions = 0;    //!< times evicted
    FleetTimeBreakdown t;   //!< breakdown; t.total() == jct (~1e-13)
};

/** Render @p ja as one JSONL job record (no trailing \n). */
std::string fleetJobJson(const FleetJobAttribution &ja);

/** Fleet-wide attribution roll-up: where did fleet time go. */
struct FleetAttribution
{
    FleetTimeBreakdown total; //!< every job, summed
    std::map<std::string, FleetTimeBreakdown> byClass; //!< per class
    std::map<int, FleetTimeBreakdown> byPriority; //!< per priority
    std::vector<FleetJobAttribution> jobs; //!< job-id order

    /** Fold one job into the roll-up (appends to jobs). */
    void add(FleetJobAttribution ja);

    /** @return indices into jobs of the @p k worst JCTs, worst
     *  first (ties broken by smaller job id). */
    std::vector<std::size_t> worstJobs(int k) const;
};

/**
 * Render the "where did fleet time go" table: one row per server
 * class, per priority band, and a TOTAL row, plus a worst-@p top_k
 * JCT drill-down naming each straggler's dominant category.
 */
std::string fleetAttributionTable(const FleetAttribution &a,
                                  int top_k = 5);

/** Serialise the roll-up as a JSON object (stable field names; see
 *  EXPERIMENTS.md "fleet_report"). @p top_k caps the worst-JCT
 *  array (<= 0 = none). */
std::string fleetAttributionJson(const FleetAttribution &a,
                                 int top_k = 5);

/**
 * The fleet timeline recorder (see file header). Driven only from
 * the fleet event loop; events must arrive in nondecreasing time
 * order per server so occupancy stints nest correctly.
 */
class FleetTrace
{
  public:
    /**
     * @param cfg           retention knobs (cfg.enabled is the
     *                      caller's concern; the recorder records
     *                      whatever it is handed)
     * @param jobs          dense job-id space [0, jobs)
     * @param serverTracks  Chrome track name per global server
     *                      index (e.g. "server3.commodity")
     * @param classNames    server class names, dense class index
     *                      order (counter-track naming)
     */
    FleetTrace(const FleetTraceConfig &cfg, std::size_t jobs,
               std::vector<std::string> serverTracks,
               std::vector<std::string> classNames);

    /**
     * Record one typed event into @p ev.job's ring (oldest entry
     * dropped and counted once the ring is full). Admit / Backfill
     * / Resume open an occupancy stint on ev.server; Preempt and
     * Finish close it (a Resume stint links back to the preempted
     * stint, which Chrome export renders as a flow arrow).
     */
    void recordEvent(const FleetEvent &ev);

    /** Append one decision to the log (event order = call order). */
    void recordDecision(FleetDecision d);

    /**
     * Sample the scheduler gauges after an event-loop action.
     * Consecutive identical samples collapse into one.
     * @param time         fleet seconds
     * @param pending      jobs queued but not placed
     * @param running      jobs occupying a server
     * @param freePerClass free machines per dense class index
     */
    void sampleCounters(double time, std::size_t pending,
                        std::size_t running,
                        const std::vector<int> &freePerClass);

    /** Events retained for @p job, oldest first. */
    std::vector<FleetEvent> events(int job) const;

    /** Total events recorded (including later-dropped ones). */
    std::uint64_t eventCount() const { return eventCount_; }

    /** Events dropped by ring budgets, across all jobs. */
    std::uint64_t truncated() const { return truncated_; }

    /** Events dropped from @p job's ring. */
    std::uint64_t truncated(int job) const;

    /** The decision log, in event order. */
    const std::vector<FleetDecision> &
    decisions() const
    {
        return decisions_;
    }

    /** Completed server-occupancy stints recorded so far. */
    std::size_t stintCount() const { return stints_.size(); }

    /** The decision log as JSONL (one object per line). */
    std::string decisionLogJsonl() const;

    /**
     * Export the fleet timeline as Chrome tracing JSON: one track
     * per server with job-occupancy spans (category "occupancy",
     * stage = job id), a flow arrow from each preempted stint to
     * its resume, and "ph":"C" counter tracks for pending depth,
     * running jobs, and per-class free servers.
     * @param metadata_json optional top-level "metadata" object.
     */
    std::string
    toChromeJson(const std::string &metadata_json = "") const;

  private:
    /** One contiguous occupancy of a server by a job. */
    struct Stint
    {
        int job = -1;
        int server = -1;
        double start = 0.0;
        double end = -1.0;      //!< -1 while open
        int resumedFrom = -1;   //!< index of the preempted stint
        bool preempted = false; //!< closed by eviction, not finish
    };

    /** Ring of one job's retained events. */
    struct JobRing
    {
        std::vector<FleetEvent> events; //!< ring storage
        std::size_t next = 0;           //!< write index once full
        std::uint64_t dropped = 0;      //!< evicted entries
    };

    /** One counter sample (a row of every gauge at one instant). */
    struct CounterSample
    {
        double time = 0.0;
        std::uint64_t pending = 0;
        std::uint64_t running = 0;
        std::vector<int> freePerClass;
    };

    void openStint(const FleetEvent &ev, bool resumed);
    void closeStint(const FleetEvent &ev, bool preempted);

    FleetTraceConfig cfg_;
    std::vector<std::string> serverTracks_;
    std::vector<std::string> classNames_;
    std::vector<JobRing> rings_;   //!< per-job retained events
    std::vector<FleetDecision> decisions_;
    std::vector<Stint> stints_;    //!< completed + open stints
    std::vector<int> openStint_;   //!< job -> open stint index or -1
    std::vector<int> lastStint_;   //!< job -> latest stint index
    std::vector<CounterSample> samples_;
    std::uint64_t eventCount_ = 0;
    std::uint64_t truncated_ = 0;
};

} // namespace mobius

#endif // MOBIUS_OBS_FLEET_TRACE_HH

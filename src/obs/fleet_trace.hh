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
 *  - **FleetDecision** is one scheduler decision (admit / backfill
 *    / preempt) with the inputs the scheduler saw. FleetScheduler
 *    emits it and FleetTrace stores it as is; class names and the
 *    one-line human explanation are resolved only when the log is
 *    exported as JSONL, one object per line, strictly in event
 *    order on the single-threaded fleet event loop, so the bytes
 *    are identical at any `--threads` width and with the plan
 *    cache on or off.
 *
 *  - **FleetTrace** keeps that decision log, the server-occupancy
 *    stints the decisions open and close (plus each job's finish),
 *    and counter samples (pending-queue depth, running jobs, free
 *    servers per class). It exports a Chrome trace — one track per
 *    server, occupancy spans named after their job, flow arrows
 *    from each preempted stint to its resume, and "ph":"C" counter
 *    tracks — by reusing the PR 1/3 TraceRecorder plumbing.
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
 * Everything retained is O(admissions), which the scheduler
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
};

/**
 * One scheduler decision, with the inputs the scheduler saw when it
 * made it. FleetScheduler emits these through its decision hook
 * strictly in decision order on the fleet event loop (the scheduler
 * is single-threaded), so any log built from them is deterministic
 * at every `--threads` width. Class fields are dense class indices;
 * FleetTrace resolves their names at export.
 */
struct FleetDecision
{
    /** What was decided. */
    enum class Kind : std::uint8_t
    {
        Admit,    //!< head-of-line FIFO admission
        Backfill, //!< admission that jumped >= 1 blocked job
        Preempt,  //!< eviction to make room for the acting job
    };

    Kind kind = Kind::Admit;
    double time = 0.0; //!< scheduling instant (fleet seconds)
    int job = -1;      //!< admitted job, or the preemptor
    int priority = 0;  //!< the acting job's priority
    int server = -1;   //!< server granted (admit) / vacated (preempt)
    int klass = -1;    //!< dense class index the acting job wants
    int freeInClass = 0;  //!< free machines in klass before the act
    int blockedHead = -1; //!< earliest blocked job jumped, or -1
    int blockedHeadKlass = -1; //!< its dense class index, or -1
    int victim = -1;           //!< evicted job (Preempt), or -1
    int victimPriority = 0;    //!< the victim's priority
    double victimStart = 0.0;  //!< when the victim started running
    std::uint64_t pending = 0; //!< jobs still waiting placement
};

/** @return the lowercase wire name of @p kind (e.g. "preempt"). */
const char *fleetDecisionName(FleetDecision::Kind kind);

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
 * the fleet event loop, in nondecreasing time order, so occupancy
 * stints nest correctly.
 */
class FleetTrace
{
  public:
    /**
     * @param jobs          dense job-id space [0, jobs)
     * @param serverTracks  Chrome track name per global server
     *                      index (e.g. "server3.commodity")
     * @param classNames    server class names, dense class index
     *                      order (decision log and counter tracks)
     */
    FleetTrace(std::size_t jobs, std::vector<std::string> serverTracks,
               std::vector<std::string> classNames);

    /**
     * Append @p d to the decision log. An admit or backfill opens
     * the job's occupancy stint on d.server, linked to its previous
     * stint when this placement is a resume (Chrome export renders
     * the link as a flow arrow); a preempt closes the victim's.
     */
    void recordDecision(const FleetDecision &d);

    /** @p job ran its last step at @p time: close its stint. */
    void recordFinish(int job, double time);

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

    /** The decision log, in event order. */
    const std::vector<FleetDecision> &
    decisions() const
    {
        return decisions_;
    }

    /** Server-occupancy stints recorded so far. */
    std::size_t stintCount() const { return stints_.size(); }

    /**
     * The decision log as JSONL, one object per line: class names
     * resolved and a one-line explanation ("why") per decision.
     */
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

    /** One counter sample (a row of every gauge at one instant). */
    struct CounterSample
    {
        double time = 0.0;
        std::uint64_t pending = 0;
        std::uint64_t running = 0;
        std::vector<int> freePerClass;
    };

    /** @return @p job as an index; fatal() outside [0, jobs). */
    std::size_t jobSlot(int job) const;
    void closeStint(int job, double time, bool preempted);
    /** @return class name of dense index @p klass ("" when < 0). */
    const std::string &className(int klass) const;

    std::vector<std::string> serverTracks_;
    std::vector<std::string> classNames_;
    std::vector<FleetDecision> decisions_;
    std::vector<Stint> stints_;    //!< completed + open stints
    std::vector<int> openStint_;   //!< job -> open stint index or -1
    std::vector<int> lastStint_;   //!< job -> latest stint index
    std::vector<CounterSample> samples_;
};

} // namespace mobius

#endif // MOBIUS_OBS_FLEET_TRACE_HH

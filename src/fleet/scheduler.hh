/**
 * @file
 * Cluster scheduler for the fleet simulator: gang placement of jobs
 * onto whole servers, FIFO admission with optional backfill and
 * priority preemption — with indexed state so a 10k-job fleet
 * schedules in O(n log n), not O(n^2).
 *
 * The model (deliberately simple — this reproduces the paper's
 * Fig. 15/16 datacenter framing, not SLURM):
 *
 *  - the cluster is a set of *server classes* (e.g. "commodity"
 *    2+2, "dc" 4-GPU), each with `count` identical machines;
 *  - a job requests one whole server of a named class (gang
 *    scheduling: all GPUs of the machine, or nothing);
 *  - pending jobs are kept in a binary min-heap keyed by
 *    (arrival, id) — FIFO order with job id as the deterministic
 *    tie-break for simultaneous arrivals;
 *  - free servers are kept per class in an ordered set, so "is a
 *    machine free / which one" is O(log n) instead of a scan;
 *  - admission is head-of-line FIFO; with `backfill` enabled, jobs
 *    behind a blocked head may start on *other* classes' idle
 *    servers (EASY-lite: a blocked head only blocks its own class,
 *    and within a class strict arrival order is preserved — a
 *    backfilled job can never delay the head since gang slots are
 *    indivisible and within-class order is FIFO);
 *  - with `preemption` enabled, an arriving job of strictly higher
 *    priority (smaller number) evicts the lowest-priority running
 *    victim on its class (ties: latest-started, then largest id —
 *    all deterministic); the victim re-enters the pending heap.
 *
 * The scheduler is pure bookkeeping over (jobId, time) pairs: it
 * never touches simulation state. FleetSim drives it from the fleet
 * event loop and translates its admit/evict callbacks into job
 * starts and cancellations.
 */

#ifndef MOBIUS_FLEET_SCHEDULER_HH
#define MOBIUS_FLEET_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/fleet_trace.hh"

namespace mobius
{

/** One server class in the fleet. */
struct FleetServerDesc
{
    std::string klass = "commodity"; //!< class name jobs request
    std::vector<int> groups = {2, 2}; //!< PCIe groups (shape only)
    bool dataCenter = false;          //!< NVLink node vs commodity
    int count = 1;                    //!< identical machines
};

/** What a job asks the scheduler for. */
struct FleetJobReq
{
    std::string klass = "commodity"; //!< server class wanted
    int priority = 0;                //!< smaller = more important
};

/** FleetScheduler policy knobs. */
struct FleetSchedOptions
{
    bool backfill = false;   //!< EASY-lite backfill
    bool preemption = false; //!< priority eviction
};

/** Scheduling activity totals. */
struct FleetSchedStats
{
    std::uint64_t admissions = 0;  //!< jobs started (incl. restarts)
    std::uint64_t backfills = 0;   //!< admissions that jumped a
                                   //!< blocked head-of-line
    std::uint64_t preemptions = 0; //!< evictions performed
};

/**
 * Gang scheduler over whole-server slots (see file header).
 * Single-threaded: driven only from the fleet event loop.
 */
class FleetScheduler
{
  public:
    using Options = FleetSchedOptions;

    /** Observer of every admit/backfill/preempt (see FleetDecision). */
    using DecisionHook = std::function<void(const FleetDecision &)>;

    /** @param servers cluster inventory; must be non-empty with
     *  unique class names and positive counts (fatal otherwise). */
    explicit FleetScheduler(
        const std::vector<FleetServerDesc> &servers,
        Options opts = {});

    /** @return true when class @p klass exists in the cluster —
     *  a job requesting an unknown class could never start. */
    bool fits(const std::string &klass) const;

    /** Queue job @p id (arrived at @p arrival) for placement. */
    void enqueue(int id, double arrival, const FleetJobReq &req);

    /** Job @p id finished (or was cancelled): free its server. */
    void release(int id);

    /**
     * Place as many pending jobs as possible at time @p now.
     * @p evict is called for each preemption victim (its server is
     * immediately reused); @p admit is called for each start with
     * the chosen global server index. Victims are NOT re-queued
     * automatically — the fleet re-enqueues them after docking
     * progress, so their requeue arrival time is its decision.
     */
    void schedule(double now,
                  const std::function<void(int victim)> &evict,
                  const std::function<void(int id, int server)>
                      &admit);

    /** @return jobs queued but not yet placed. */
    std::size_t pendingCount() const { return pending_.size(); }

    /** @return jobs currently occupying a server. */
    std::size_t runningCount() const { return running_.size(); }

    /** @return class name of global server index @p server. */
    const std::string &serverClass(int server) const;

    /** @return number of server classes in the cluster. */
    int klassCount() const
    {
        return static_cast<int>(klasses_.size());
    }

    /** @return name of dense class index @p klass (fatal when out
     *  of range). */
    const std::string &klassName(int klass) const;

    /** @return free machines per dense class index, a snapshot of
     *  the scheduler's gauges for counter sampling. */
    std::vector<int> freeCounts() const;

    /**
     * Install @p hook, invoked synchronously for every admit,
     * backfill, and preempt decision — before the corresponding
     * admit/evict callback fires, so observers see the decision's
     * inputs ahead of its effects. Pass an empty function to
     * uninstall.
     */
    void setDecisionHook(DecisionHook hook);

    /** @return total machines in the cluster. */
    int serverCount() const
    {
        return static_cast<int>(serverKlass_.size());
    }

    /** Activity totals so far. */
    const FleetSchedStats &stats() const { return stats_; }

  private:
    /** A queued job: heap-keyed by (arrival, id). */
    struct Pending
    {
        double arrival = 0.0;
        int id = -1;
        int priority = 0;
        int klass = -1; //!< dense class index

        /** std::push_heap keeps the *largest* element first, so
         *  "greater" ordering yields a min-heap on (arrival, id). */
        bool
        operator<(const Pending &other) const
        {
            if (arrival != other.arrival)
                return arrival > other.arrival;
            return id > other.id;
        }
    };

    /** A placed job. */
    struct Running
    {
        int server = -1;
        int priority = 0;
        double start = 0.0;
    };

    /** Per-class state. */
    struct Klass
    {
        std::string name;
        /** Free machines (global indices), ordered — the smallest
         *  index is always chosen, deterministically. */
        std::set<int> freeServers;
    };

    int klassIndex(const std::string &name) const;
    /** Pop the pending heap's minimum. */
    Pending popPending();

    /**
     * Try to place @p job at @p now; returns the server or -1.
     * @p pending_seen is the queue depth to stamp on a preemption
     * decision (heap + temporarily-held blocked jobs).
     */
    int tryPlace(double now, const Pending &job,
                 std::uint64_t pending_seen,
                 const std::function<void(int victim)> &evict);

    Options opts_;
    DecisionHook decisionHook_;
    std::vector<Klass> klasses_;
    std::map<std::string, int> klassIndex_;
    std::vector<int> serverKlass_; //!< global server -> class
    std::vector<Pending> pending_; //!< binary heap (see Pending)
    std::map<int, Running> running_; //!< job id -> placement
    FleetSchedStats stats_;
};

} // namespace mobius

#endif // MOBIUS_FLEET_SCHEDULER_HH

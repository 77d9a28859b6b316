/**
 * @file
 * FleetSim: the datacenter-scale multi-job simulator.
 *
 * Drives a job-arrival process (explicit submissions and/or a
 * Poisson generator) through the gang scheduler (scheduler.hh) and
 * runs each admitted job's training step on the single-server
 * simulator (fleet/job.hh), all on one shared fleet EventQueue —
 * the same deterministic clock the per-step simulator uses, one
 * level up.
 *
 * Three perf layers make a 10k-job fleet tractable:
 *
 *  1. PlanCache (plan_cache.hh) — the MIP + cross-mapping solve
 *     runs once per distinct (model, topology, options) key, not
 *     once per job. In a homogeneous mix this removes the dominant
 *     cost entirely (hit rate -> 1).
 *  2. JobPump (simcore/job_pump.hh) — step simulations are pure in
 *     the JobSpec, so they start *speculatively at arrival* on the
 *     pump's worker threads; the fleet loop blocks at admission
 *     only if the result is not ready yet. All fleet bookkeeping
 *     stays on the event-loop thread, results live in per-job
 *     slots, and reductions run in job-id order after the loop —
 *     fleet metrics are bit-identical at any --threads width.
 *  3. Indexed scheduler state (scheduler.hh) — binary-heap pending
 *     queue, per-class free-server sets: O(n log n) end to end.
 *
 * Determinism contract (gated by tests and bench_fleet --quick):
 * FleetMetrics::fingerprint — an FNV-1a digest over every job's
 * timing bit patterns and trace digest, in job-id order — is
 * bit-identical across thread widths and with the plan cache on or
 * off.
 *
 * Time model: one simulated step per job is *simulated in detail*
 * (fleet/job.hh); a job occupying a server for `steps` training
 * steps then takes steps * stepTime fleet-seconds. Preemption docks
 * whole completed steps (partial-step progress is lost) and
 * requeues the victim at the eviction instant.
 */

#ifndef MOBIUS_FLEET_FLEET_SIM_HH
#define MOBIUS_FLEET_FLEET_SIM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "fleet/job.hh"
#include "fleet/scheduler.hh"
#include "obs/critical_path.hh"
#include "obs/fleet_trace.hh"
#include "obs/metrics.hh"

namespace mobius
{

/** Fleet-wide configuration. */
struct FleetOptions
{
    /** Cluster inventory; empty = one commodity 2+2 server. */
    std::vector<FleetServerDesc> servers;
    int threads = 0;       //!< job pump width; 0 = hardware, 1 = serial
    bool planCache = true; //!< memoize planMobius per distinct key
    bool backfill = false;   //!< scheduler EASY-lite backfill
    bool preemption = false; //!< scheduler priority eviction
    /** Faults injected into every job's step simulation (per-job
     *  stream selected by JobSpec::faultSeed). Empty = clean. */
    FaultPlan faults;
    /** Optional registry for fleet.* metrics; null = none. */
    MetricsRegistry *metrics = nullptr;
    /**
     * Fleet timeline tracing (obs/fleet_trace.hh): off by default —
     * zero recording work, zero overhead. When trace.enabled, the
     * run additionally keeps typed per-job events (ring-bounded by
     * trace.maxEventsPerJob), the scheduler decision log, server
     * occupancy stints, queue/free-server counters, and per-job
     * attribution roll-ups, exposed via fleetTrace() /
     * attribution() / timelineJson() / reportJsonl().
     */
    FleetTraceConfig trace;
};

/** Everything the fleet learned about one job. */
struct FleetJobRecord
{
    JobSpec spec;
    double arrival = 0.0;  //!< submission time
    double start = -1.0;   //!< first admission time
    double finish = -1.0;  //!< completion time
    double queueDelay = 0.0;  //!< start - arrival
    double stepTime = 0.0;    //!< simulated seconds per step
    double cleanStepTime = 0.0; //!< step time with no faults
    double occupiedSeconds = 0.0; //!< total server occupancy
    int server = -1;       //!< last server occupied
    int preemptions = 0;   //!< times evicted
    bool planCacheHit = false;
    std::uint64_t spanCount = 0;
    std::uint64_t spanHash = 0; //!< trace digest of the step sim

    /** @return job completion time (finish - arrival). */
    double jct() const { return finish - arrival; }
};

/** Fleet-level reductions over a completed run. */
struct FleetMetrics
{
    std::uint64_t jobs = 0;      //!< submitted
    std::uint64_t completed = 0; //!< ran to their last step
    FleetSchedStats sched;       //!< admissions/backfills/preemptions

    double makespan = 0.0; //!< last finish time
    double jctP50 = 0.0, jctP99 = 0.0, jctMean = 0.0, jctMax = 0.0;
    double waitP50 = 0.0, waitP99 = 0.0, waitMean = 0.0;

    /** Occupied server-seconds / (servers * makespan). */
    double utilization = 0.0;
    /** Same, per server class. */
    std::map<std::string, double> classUtilization;
    /** Useful clean step-seconds / occupied server-seconds: the
     *  fraction of occupancy doing clean-run-equivalent work
     *  (1.0 without faults; ZeRO-Infinity-style accounting). */
    double goodput = 0.0;

    std::uint64_t planHits = 0, planMisses = 0;
    double planHitRate = 0.0;

    /**
     * FNV-1a digest of the scheduler decision stream (kind, time,
     * job, server, priorities, victim, blocked head, queue gauges
     * of every admit/backfill/preempt, in decision order). Always
     * computed — tracing on or off — so scheduler-order regressions
     * trip the cross-width identity gates even without a log.
     */
    std::uint64_t decisionFingerprint = 0;

    /** FNV-1a digest of every job record (timings, trace hashes)
     *  in job-id order, folded with decisionFingerprint — the
     *  cross-width bit-identity token. */
    std::uint64_t fingerprint = 0;

    /** Fleet trace events recorded / dropped by ring budgets
     *  (0 / 0 when tracing is off). */
    std::uint64_t traceEvents = 0;
    std::uint64_t traceTruncated = 0;
};

/** The fleet simulator (see file header). */
class FleetSim
{
  public:
    explicit FleetSim(FleetOptions opts = {});

    /**
     * Submit one job. Its id is assigned densely from 0 (any id
     * already set on @p spec is overwritten); name defaults to
     * "job<id>". fatal() when the requested server class does not
     * exist — that job could never start — or when the job's system
     * is neither Mobius nor DeepSpeed.
     * @return the assigned job id.
     */
    int submit(JobSpec spec);

    /**
     * Submit @p count Poisson arrivals: copies of @p prototype
     * with exponential(rate) inter-arrival gaps appended after the
     * prototype's own arrival offset, deterministically from
     * @p seed. @return the first assigned id.
     */
    int submitPoisson(const JobSpec &prototype, int count,
                      double jobs_per_second, std::uint64_t seed);

    /** Run the fleet to completion and reduce the metrics. */
    FleetMetrics run();

    /** Per-job outcomes, in job-id order (valid after run()). */
    const std::vector<FleetJobRecord> &records() const
    {
        return records_;
    }

    /** The plan memo (shared across all jobs of this fleet). */
    PlanCache &planCache() { return planCache_; }

    /**
     * The fleet timeline recorder (valid after run(); fatal when
     * FleetOptions::trace.enabled was false — there is nothing to
     * inspect).
     */
    const FleetTrace &fleetTrace() const;

    /** Per-job attribution roll-ups (valid after run() with tracing
     *  on; fatal otherwise). Every job's categories sum to its JCT
     *  within ~1e-13 relative drift. */
    const FleetAttribution &attribution() const;

    /**
     * The fleet timeline as Chrome tracing JSON: one track per
     * server with job-occupancy spans, preemption->resume flow
     * arrows, and pending/running/free-server counter tracks.
     * Valid after run() with tracing on; fatal otherwise.
     */
    std::string timelineJson() const;

    /**
     * The full observability report as JSONL: every scheduler
     * decision (inputs + one-line explanation) in event order, one
     * attribution record per job, and a trailing summary line —
     * the input tools/fleet_report consumes. Byte-identical at any
     * --threads width and with the plan cache on or off. Valid
     * after run() with tracing on; fatal otherwise.
     */
    std::string reportJsonl() const;

  private:
    /** fatal() unless run() completed with tracing enabled. */
    void requireTrace(const char *what) const;

    FleetOptions opts_;
    FleetScheduler scheduler_;
    std::vector<JobSpec> jobs_;
    std::vector<FleetJobRecord> records_;
    PlanCache planCache_;
    /** Clean-run step time per jobSimKey, for goodput accounting
     *  when faults are active (solved once per distinct job). */
    SingleFlightCache<double> cleanCache_;
    /** Timeline recorder; non-null iff opts_.trace.enabled. */
    std::unique_ptr<FleetTrace> trace_;
    /** One-step attribution per jobSimKey: step results are
     *  bit-identical per key, so a homogeneous fleet pays one
     *  critical-path walk, not one per job. */
    SingleFlightCache<AttributionBreakdown> attribCache_;
    /** Roll-ups built during run() when tracing. */
    FleetAttribution attribution_;
    /** Copy of run()'s reductions, for reportJsonl(). */
    FleetMetrics metrics_;
    bool ran_ = false;
};

} // namespace mobius

#endif // MOBIUS_FLEET_FLEET_SIM_HH

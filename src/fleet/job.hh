/**
 * @file
 * Fleet job descriptions: what one fine-tuning job is, and how to
 * plan and simulate a single step of it.
 *
 * A JobSpec is the complete, self-contained recipe for one job: the
 * model, the target server shape (its own topology — fleet servers
 * are whole machines, jobs gang-schedule onto all of a server's
 * GPUs), the system under test (Mobius or the ZeRO-style baseline),
 * planner knobs, and arrival-process metadata. Both the fleet
 * simulator (fleet_sim.hh) and the paper's Fig. 15/16 benches build
 * jobs from this one struct, so the figure harnesses and the fleet
 * bench cannot drift apart.
 *
 * Two canonical keys derive from a spec:
 *
 *  - jobPlanKey()  — every input planMobius() reads, serialised in a
 *    fixed order. Equal keys guarantee equal plans (planning is
 *    deterministic), which is what makes the PlanCache sound.
 *  - jobSimKey()   — the plan key plus everything else a step
 *    simulation reads (system, fault seed). Equal keys guarantee
 *    bit-identical StepRunResults, which is what lets the fleet
 *    memoize whole simulations for goodput accounting.
 *
 * simulateJobStep() is the pure function the fleet's job pump runs:
 * JobSpec in, plan + step measurements + trace digest out. It
 * depends only on the spec (never on admission time or scheduler
 * state), which is why the fleet can start simulations speculatively
 * at arrival and why results are bit-identical at any thread width.
 */

#ifndef MOBIUS_FLEET_JOB_HH
#define MOBIUS_FLEET_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/plan_cache.hh"
#include "runtime/api.hh"

namespace mobius
{

/** The fleet's former enum, kept as an alias because perfbench/
 *  names it. FleetSim runs Mobius and DeepSpeed jobs only. */
using JobSystem = System;

/** One fine-tuning job in the fleet. */
struct JobSpec
{
    int id = -1;       //!< fleet-assigned, dense from 0
    std::string name;  //!< printable ("job42"), defaults from id

    GptConfig model;   //!< what to fine-tune (Table 3 config)
    System system = System::Mobius;

    /** Server shape the job wants: a data-center node or a
     *  commodity machine with these PCIe groups. The fleet places
     *  the job on a whole server of matching class. */
    bool dataCenter = false;
    std::vector<int> groups = {2, 2};
    /** Scheduler server class this job requests (scheduler.hh). */
    std::string serverClass = "commodity";

    int microbatchSize = -1;  //!< -1 = model's Table 3 default
    int numMicrobatches = -1; //!< -1 = one per GPU (M = N, §3.1)
    PartitionAlgo partition = PartitionAlgo::Mip;
    MappingAlgo mapping = MappingAlgo::Cross;

    int steps = 1;          //!< training steps the job runs
    double arrival = 0.0;   //!< submission time (fleet seconds)
    /** Smaller = more important; preemption evicts larger first. */
    int priority = 0;
    std::uint64_t faultSeed = 1; //!< per-job fault stream seed
};

/** @return GPUs the job occupies (its whole server shape). */
int jobGpus(const JobSpec &spec);

/** Build the server the job's simulation runs on. */
Server buildJobServer(const JobSpec &spec);

/**
 * Canonical planner-input key: model fields, topology shape, and
 * resolved planner options in a fixed textual order. Two specs with
 * equal keys get identical plans from planMobius().
 */
std::string jobPlanKey(const JobSpec &spec);

/**
 * Canonical simulation key: jobPlanKey() plus the system and fault
 * seed. Two specs with equal keys get bit-identical step results.
 */
std::string jobSimKey(const JobSpec &spec);

/** Everything one simulated step of a job produced. */
struct JobStepResult
{
    StepStats stats;      //!< step measurements
    MobiusPlan plan;      //!< the plan used (Mobius jobs only)
    bool planCacheHit = false; //!< plan came from the cache
    double planSeconds = 0.0;  //!< wall spent planning (0 on hit)
    std::uint64_t spanCount = 0; //!< trace spans recorded
    std::uint64_t spanHash = 0;  //!< spanFingerprint() of the trace
};

/**
 * Plan (through @p cache when non-null) and simulate one training
 * step of @p spec. Pure in the spec: equal jobSimKey() (with equal
 * @p faults) gives bit-identical results, cached or fresh plan,
 * any thread. @p faults may be null for a clean run. When
 * @p trace_out is non-null the step's span trace is retained into
 * it (moved wholesale, see StepRunOptions::traceOut) so callers can
 * run critical-path attribution on it.
 */
JobStepResult simulateJobStep(const JobSpec &spec,
                              PlanCache *cache = nullptr,
                              const FaultPlan *faults = nullptr,
                              TraceRecorder *trace_out = nullptr);

} // namespace mobius

#endif // MOBIUS_FLEET_JOB_HH

/**
 * @file
 * Deterministic parallel fan-out over independent simulations.
 *
 * Sensitivity sweeps, goodput curves, and bench harnesses all run
 * many *independent* replicas of the simulator — same code, different
 * seed or configuration — and fold the results. Each replica builds
 * its own EventQueue, engines, and TraceRecorder, so replicas share
 * no mutable state and are embarrassingly parallel.
 *
 * runReplicas() executes `body(0) .. body(count-1)` on a small thread
 * pool with a ticket counter: each worker atomically claims the next
 * unclaimed index until none remain. Determinism contract:
 *
 *  - the body receives only its replica index, so each replica's
 *    outputs depend on the index alone, never on which worker ran it
 *    or in what order;
 *  - callers store results in a pre-sized per-index slot (never a
 *    shared accumulator) and reduce *after* the join, in index order
 *    — the reduction then performs the same arithmetic in the same
 *    order at any thread count, giving bit-identical results for 1,
 *    4, or N threads;
 *  - exceptions are captured per index and rethrown after the join,
 *    lowest index first, so failure reporting is deterministic too.
 *
 * The MIP partitioner's parallel stage-count sweep
 * (plan/partition_mip.cc), the fleet simulator's per-job step
 * simulations (fleet/fleet_sim.cc), the benches and the tools share
 * this one audited implementation.
 */

#ifndef MOBIUS_SIMCORE_REPLICA_RUNNER_HH
#define MOBIUS_SIMCORE_REPLICA_RUNNER_HH

#include <functional>

namespace mobius
{

/** Tuning for runReplicas(). */
struct ReplicaRunnerOptions
{
    /**
     * Worker threads to use; 0 means hardware concurrency. Always
     * clamped to [1, count] — asking for more threads than replicas
     * just idles the extras, so they are not created.
     */
    int threads = 0;
};

/** What a runReplicas() call actually did. */
struct ReplicaRunStats
{
    int threadsUsed = 0; //!< workers actually spawned (>= 1)
};

/**
 * Run @p body(i) for every i in [0, count) on a ticket-dispatched
 * thread pool (see the file comment for the determinism contract).
 * With one thread (or count <= 1) the bodies run inline on the
 * calling thread, in index order. Each body runs inside one
 * `simcore.replica` profiler zone.
 *
 * The body must confine its writes to per-index storage; it is called
 * concurrently from multiple threads. If any body throws, the
 * remaining tickets are still drained (each replica either ran or
 * threw — never silently skipped) and the lowest-index exception is
 * rethrown after all workers join.
 *
 * @param count number of replicas; <= 0 runs nothing.
 * @param body  callback invoked once per replica index.
 * @param opts  thread-count override.
 * @return the thread count actually used.
 */
ReplicaRunStats runReplicas(int count,
                            const std::function<void(int)> &body,
                            ReplicaRunnerOptions opts = {});

} // namespace mobius

#endif // MOBIUS_SIMCORE_REPLICA_RUNNER_HH

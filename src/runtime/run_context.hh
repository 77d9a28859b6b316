/**
 * @file
 * Everything one simulated training step runs on: the event queue,
 * the transfer engine over the server's topology, one compute engine
 * and one memory ledger per GPU, and the usage tracker feeding Fig. 8.
 *
 * A RunContext optionally carries a MetricsRegistry; when present,
 * the engines it constructs instrument themselves and finish()
 * records the per-GPU phase breakdown (compute / exposed comm /
 * overlapped comm / idle) plus simulator health metrics.
 */

#ifndef MOBIUS_RUNTIME_RUN_CONTEXT_HH
#define MOBIUS_RUNTIME_RUN_CONTEXT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "hw/server.hh"
#include "obs/metrics.hh"
#include "obs/whatif.hh"
#include "runtime/cpu_optimizer.hh"
#include "runtime/gpu_memory.hh"
#include "runtime/step_stats.hh"
#include "xfer/compute_engine.hh"
#include "xfer/transfer_engine.hh"

namespace mobius
{

/**
 * Everything a RunContext can be configured with. The defaults are a
 * faithful, fault-free, unobserved run.
 */
struct RunContextOptions
{
    TransferEngineConfig xfer{}; //!< interconnect tunables
    /** CPU optimizer params/s; 0 disables the CPU-update model. */
    double cpuAdamThroughput = 0.0;
    /** Optional registry for engine counters; null = no recording. */
    MetricsRegistry *metrics = nullptr;
    /**
     * The engine-rate side of a what-if counterfactual
     * (obs/whatif.hh): per-GPU compute speed factors and a CPU
     * optimizer throughput multiplier; the default is the identity.
     */
    RunPerturbation perturb{};
    /** Optional fault plan; null or empty = clean run. */
    const FaultPlan *faults = nullptr;
    std::uint64_t faultSeed = 1; //!< FaultInjector stream seed
};

/** Simulation context for one step on one server. */
class RunContext
{
  public:
    /**
     * Wire up queue, engines, memory pools, and telemetry for
     * @p server. When opts.metrics is non-null, every engine
     * registers its counters there at construction.
     *
     * When opts.faults is non-null and non-empty, a FaultInjector is
     * constructed over the engines and armed; executors must then
     * route transfers through submitXfer() so transient failures and
     * retries apply.
     */
    explicit RunContext(const Server &server,
                        const RunContextOptions &opts = {})
        : server_(&server),
          metrics_(opts.metrics),
          usage_(queue_, server.topo.numGpus()),
          xfer_(queue_, server.topo, &usage_, opts.xfer, &trace_,
                opts.metrics),
          cpuOptimizer_(queue_,
                        opts.cpuAdamThroughput *
                            opts.perturb.cpuOptimizerFactor,
                        &trace_)
    {
        for (int g = 0; g < server.topo.numGpus(); ++g) {
            compute_.push_back(std::make_unique<ComputeEngine>(
                queue_, &usage_, g, &trace_, opts.metrics,
                opts.perturb.computeFactor(g)));
            memory_.push_back(std::make_unique<GpuMemory>(
                server.topo.gpuSpec(g).memBytes));
        }
        if (opts.faults && !opts.faults->empty()) {
            std::vector<ComputeEngine *> engines;
            for (auto &ce : compute_)
                engines.push_back(ce.get());
            faults_ = std::make_unique<FaultInjector>(
                queue_, server.topo, xfer_, std::move(engines),
                *opts.faults, opts.faultSeed,
                [this](double f) { cpuOptimizer_.setThrottle(f); },
                [this] { return workloadIdle(); }, &trace_,
                opts.metrics);
            faults_->arm();
        }
    }

    const Server &server() const { return *server_; } //!< the machine
    /** @return number of GPUs on the server. */
    int numGpus() const { return server_->topo.numGpus(); }

    EventQueue &queue() { return queue_; }   //!< the simulation clock
    UsageTracker &usage() { return usage_; } //!< per-GPU phase times
    TraceRecorder &trace() { return trace_; } //!< span/counter sink
    TransferEngine &xfer() { return xfer_; } //!< the interconnect
    CpuOptimizer &cpuOptimizer() { return cpuOptimizer_; } //!< CPU Adam
    ComputeEngine &compute(int gpu) { return *compute_[gpu]; } //!< per-GPU kernels
    GpuMemory &memory(int gpu) { return *memory_[gpu]; } //!< per-GPU pool

    /**
     * The registry engines report into, or nullptr when metrics are
     * off; executors gate their handle creation on this.
     */
    MetricsRegistry *metrics() { return metrics_; }

    /** The fault injector, or nullptr for fault-free runs. */
    FaultInjector *faults() { return faults_.get(); }

    /**
     * Submit a transfer through the fault model when one is active
     * (transient failures + retries), or straight to the engine.
     * Executors route every transfer here instead of xfer().submit.
     */
    FlowId
    submitXfer(TransferRequest req)
    {
        if (faults_)
            return faults_->submit(std::move(req));
        return xfer_.submit(std::move(req));
    }

    /**
     * Register an additional "still busy" predicate consulted by
     * workloadIdle(). Request-driven workloads (the serving
     * simulator) have engine-idle gaps between arrivals that are not
     * the end of the run; without this hook the fault injector would
     * disarm itself at the first such gap.
     */
    void
    setExtraBusy(std::function<bool()> fn)
    {
        extraBusy_ = std::move(fn);
    }

    /**
     * @return true when every engine has drained: the fault
     * injector's signal that the step is over and its remaining
     * timed events should be cancelled rather than run.
     */
    bool
    workloadIdle() const
    {
        if (extraBusy_ && extraBusy_())
            return false;
        if (!xfer_.idle() || !cpuOptimizer_.idle())
            return false;
        for (const auto &ce : compute_)
            if (!ce->idle())
                return false;
        return true;
    }

    /**
     * Drain the event queue and collect the step's statistics.
     * @param system label recorded in the stats.
     */
    StepStats
    finish(const std::string &system)
    {
        queue_.run();
        StepStats stats;
        stats.system = system;
        stats.stepTime = queue_.now();
        stats.numGpus = numGpus();
        stats.traffic = xfer_.stats();
        if (faults_) {
            // A fault event can fire after the workload drains (the
            // injector cancels it, but the queue clock has already
            // advanced); the step ends when its last span does.
            if (trace_.spanCount() > 0)
                stats.stepTime = trace_.maxEnd();
            const FaultCounters &fc = faults_->counters();
            stats.faultFailures = fc.failures;
            stats.faultRetries = fc.retries;
            stats.faultCrashes = fc.crashes;
            stats.faultSeconds = fc.seconds();
        }
        for (int g = 0; g < numGpus(); ++g) {
            stats.computeTime += usage_.computeTime(g);
            stats.exposedCommTime += usage_.exposedCommTime(g);
            stats.overlappedCommTime += usage_.overlappedCommTime(g);
        }
        if (MetricsRegistry *m = metrics_) {
            m->histogram("step.time").record(stats.stepTime);
            for (int g = 0; g < numGpus(); ++g) {
                std::string p = "gpu" + std::to_string(g);
                double compute = usage_.computeTime(g);
                double exposed = usage_.exposedCommTime(g);
                m->counter(p + ".compute.seconds").add(compute);
                m->counter(p + ".exposed_comm.seconds").add(exposed);
                m->counter(p + ".overlapped_comm.seconds")
                    .add(usage_.overlappedCommTime(g));
                // Idle: step wall time not spent computing or
                // blocked on exposed communication.
                double idle = stats.stepTime - compute - exposed;
                m->counter(p + ".idle.seconds")
                    .add(idle > 0.0 ? idle : 0.0);
                m->gauge(p + ".mem.peak_bytes")
                    .set(static_cast<double>(memory_[static_cast<
                        std::size_t>(g)]->peak()));
            }
            m->counter("sim.events.executed")
                .add(static_cast<double>(queue_.executed()));
            m->counter("sim.events.clamped")
                .add(static_cast<double>(queue_.clamped()));
            m->gauge("sim.drift.max_seconds").set(queue_.maxDrift());
            m->counter("cpu.optimizer.busy_seconds")
                .add(cpuOptimizer_.busyTime());
        }
        return stats;
    }

  private:
    const Server *server_;
    MetricsRegistry *metrics_ = nullptr;
    EventQueue queue_;
    TraceRecorder trace_;
    UsageTracker usage_;
    TransferEngine xfer_;
    CpuOptimizer cpuOptimizer_;
    std::vector<std::unique_ptr<ComputeEngine>> compute_;
    std::vector<std::unique_ptr<GpuMemory>> memory_;
    std::unique_ptr<FaultInjector> faults_;
    std::function<bool()> extraBusy_;
};

} // namespace mobius

#endif // MOBIUS_RUNTIME_RUN_CONTEXT_HH

/**
 * @file
 * Request-driven serving simulator on the discrete-event core.
 *
 * ServeSim wires a Workload (analytic cost model), a ServePlan
 * (placement.hh), a ContinuousBatcher, and a RunContext (event queue,
 * transfer engine, per-GPU compute engines and memory ledgers, fault
 * injector) into one open-loop serving run:
 *
 *   arrivals --> FIFO queue --> continuous batch --> iterations
 *
 * Each iteration runs every running request one step — prompt tokens
 * for a request in prefill, one token in decode — over the pipeline
 * stages (or, for ZeroGather, over lockstep all-gathered layer
 * chunks). Weights move DRAM <-> GPU through the TransferEngine
 * with the same priority/prefetch machinery the training executors
 * use, so swap stalls, PCIe contention, and injected faults shape
 * tail latency exactly like they shape step time in training.
 *
 * Latency bookkeeping is exact by construction: a request's
 * end-to-end time is its queue wait plus the durations of the
 * iterations it rode (it is resident continuously from admission to
 * finish). Each iteration's duration splits into the ideal compute
 * chain (prefill/decode) and the remainder (swap-stall), so the four
 * categories sum to e2e within floating-point dust — gated at 1e-9.
 *
 * Determinism: the simulator consumes no randomness beyond the
 * seeded arrival generator and runs single-threaded inside one event
 * queue, so a fixed configuration is byte-identical on every run;
 * sweeps parallelise whole sims via runReplicas() and reduce in
 * index order.
 */

#ifndef MOBIUS_SERVE_SERVE_SIM_HH
#define MOBIUS_SERVE_SERVE_SIM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.hh"
#include "runtime/api.hh"
#include "runtime/run_context.hh"
#include "serve/batcher.hh"
#include "serve/placement.hh"
#include "serve/request.hh"
#include "serve/slo.hh"
#include "simcore/arrival.hh"

namespace mobius
{

/** Everything one serving run needs. */
struct ServeOptions
{
    /** GPUs per root complex (makeCommodityServer groups). */
    std::vector<int> groups = {2, 2};
    GptConfig model = gpt8b(); //!< the served model
    PlacementConfig placement; //!< weight placement policy
    BatchConfig batch;         //!< continuous-batching knobs
    SloConfig slo;             //!< end-to-end deadline policy
    FaultPlan faults;          //!< empty = fault-free
    std::uint64_t faultSeed = 1;
    MetricsRegistry *metrics = nullptr; //!< serve.* sink, optional
    /**
     * Record engine + iteration spans (off by default: span storage
     * grows with traffic, and serving runs are long).
     */
    bool recordSpans = false;
};

/** One serving simulation; submit requests, then run() once. */
class ServeSim
{
  public:
    explicit ServeSim(ServeOptions opts);
    ~ServeSim();

    /**
     * Submit one request (before run()).
     * @return the assigned request id.
     */
    int submit(ServeRequest req);

    /**
     * Submit @p count copies of @p prototype with arrival times drawn
     * from a seeded phased Poisson process starting at the
     * prototype's arrival time (simcore/arrival.hh).
     * @return the first assigned id.
     */
    int submitOpenLoop(const ServeRequest &prototype, int count,
                       const std::vector<ArrivalPhase> &phases,
                       std::uint64_t seed);

    /** Run to completion (once) and reduce the metrics. */
    ServeMetrics run();

    /** Per-request records (valid after run()). */
    const std::vector<RequestRecord> &records() const;

    /** The inference stage plan in force. */
    const ServePlan &plan() const;

    /** The underlying run context (tests poke memory/trace). */
    RunContext &ctx();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace mobius

#endif // MOBIUS_SERVE_SERVE_SIM_HH

/**
 * @file
 * High-level fine-tuning API — the library's front door.
 *
 * Typical use:
 * @code
 *     Server server = makeCommodityServer({2, 2});
 *     Workload work(gpt15b(), server);
 *     MobiusPlan plan = planMobius(server, work.cost());
 *     StepStats stats =
 *         runStep(System::Mobius, server, work.cost(), &plan).stats;
 * @endcode
 *
 * planMobius() runs the full §3 flow: profile with layer similarity,
 * solve the MIP partition, search the cross mapping; its timing
 * fields are what Fig. 12 reports. runStep() executes one training
 * step of Mobius or a baseline on the event-driven simulator and
 * returns the measurements behind Figs. 2 and 5-16.
 */

#ifndef MOBIUS_RUNTIME_API_HH
#define MOBIUS_RUNTIME_API_HH

#include <memory>
#include <string>

#include "hw/server.hh"
#include "plan/mapping.hh"
#include "plan/partition_algos.hh"
#include "plan/partition_mip.hh"
#include "profile/profiler.hh"
#include "runtime/mobius_executor.hh"
#include "runtime/pipeline_executor.hh"
#include "runtime/tp_executor.hh"
#include "runtime/zero_executor.hh"

namespace mobius
{

/**
 * A fine-tuning workload: owns the model description and the cost
 * model bound to a server's GPU type.
 */
class Workload
{
  public:
    /**
     * @param cfg               model configuration (Table 3)
     * @param server            target server (GPU type, count)
     * @param microbatch_size   -1 = the config's Table 3 default
     * @param num_microbatches  -1 = one per GPU (M = N, §3.1)
     *
     * fatal() on any other size or count below 1.
     */
    Workload(const GptConfig &cfg, const Server &server,
             int microbatch_size = -1, int num_microbatches = -1);

    /** The built model description. */
    const ModelDesc &model() const { return *model_; }
    /** The per-layer cost model. */
    const CostModel &cost() const { return *cost_; }
    /** The resolved training configuration. */
    const TrainConfig &train() const { return train_; }

  private:
    std::unique_ptr<ModelDesc> model_;
    TrainConfig train_;
    std::unique_ptr<CostModel> cost_;
};

/** Partition algorithm selector (§4.3 ablation). */
enum class PartitionAlgo
{
    Mip,       //!< scalable heuristic search (default)
    ExactMip,  //!< faithful Eq. 3-11 branch-and-bound
    MinStage,  //!< one transformer block per stage
    MaxStage,  //!< as many layers per stage as memory allows
};

/** Stage mapping selector (§4.4 ablation). */
enum class MappingAlgo { Cross, Sequential };

/** Planning knobs. */
struct PlanOptions
{
    PartitionAlgo partition = PartitionAlgo::Mip;
    MappingAlgo mapping = MappingAlgo::Cross;
    /** Branch-and-bound budget and stage-sweep thread count, used
     * when partition == PartitionAlgo::ExactMip. */
    MipOptions mip;
    /** Optional registry for plan.mip.* / solver.lp.* metrics from
     * the exact MIP solve; null = no recording. */
    MetricsRegistry *metrics = nullptr;
};

/** Output of the planning phase (§3.2/§3.3 + Fig. 12 overheads). */
struct MobiusPlan
{
    Partition partition;
    Mapping mapping;
    PipelineEstimate estimate;       //!< analytic schedule estimate
    double profilingSeconds = 0.0;   //!< Fig. 12 "MIP profiling"
    double solveSeconds = 0.0;       //!< Fig. 12 "MIP solving"
    double mappingSeconds = 0.0;     //!< Fig. 12 "cross mapping"
    int profiledLayers = 0;
    int stageCount() const
    {
        return static_cast<int>(partition.size());
    }
};

/** Run the full planning flow for @p cost on @p server. */
MobiusPlan planMobius(const Server &server, const CostModel &cost,
                      const PlanOptions &opts = {});

/**
 * The training systems a step can run: the paper's §4 Fig. 5
 * lineup plus the §5 tensor-parallel comparator.
 */
enum class System
{
    Mobius,         //!< planned pipeline with cross mapping
    DeepSpeed,      //!< ZeRO-3 + heterogeneous memory baseline
    GPipe,          //!< all-in-GPU pipeline, GPipe schedule
    DsPipeline,     //!< all-in-GPU pipeline, 1F1B (DeepSpeed pipeline)
    TensorParallel, //!< Megatron-style tensor parallelism
};

/** Every System, in declaration order. */
inline constexpr System kAllSystems[] = {
    System::Mobius, System::DeepSpeed, System::GPipe,
    System::DsPipeline, System::TensorParallel};

/** @return "mobius", "deepspeed", "gpipe", "dspipe" or "tp". */
const char *systemName(System system);

/** Inverse of systemName(); fatal() on an unknown name. */
System parseSystem(const std::string &name);

/**
 * Executor tunables. Each field is read by one system only, and
 * runStep() calls fatal() when a field differs from its default on
 * a run of any other system.
 */
struct ExecutorOptions
{
    MobiusExecutorConfig mobius; //!< System::Mobius
    ZeroExecutorConfig zero;     //!< System::DeepSpeed
};

/** Everything an owning runStep() can be configured with. */
struct StepRunOptions : RunContextOptions
{
    ExecutorOptions exec; //!< per-system executor tunables
    /**
     * Optional span-retention sink. When non-null, the run's trace
     * is moved here wholesale (arenas and all, replacing previous
     * contents) after the digest fields are computed — the cheap
     * hook fleet attribution uses to keep step spans alive past the
     * run without copying them. Null = the trace dies with the run.
     */
    TraceRecorder *traceOut = nullptr;
};

/** A step's measurements plus its trace digest. */
struct StepRunResult
{
    StepStats stats;
    std::uint64_t spanCount = 0; //!< spans the run recorded
    /** spanFingerprint() of the run's trace — the bit-identity
     *  token fleet determinism gates compare (cache hit vs fresh
     *  solve, any --threads width). */
    std::uint64_t spanHash = 0;
};

/**
 * Execute one training step of @p system on the caller's @p ctx and
 * return its measurements; the context (trace, usage, engines)
 * stays readable afterwards. System::Mobius executes @p plan, which
 * it requires; every other system takes no plan. The pipelines
 * split the layers by balanced compute over the GPUs in order, and
 * throw FatalError when the model does not fit (the Fig. 5 OOM
 * entries); tensor parallelism throws when its weight shard does
 * not fit.
 */
StepStats runStep(RunContext &ctx, System system,
                  const CostModel &cost,
                  const MobiusPlan *plan = nullptr,
                  const ExecutorOptions &opts = {});

/**
 * runStep() on a fresh RunContext built from @p opts, with the
 * trace digest; the trace goes to opts.traceOut or dies with the
 * run.
 */
StepRunResult runStep(System system, const Server &server,
                      const CostModel &cost,
                      const MobiusPlan *plan = nullptr,
                      const StepRunOptions &opts = {});

/** runStep(System::Mobius, ...) under the name perfbench/ calls. */
StepRunResult runMobiusStepEx(const Server &server,
                              const CostModel &cost,
                              const MobiusPlan &plan,
                              const StepRunOptions &opts = {});

/** runStep(System::DeepSpeed, ...) under the name perfbench/ calls. */
StepRunResult runZeroStepEx(const Server &server,
                            const CostModel &cost,
                            const StepRunOptions &opts = {});

} // namespace mobius

#endif // MOBIUS_RUNTIME_API_HH

#include "runtime/api.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"
#include "obs/prof.hh"
#include "simcore/trace.hh"

namespace mobius
{

Workload::Workload(const GptConfig &cfg, const Server &server,
                   int microbatch_size, int num_microbatches)
{
    if (microbatch_size < 1 && microbatch_size != -1)
        fatal("microbatch size must be >= 1 (or -1 for the model's "
              "default), got %d",
              microbatch_size);
    if (num_microbatches < 1 && num_microbatches != -1)
        fatal("microbatch count must be >= 1 (or -1 for one per "
              "GPU), got %d",
              num_microbatches);
    model_ = std::make_unique<ModelDesc>(makeGptModel(cfg));
    train_.microbatchSize = microbatch_size == -1
        ? cfg.microbatchSize
        : microbatch_size;
    train_.numMicrobatches = num_microbatches == -1
        ? server.topo.numGpus()
        : num_microbatches;
    if (server.topo.numGpus() < 1)
        fatal("workload needs a server with at least one GPU");
    cost_ = std::make_unique<CostModel>(
        *model_, server.topo.gpuSpec(0), train_);
}

namespace
{

/**
 * planMobius() step 2: partition with opts.partition under the
 * Eq. 3-11 objective; fatal() when no feasible partition is found.
 */
PartitionResult
partitionStages(const Server &server, const CostModel &cost,
                const PlanOptions &opts)
{
    MOBIUS_PROF_ZONE("plan.partition");
    PipelineEnv env;
    env.numGpus = server.topo.numGpus();
    env.gpuMemBytes = server.topo.gpuSpec(0).memBytes;
    env.avgBandwidth = kPcie3x16Bw;
    PipelineCostEvaluator eval(cost, env);

    PartitionResult part;
    switch (opts.partition) {
      case PartitionAlgo::Mip:
        part = mipPartition(eval);
        break;
      case PartitionAlgo::ExactMip: {
        ExactMipResult exact = exactMipPartition(
            eval, cost.numLayers(), opts.mip, opts.metrics);
        if (!exact.solved) {
            fatal("exact MIP partition found no feasible partition "
                  "within its node/time budget");
        }
        part.partition = std::move(exact.partition);
        part.estimate = eval.evaluate(part.partition);
        part.solveSeconds = exact.wallSeconds;
        part.evaluated = static_cast<int>(
            std::min<std::uint64_t>(exact.nodes, 1000000000ULL));
        break;
      }
      case PartitionAlgo::MinStage:
        part = minStagePartition(eval);
        break;
      case PartitionAlgo::MaxStage:
        part = maxStagePartition(eval);
        break;
    }
    if (!part.estimate.feasible) {
        const char *name = "MIP";
        switch (opts.partition) {
          case PartitionAlgo::Mip:      name = "MIP"; break;
          case PartitionAlgo::ExactMip: name = "exact-MIP"; break;
          case PartitionAlgo::MinStage: name = "minimum-stage"; break;
          case PartitionAlgo::MaxStage: name = "maximum-stage"; break;
        }
        fatal("%s partition infeasible: %s", name,
              part.estimate.infeasibleReason.c_str());
    }
    return part;
}

} // namespace

MobiusPlan
planMobius(const Server &server, const CostModel &cost,
           const PlanOptions &opts)
{
    MobiusPlan plan;

    // 1. Profile (layer similarity keeps this flat across depths).
    {
        MOBIUS_PROF_ZONE("plan.profile");
        ProfileResult prof = profileModel(cost);
        plan.profilingSeconds = prof.profilingTime;
        plan.profiledLayers = prof.profiledLayers;
    }

    // 2. Partition via the chosen algorithm under the Eq. 3-11
    //    objective.
    PartitionResult part = partitionStages(server, cost, opts);
    plan.partition = std::move(part.partition);
    plan.estimate = std::move(part.estimate);
    plan.solveSeconds = part.solveSeconds;

    // 3. Map stages to GPUs.
    MOBIUS_PROF_ZONE("plan.mapping");
    if (opts.mapping == MappingAlgo::Cross) {
        MappingResult cross =
            crossMapping(server.topo, plan.stageCount());
        plan.mapping = std::move(cross.mapping);
        plan.mappingSeconds = cross.searchSeconds;
    } else {
        plan.mapping =
            sequentialMapping(server.topo, plan.stageCount());
        plan.mappingSeconds = 0.0;
    }
    return plan;
}

const char *
systemName(System system)
{
    switch (system) {
      case System::Mobius:         return "mobius";
      case System::DeepSpeed:      return "deepspeed";
      case System::GPipe:          return "gpipe";
      case System::DsPipeline:     return "dspipe";
      case System::TensorParallel: return "tp";
    }
    return "?";
}

System
parseSystem(const std::string &name)
{
    for (System s : kAllSystems)
        if (name == systemName(s))
            return s;
    fatal("unknown system '%s' (expected mobius, deepspeed, gpipe, "
          "dspipe or tp)",
          name.c_str());
}

StepStats
runStep(RunContext &ctx, System system, const CostModel &cost,
        const MobiusPlan *plan, const ExecutorOptions &opts)
{
    // Refuse inputs the system would not read rather than drop them.
    const char *name = systemName(system);
    if ((system == System::Mobius) != (plan != nullptr))
        fatal("a %s step %s", name,
              plan ? "takes no plan" : "needs a plan");
    if (system != System::Mobius &&
        opts.mobius != MobiusExecutorConfig{})
        fatal("a %s step does not read Mobius executor options",
              name);
    if (system != System::DeepSpeed &&
        opts.zero != ZeroExecutorConfig{})
        fatal("a %s step does not read ZeRO executor options", name);

    switch (system) {
      case System::Mobius: {
        MobiusExecutor exec(ctx, cost, plan->partition,
                            plan->mapping, opts.mobius);
        return exec.run();
      }
      case System::DeepSpeed: {
        ZeroHeteroExecutor exec(ctx, cost, opts.zero);
        return exec.run();
      }
      case System::GPipe:
      case System::DsPipeline: {
        const int n = ctx.numGpus();
        PipelineExecutor exec(ctx, cost,
                              balancedComputePartition(cost, n),
                              sequentialMapping(ctx.server().topo, n),
                              system == System::GPipe
                                  ? PipelineSchedule::GPipe
                                  : PipelineSchedule::OneFOneB);
        return exec.run();
      }
      case System::TensorParallel: {
        TensorParallelExecutor exec(ctx, cost);
        return exec.run();
      }
    }
    panic("unhandled system %d", static_cast<int>(system));
}

StepRunResult
runStep(System system, const Server &server, const CostModel &cost,
        const MobiusPlan *plan, const StepRunOptions &opts)
{
    RunContext ctx(server, opts);
    StepRunResult res;
    res.stats = runStep(ctx, system, cost, plan, opts.exec);
    res.spanCount = ctx.trace().spanCount();
    res.spanHash = spanFingerprint(ctx.trace());
    if (opts.traceOut)
        ctx.trace().moveInto(*opts.traceOut);
    return res;
}

StepRunResult
runMobiusStepEx(const Server &server, const CostModel &cost,
                const MobiusPlan &plan, const StepRunOptions &opts)
{
    return runStep(System::Mobius, server, cost, &plan, opts);
}

StepRunResult
runZeroStepEx(const Server &server, const CostModel &cost,
              const StepRunOptions &opts)
{
    return runStep(System::DeepSpeed, server, cost, nullptr, opts);
}

} // namespace mobius

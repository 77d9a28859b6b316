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
    model_ = std::make_unique<ModelDesc>(makeGptModel(cfg));
    train_.microbatchSize = microbatch_size > 0
        ? microbatch_size
        : cfg.microbatchSize;
    train_.numMicrobatches = num_microbatches > 0
        ? num_microbatches
        : server.topo.numGpus();
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
    env.avgBandwidth =
        opts.avgBandwidth > 0 ? opts.avgBandwidth : kPcie3x16Bw;
    PipelineCostEvaluator eval(cost, env);

    PartitionResult part;
    switch (opts.partition) {
      case PartitionAlgo::Mip:
        part = mipPartition(eval);
        break;
      case PartitionAlgo::ExactMip: {
        const int max_stages =
            opts.maxStages > 0 ? opts.maxStages : cost.numLayers();
        ExactMipResult exact = exactMipPartition(
            eval, max_stages, opts.mip, opts.metrics);
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
        ProfileResult prof = profileModel(cost, opts.profiler);
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

StepStats
runMobiusStep(const Server &server, const CostModel &cost,
              const MobiusPlan &plan, MobiusExecutorConfig exec_cfg,
              TransferEngineConfig xfer_cfg,
              double cpu_adam_throughput)
{
    StepRunOptions opts;
    opts.xfer = xfer_cfg;
    opts.mobius = exec_cfg;
    opts.cpuAdamThroughput = cpu_adam_throughput;
    return runMobiusStepEx(server, cost, plan, opts).stats;
}

StepRunResult
runMobiusStepEx(const Server &server, const CostModel &cost,
                const MobiusPlan &plan, const StepRunOptions &opts)
{
    RunContext ctx(server, opts.xfer, opts.cpuAdamThroughput,
                   opts.metrics, {}, opts.faults, opts.faultSeed);
    MobiusExecutor exec(ctx, cost, plan.partition, plan.mapping,
                        opts.mobius);
    StepRunResult res;
    res.stats = exec.run();
    res.spanCount = ctx.trace().spanCount();
    res.spanHash = spanFingerprint(ctx.trace());
    if (opts.traceOut)
        ctx.trace().moveInto(*opts.traceOut);
    return res;
}

StepStats
runZeroStep(const Server &server, const CostModel &cost,
            ZeroExecutorConfig cfg, TransferEngineConfig xfer_cfg,
            double cpu_adam_throughput)
{
    StepRunOptions opts;
    opts.xfer = xfer_cfg;
    opts.zero = cfg;
    opts.cpuAdamThroughput = cpu_adam_throughput;
    return runZeroStepEx(server, cost, opts).stats;
}

StepRunResult
runZeroStepEx(const Server &server, const CostModel &cost,
              const StepRunOptions &opts)
{
    RunContext ctx(server, opts.xfer, opts.cpuAdamThroughput,
                   opts.metrics, {}, opts.faults, opts.faultSeed);
    ZeroHeteroExecutor exec(ctx, cost, opts.zero);
    StepRunResult res;
    res.stats = exec.run();
    res.spanCount = ctx.trace().spanCount();
    res.spanHash = spanFingerprint(ctx.trace());
    if (opts.traceOut)
        ctx.trace().moveInto(*opts.traceOut);
    return res;
}

StepStats
runTensorParallelStep(const Server &server, const CostModel &cost,
                      TpExecutorConfig cfg,
                      TransferEngineConfig xfer_cfg)
{
    RunContext ctx(server, xfer_cfg);
    TensorParallelExecutor exec(ctx, cost, cfg);
    return exec.run();
}

StepStats
runPipelineStep(const Server &server, const CostModel &cost,
                PipelineSchedule schedule,
                TransferEngineConfig xfer_cfg)
{
    const int n = server.topo.numGpus();
    Partition partition = balancedComputePartition(cost, n);
    Mapping mapping = sequentialMapping(server.topo,
                                        static_cast<int>(n));
    RunContext ctx(server, xfer_cfg);
    PipelineExecutor exec(ctx, cost, std::move(partition),
                          std::move(mapping), schedule);
    return exec.run();
}

} // namespace mobius

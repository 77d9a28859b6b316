/**
 * @file
 * Partition playground: inspect what the partition algorithms
 * (§3.2, §4.3) produce for a custom GPT-like model, with the Eq. 3
 * objective and the executed step time side by side. The exact-MIP
 * row runs the faithful Eq. 3-11 branch-and-bound, which requires a
 * uniform layer stack; on models with distinct embedding/head layers
 * it reports why it cannot run instead of a partition.
 *
 * Usage: partition_playground [hidden] [blocks] [microbatch] [gpus]
 *                             [mip-max-nodes] [mip-threads]
 * e.g.:  partition_playground 4096 40 2 4 50000 0
 *
 * The last two arguments budget the exact Eq. 3-11 branch-and-bound
 * row: node limit per stage count (default 50000) and stage-sweep
 * worker threads (0 = one per core, default 1).
 */

#include <cstdio>
#include <cstdlib>

#include "runtime/api.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    GptConfig cfg;
    cfg.name = "custom";
    cfg.hidden = argc > 1 ? std::atoi(argv[1]) : 4096;
    cfg.numBlocks = argc > 2 ? std::atoi(argv[2]) : 40;
    cfg.microbatchSize = argc > 3 ? std::atoi(argv[3]) : 2;
    int gpus = argc > 4 ? std::atoi(argv[4]) : 4;
    int mip_max_nodes = argc > 5 ? std::atoi(argv[5]) : 50000;
    int mip_threads = argc > 6 ? std::atoi(argv[6]) : 1;
    cfg.heads = cfg.hidden / 128;
    if (cfg.hidden <= 0 || cfg.numBlocks <= 0 ||
        cfg.microbatchSize <= 0 || gpus <= 0 || cfg.heads <= 0 ||
        mip_max_nodes <= 0 || mip_threads < 0) {
        std::fprintf(stderr,
                     "usage: %s [hidden] [blocks] [microbatch] "
                     "[gpus] [mip-max-nodes] [mip-threads]\n",
                     argv[0]);
        return 1;
    }

    Server server = makeCommodityServer({gpus / 2 + gpus % 2,
                                         gpus / 2 == 0 ? 1
                                                       : gpus / 2});
    if (gpus == 1)
        server = makeCommodityServer({1});
    Workload work(cfg, server);
    std::printf("model: hidden %d, %d blocks, %.2fB params; "
                "mbs %d; %d GPUs\n\n",
                cfg.hidden, cfg.numBlocks,
                work.model().totalParams() / 1e9,
                cfg.microbatchSize, gpus);

    PipelineEnv env;
    env.numGpus = gpus;
    env.gpuMemBytes = server.topo.gpuSpec(0).memBytes;
    env.avgBandwidth = kPcie3x16Bw;
    PipelineCostEvaluator eval(work.cost(), env);

    struct Algo
    {
        const char *name;
        PartitionAlgo algo;
    };
    for (const Algo &a :
         {Algo{"MIP", PartitionAlgo::Mip},
          Algo{"exact MIP", PartitionAlgo::ExactMip},
          Algo{"maximum-stage", PartitionAlgo::MaxStage},
          Algo{"minimum-stage", PartitionAlgo::MinStage}}) {
        PlanOptions opts;
        opts.partition = a.algo;
        opts.mip.maxNodes =
            static_cast<std::uint64_t>(mip_max_nodes);
        opts.mip.threads = mip_threads;
        try {
            MobiusPlan plan = planMobius(server, work.cost(), opts);
            StepStats run =
                runStep(System::Mobius, server, work.cost(), &plan)
                    .stats;
            std::printf("%-14s %3d stages  est %6.2fs  "
                        "executed %6.2fs\n",
                        a.name, plan.stageCount(),
                        plan.estimate.stepTime, run.stepTime);
            std::printf("               sizes: %s\n",
                        partitionToString(plan.partition).c_str());
        } catch (const FatalError &e) {
            std::printf("%-14s infeasible: %s\n", a.name, e.what());
        }
    }

    std::printf("\nThe MIP partition balances stage compute against "
                "prefetch headroom\n(Eq. 4-11); maximum-stage fills "
                "GPU memory and loses all overlap;\nminimum-stage "
                "pays maximal activation traffic.\n");
    return 0;
}

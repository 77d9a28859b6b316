/**
 * @file
 * Ablations of Mobius's design choices (beyond the paper's own §4.3
 * and §4.4 ablations, which have their own harnesses):
 *
 *  1. stage granularity sweep — the tradeoff the MIP navigates;
 *  2. prefetch lookahead (0 / 1 / 2), split by contention regime;
 *  3. SSD-tier weight source — why §3.1 restricts offload to DRAM;
 *  4. resident forward tail — the fwd/bwd boundary reload bubble;
 *  5. activation checkpointing on/off — memory vs recompute;
 *  6. collective layer sync in the DeepSpeed baseline.
 */

#include "bench_util.hh"

using namespace mobius;

namespace
{

double
runWith(const Server &server, const Workload &work,
        const MobiusPlan &plan, MobiusExecutorConfig cfg)
{
    StepRunOptions opts;
    opts.exec.mobius = cfg;
    return runStep(System::Mobius, server, work.cost(), &plan, opts)
        .stats.stepTime;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Ablation 1: stage granularity (15B, mbs 4, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server, 4);
        std::printf("%8s %12s %16s\n", "stages", "step time",
                    "layers/stage");
        for (int stages : {43, 22, 15, 11, 8, 6, 5}) {
            MobiusPlan plan;
            plan.partition =
                uniformPartition(work.cost().numLayers(), stages);
            plan.mapping = crossMapping(server.topo, stages).mapping;
            try {
                double t = runWith(server, work, plan, {});
                std::printf("%8d %11.2fs %16.1f\n", stages, t,
                            43.0 / stages);
            } catch (const FatalError &) {
                std::printf("%8d %12s\n", stages, "OOM");
            }
        }
    }

    bench::section("Ablation 2: prefetch lookahead (15B, mbs 4)");
    {
        std::printf("%-24s %10s %10s %10s\n", "topology",
                    "lookahead0", "lookahead1", "lookahead2");
        for (const auto &groups :
             {std::vector<int>{1, 1, 1, 1}, std::vector<int>{2, 2},
              std::vector<int>{4}}) {
            Server server = makeCommodityServer(groups);
            Workload work(gpt15b(), server, 4);
            MobiusPlan plan;
            plan.partition =
                uniformPartition(work.cost().numLayers(), 11);
            plan.mapping = crossMapping(server.topo, 11).mapping;
            double t[3];
            for (int la = 0; la < 3; ++la) {
                MobiusExecutorConfig cfg;
                cfg.prefetchLookahead = la;
                t[la] = runWith(server, work, plan, cfg);
            }
            std::printf("%-24s %9.2fs %9.2fs %9.2fs\n",
                        server.name.c_str(), t[0], t[1], t[2]);
        }
        std::printf("(prefetch helps on uncontended links; under a "
                    "shared root complex its\nflows fair-share "
                    "bandwidth away from critical loads)\n");
    }

    bench::section("Ablation 3: weight source tier (15B, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server);
        MobiusPlan plan = planMobius(server, work.cost());
        std::printf("%-26s %12s\n", "source", "step time");
        struct Tier
        {
            const char *name;
            double cap;
        };
        for (const Tier &tier :
             {Tier{"DRAM (no cap)", 0.0},
              Tier{"NVMe RAID (6 GB/s)", 6e9},
              Tier{"NVMe (3 GB/s)", 3e9},
              Tier{"SATA SSD (0.5 GB/s)", 0.5e9}}) {
            MobiusExecutorConfig cfg;
            cfg.weightSourceRateCap = tier.cap;
            double t = runWith(server, work, plan, cfg);
            std::printf("%-26s %11.2fs\n", tier.name, t);
        }
        std::printf("(the paper's §3.1 rationale for DRAM-only "
                    "offload)\n");
    }

    bench::section("Ablation 4: resident forward tail (15B, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server);
        MobiusPlan plan = planMobius(server, work.cost());
        MobiusExecutorConfig keep;
        MobiusExecutorConfig reload;
        reload.keepResidentTail = false;
        std::printf("keep tail resident: %.2fs, reload at "
                    "boundary: %.2fs\n",
                    runWith(server, work, plan, keep),
                    runWith(server, work, plan, reload));
    }

    bench::section(
        "Ablation 5: activation checkpointing (15B, 2+2)");
    {
        Server server = makeCommodityServer({2, 2});
        for (bool ckpt : {true, false}) {
            Workload base(gpt15b(), server);
            TrainConfig tc = base.train();
            tc.activationCheckpointing = ckpt;
            ModelDesc model = makeGptModel(gpt15b());
            CostModel cost(model, server.topo.gpuSpec(0), tc);
            try {
                MobiusPlan plan = planMobius(server, cost);
                StepStats s =
                    runStep(System::Mobius, server, cost, &plan).stats;
                std::printf("checkpointing %-5s step %.2fs "
                            "(bwd/fwd compute ratio %.0f%%)\n",
                            ckpt ? "on" : "off", s.stepTime,
                            ckpt ? 300.0 : 200.0);
            } catch (const FatalError &e) {
                std::printf("checkpointing %-5s infeasible: %s\n",
                            ckpt ? "on" : "off", e.what());
            }
        }
    }

    bench::section("Ablation 6: DeepSpeed collective sync (15B)");
    {
        Server server = makeCommodityServer({2, 2});
        Workload work(gpt15b(), server);
        for (bool sync : {true, false}) {
            StepRunOptions opts;
            opts.exec.zero.layerSync = sync;
            StepStats s = runStep(System::DeepSpeed, server,
                                  work.cost(), nullptr, opts)
                              .stats;
            std::printf("layer sync %-5s step %.2fs\n",
                        sync ? "on" : "off", s.stepTime);
        }
    }
    return 0;
}

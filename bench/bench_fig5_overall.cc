/**
 * @file
 * Figure 5 (plus Table 3): per-step training time of GPipe,
 * DeepSpeed-pipeline, DeepSpeed-heterogeneous-memory and Mobius for
 * the four Table 3 models on GPU topologies 2+2, 1+3 and 4.
 *
 * Expected shape: GPipe and DeepSpeed-pipeline OOM beyond the 3B
 * model; Mobius is 3.8-5.1x faster than DeepSpeed with heterogeneous
 * memory; Mobius is nearly topology-insensitive while DeepSpeed
 * degrades as contention grows (Topo 4 worst).
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Table 3: model configurations");
    std::printf("%-10s %8s %8s %8s %12s\n", "model", "heads",
                "hidden", "layers", "microbatch");
    for (const auto &cfg : table3Models()) {
        std::printf("%-10s %8d %8d %8d %12d\n", cfg.name.c_str(),
                    cfg.heads, cfg.hidden, cfg.numBlocks,
                    cfg.microbatchSize);
    }

    bench::section("Figure 5: per-step time, 4x 3090-Ti");
    const std::vector<std::string> topos{"2+2", "1+3", "4"};
    for (const auto &cfg : table3Models()) {
        std::printf("\n--- %s ---\n", cfg.name.c_str());
        std::printf("%-10s %10s %14s %12s %10s %9s\n", "topo",
                    "GPipe", "DS-pipeline", "DS-hetero", "Mobius",
                    "speedup");
        for (const auto &topo : topos) {
            Server server =
                makeCommodityServer(parseTopoGroups(topo));
            auto gpipe = bench::runOrOom(System::GPipe, cfg, server);
            auto dspipe =
                bench::runOrOom(System::DsPipeline, cfg, server);
            auto ds = bench::run(System::DeepSpeed, cfg, server);
            auto mob = bench::run(System::Mobius, cfg, server);
            double speedup =
                ds.stats.stepTime / mob.stats.stepTime;
            std::printf("%-10s %10s %14s %12s %10s %8.2fx\n",
                        ("Topo " + topo).c_str(),
                        bench::cell(gpipe).c_str(),
                        bench::cell(dspipe).c_str(),
                        bench::cell(ds).c_str(),
                        bench::cell(mob).c_str(), speedup);
        }
    }
    return 0;
}

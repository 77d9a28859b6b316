/**
 * @file
 * Figure 8: proportion of per-step time that is communication not
 * overlapped by computation, DeepSpeed vs Mobius, 15B and 51B models
 * on topologies 4, 2+2 and 1+3.
 *
 * Expected shape: Mobius reduces the non-overlapped share by tens of
 * percentage points (paper: up to 46%), and overlaps best on Topo
 * 2+2 where cross mapping has the most freedom.
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 8: non-overlapped communication share");
    std::printf("%-10s %-10s %12s %12s %12s\n", "model", "topo",
                "DeepSpeed", "Mobius", "reduction");
    for (const auto &cfg : {gpt15b(), gpt51b()}) {
        for (const std::string topo : {"4", "2+2", "1+3"}) {
            Server server =
                makeCommodityServer(parseTopoGroups(topo));
            auto ds = bench::run(System::DeepSpeed, cfg, server);
            auto mob = bench::run(System::Mobius, cfg, server);
            double d = ds.stats.exposedCommFraction();
            double m = mob.stats.exposedCommFraction();
            std::printf("%-10s %-10s %11.1f%% %11.1f%% %11.1f%%\n",
                        cfg.name.c_str(), ("Topo " + topo).c_str(),
                        100 * d, 100 * m, 100 * (d - m));
        }
    }
    return 0;
}

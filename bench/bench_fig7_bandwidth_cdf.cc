/**
 * @file
 * Figure 7: GPU communication bandwidth CDFs of DeepSpeed and Mobius
 * for the 8B/15B/51B models across topologies 4, 2+2 and 1+3.
 *
 * Expected shape: Mobius moves more than half of its bytes above
 * 12 GB/s (max measured 13.1); DeepSpeed's mass sits near half of
 * the root-complex bandwidth.
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 7: bandwidth CDFs (quantiles)");
    for (const auto &cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        std::printf("\n--- %s ---\n", cfg.name.c_str());
        for (const std::string topo : {"4", "2+2", "1+3"}) {
            Server server =
                makeCommodityServer(parseTopoGroups(topo));
            auto ds = bench::run(System::DeepSpeed, cfg, server);
            auto mob = bench::run(System::Mobius, cfg, server);
            bench::printCdf("DeepSpeed Topo " + topo,
                            ds.stats.traffic.samples());
            bench::printCdf("Mobius    Topo " + topo,
                            mob.stats.traffic.samples());

            BandwidthCdf mc(mob.stats.traffic.samples());
            std::printf("  Mobius bytes above 12 GB/s: %.0f%%\n",
                        100.0 *
                            (1.0 - mc.fractionAtOrBelow(12e9)));
        }
    }
    return 0;
}

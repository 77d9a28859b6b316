/**
 * @file
 * Figure 11: per-step bandwidth CDFs under sequential vs cross
 * mapping, 8 GPUs (4+4), 8B with microbatch sizes 2/4/8 and 15B
 * with 1/2/3.
 *
 * Expected shape: with cross mapping more bytes move at higher
 * bandwidth (the CDF shifts right).
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 11: mapping bandwidth CDFs, 8 GPUs");
    Server server = makeCommodityServer({4, 4});

    struct Case
    {
        GptConfig cfg;
        std::vector<int> mbs;
    };
    for (const Case &c : {Case{gpt8b(), {2, 4, 8}},
                          Case{gpt15b(), {1, 2, 3}}}) {
        std::printf("\n--- %s ---\n", c.cfg.name.c_str());
        for (int mbs : c.mbs) {
            PlanOptions seq;
            seq.mapping = MappingAlgo::Sequential;
            PlanOptions cross;
            cross.mapping = MappingAlgo::Cross;
            auto rs =
                bench::run(System::Mobius, c.cfg, server, mbs, -1,
                           seq);
            auto rc =
                bench::run(System::Mobius, c.cfg, server, mbs, -1,
                           cross);
            std::printf(" mbs = %d\n", mbs);
            bench::printCdf("  sequential",
                            rs.stats.traffic.samples());
            bench::printCdf("  cross",
                            rc.stats.traffic.samples());
        }
    }
    return 0;
}

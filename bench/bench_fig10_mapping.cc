/**
 * @file
 * Figure 10: per-step time of cross mapping vs sequential mapping on
 * the 8-GPU server (four GPUs per root complex). 8B with microbatch
 * sizes 2/4/8 and 15B with 1/2/3.
 *
 * Expected shape: cross mapping is ~11-18% faster; the gain shrinks
 * as blocks/microbatches grow (compute starts to dominate).
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 10: cross vs sequential mapping, 8 GPUs");
    Server server = makeCommodityServer({4, 4});

    struct Case
    {
        GptConfig cfg;
        std::vector<int> mbs;
    };
    for (const Case &c : {Case{gpt8b(), {2, 4, 8}},
                          Case{gpt15b(), {1, 2, 3}}}) {
        std::printf("\n--- %s ---\n", c.cfg.name.c_str());
        std::printf("%4s %14s %14s %14s\n", "mbs", "sequential",
                    "cross", "cross/seq");
        for (int mbs : c.mbs) {
            PlanOptions seq;
            seq.mapping = MappingAlgo::Sequential;
            PlanOptions cross;
            cross.mapping = MappingAlgo::Cross;
            double ts = bench::run(System::Mobius, c.cfg, server,
                                   mbs, -1, seq)
                            .stats.stepTime;
            double tc = bench::run(System::Mobius, c.cfg, server,
                                   mbs, -1, cross)
                            .stats.stepTime;
            std::printf("%4d %13.2fs %13.2fs %13.3f\n", mbs, ts,
                        tc, tc / ts);
        }
    }
    return 0;
}

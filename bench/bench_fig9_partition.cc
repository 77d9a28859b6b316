/**
 * @file
 * Figure 9: per-step time under the three model partition
 * algorithms (MIP, maximum-stage, minimum-stage), normalized to the
 * MIP partition algorithm. 8B with microbatch sizes 2/4/8 and 15B
 * with 1/2/3, on Topo 2+2.
 *
 * Expected shape: the MIP partition is never slower; maximum-stage
 * is usually worst (no prefetch headroom); minimum-stage approaches
 * MIP when blocks/microbatches are large.
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 9: partition algorithm ablation");
    Server server = makeCommodityServer({2, 2});

    struct Case
    {
        GptConfig cfg;
        std::vector<int> mbs;
    };
    for (const Case &c : {Case{gpt8b(), {2, 4, 8}},
                          Case{gpt15b(), {1, 2, 3}}}) {
        std::printf("\n--- %s ---\n", c.cfg.name.c_str());
        std::printf("%4s %10s %12s %12s %18s %18s\n", "mbs", "MIP",
                    "max-stage", "min-stage", "max/MIP", "min/MIP");
        for (int mbs : c.mbs) {
            auto run = [&](PartitionAlgo algo) {
                PlanOptions opts;
                opts.partition = algo;
                return bench::run(System::Mobius, c.cfg, server,
                                  mbs, -1, opts)
                    .stats.stepTime;
            };
            double mip = run(PartitionAlgo::Mip);
            double maxs = run(PartitionAlgo::MaxStage);
            double mins = run(PartitionAlgo::MinStage);
            std::printf("%4d %9.2fs %11.2fs %11.2fs %17.2fx "
                        "%17.2fx\n",
                        mbs, mip, maxs, mins, maxs / mip,
                        mins / mip);
        }
    }
    return 0;
}

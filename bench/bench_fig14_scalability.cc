/**
 * @file
 * Figure 14: Mobius scalability — throughput training the 15B model
 * with 2..16 GPUs, microbatch size 1, batch size = #GPUs, half the
 * GPUs per CPU root complex. The paper stops at 8 GPUs; 9..16 extend
 * the sweep to an 8+8 server.
 *
 * Expected shape: measured throughput meets or exceeds perfect
 * linear scaling (per-GPU stage count falls as GPUs are added), with
 * a slight dip when the GPUs cannot split evenly across the two root
 * complexes.
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 14: scalability on the commodity server");
    std::printf("%6s %12s %16s %18s\n", "GPUs", "step time",
                "samples/s", "vs linear from 2");
    double base = 0.0;
    for (int gpus = 2; gpus <= 16; ++gpus) {
        Server server =
            makeCommodityServer({gpus / 2, gpus - gpus / 2});
        auto r = bench::runMobius(gpt15b(), server, 1, gpus);
        double throughput = gpus / r.stats.stepTime;
        if (gpus == 2)
            base = throughput / 2.0;
        std::printf("%6d %11.2fs %16.3f %17.2fx\n", gpus,
                    r.stats.stepTime, throughput,
                    throughput / (base * gpus));
    }
    return 0;
}

/**
 * @file
 * Figure 2: GPU communication bandwidth CDF of DeepSpeed fine-tuning
 * the 15B model on a 4x3090-Ti server where every two GPUs share a
 * CPU root complex.
 *
 * Expected shape: most bytes move at about half the root-complex
 * bandwidth (~6.5 of 13.1 GB/s) because of contention.
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section(
        "Figure 2: DeepSpeed bandwidth CDF, 15B on 4x3090-Ti (2+2)");
    Server server = makeCommodityServer({2, 2});
    auto r = bench::run(System::DeepSpeed, gpt15b(), server);

    BandwidthCdf cdf(r.stats.traffic.samples());
    std::printf("%10s %10s\n", "GB/s", "CDF");
    for (double bw = 1.0; bw <= 14.0; bw += 1.0) {
        std::printf("%10.1f %10.3f\n", bw,
                    cdf.fractionAtOrBelow(bw * 1e9));
    }
    std::printf("\nmedian %.2f GB/s, max %.2f GB/s "
                "(link peak %.1f GB/s)\n",
                cdf.quantile(0.5) / 1e9, cdf.maxBandwidth() / 1e9,
                kPcie3x16Bw / 1e9);
    std::printf("fraction of bytes at <= half the link peak: %.2f\n",
                cdf.fractionAtOrBelow(kPcie3x16Bw / 2 * 1.05));
    return 0;
}

/**
 * @file
 * Figure 6: communication traffic of DeepSpeed and Mobius for the
 * 8B/15B/51B models, against the model parameter size.
 *
 * Expected shape: DeepSpeed moves ~1.5N x the model size (~6x at
 * N=4; the paper measures 7.3x with framework overheads), Mobius
 * ~1.5-1.8x.
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 6: communication traffic per step");
    Server server = makeCommodityServer({2, 2});
    std::printf("%-10s %14s %14s %14s %9s %9s\n", "model",
                "model size", "DeepSpeed", "Mobius", "DS ratio",
                "Mob ratio");
    for (const auto &cfg : {gpt8b(), gpt15b(), gpt51b()}) {
        Workload work(cfg, server);
        Bytes p32 = work.model().totalParamBytesFp32();
        auto ds = bench::run(System::DeepSpeed, cfg, server);
        auto mob = bench::run(System::Mobius, cfg, server);
        std::printf("%-10s %14s %14s %14s %8.2fx %8.2fx\n",
                    cfg.name.c_str(), formatBytes(p32).c_str(),
                    formatBytes(ds.stats.traffic.totalBytes())
                        .c_str(),
                    formatBytes(mob.stats.traffic.totalBytes())
                        .c_str(),
                    ds.stats.trafficRatio(p32),
                    mob.stats.trafficRatio(p32));
    }

    std::printf("\nMobius traffic breakdown (15B):\n");
    auto mob = bench::run(System::Mobius, gpt15b(), server);
    for (auto kind :
         {TrafficKind::Parameter, TrafficKind::Activation,
          TrafficKind::ActivationGrad, TrafficKind::Gradient}) {
        std::printf("  %-16s %14s\n", trafficKindName(kind),
                    formatBytes(mob.stats.traffic.bytesOf(kind))
                        .c_str());
    }
    return 0;
}

/**
 * @file
 * Figure 16: GPU-CPU communication bandwidth CDF on the data-center
 * server (NVLink flows excluded), DeepSpeed vs Mobius, 8B and 15B
 * models with microbatch size 2.
 *
 * Each cell is a fleet JobSpec run through fleet/job.hh
 * simulateJobStep() — the same job description bench_fleet drives
 * at scale (see bench_fig15_datacenter.cc).
 *
 * Expected shape: the contention gap between the systems narrows
 * (DeepSpeed's collectives moved to NVLink), but Mobius still shows
 * less host-link contention because fewer stage transfers coincide.
 */

#include "bench_util.hh"

#include "fleet/job.hh"

using namespace mobius;

namespace
{

/** Step stats of one DC fleet job (they carry the traffic CDF). */
StepStats
runDcJob(const GptConfig &cfg, System system, PlanCache &cache)
{
    JobSpec spec;
    spec.model = cfg;
    spec.system = system;
    spec.dataCenter = true;
    spec.groups = {4};
    spec.microbatchSize = 2;
    return simulateJobStep(spec, &cache).stats;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 16: GPU-CPU bandwidth CDF on DC server");
    PlanCache cache;
    for (const auto &cfg : {gpt8b(), gpt15b()}) {
        std::printf("\n--- %s ---\n", cfg.name.c_str());
        StepStats ds = runDcJob(cfg, System::DeepSpeed, cache);
        StepStats mob = runDcJob(cfg, System::Mobius, cache);
        auto ds_host = bench::hostSamples(ds);
        auto mob_host = bench::hostSamples(mob);
        bench::printCdf("DeepSpeed (host flows)", ds_host);
        bench::printCdf("Mobius    (host flows)", mob_host);

        BandwidthCdf dcdf(ds_host), mcdf(mob_host);
        std::printf("  median host bandwidth: DS %.1f GB/s vs "
                    "Mobius %.1f GB/s\n",
                    dcdf.quantile(0.5) / 1e9,
                    mcdf.quantile(0.5) / 1e9);

        // The contention *volume* gap narrows on the DC server: most
        // of DeepSpeed's collectives moved onto NVLink.
        auto host_bytes = [](const std::vector<BandwidthSample> &v) {
            Bytes total = 0;
            for (const auto &s : v)
                total += s.bytes;
            return total;
        };
        std::printf("  host-link traffic: DS %s vs Mobius %s\n",
                    formatBytes(host_bytes(ds_host)).c_str(),
                    formatBytes(host_bytes(mob_host)).c_str());
    }
    return 0;
}

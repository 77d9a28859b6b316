/**
 * @file
 * Topology explorer: how does the GPU topology of a shared server
 * affect fine-tuning throughput?
 *
 * Sweeps root-complex groupings of a commodity box for a chosen
 * model, runs Mobius (with cross and with sequential mapping) and
 * DeepSpeed on each, and prints a comparison — the §2.2/§3.3 story
 * in one table.
 *
 * Usage: topology_explorer [8b|15b|51b]
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include "runtime/api.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    GptConfig cfg = gpt15b();
    if (argc > 1) {
        if (!std::strcmp(argv[1], "8b"))
            cfg = gpt8b();
        else if (!std::strcmp(argv[1], "15b"))
            cfg = gpt15b();
        else if (!std::strcmp(argv[1], "51b"))
            cfg = gpt51b();
        else {
            std::fprintf(stderr,
                         "usage: %s [8b|15b|51b]\n", argv[0]);
            return 1;
        }
    }

    std::printf("model: %s\n\n", cfg.name.c_str());
    std::printf("%-12s %12s %14s %14s %12s\n", "topology",
                "DeepSpeed", "Mobius(seq)", "Mobius(cross)",
                "speedup");

    const std::vector<std::vector<int>> groupings{
        {4}, {1, 3}, {2, 2}, {1, 1, 2}, {1, 1, 1, 1},
        {4, 4}, {2, 2, 2, 2}};
    for (const auto &groups : groupings) {
        Server server = makeCommodityServer(groups);
        Workload work(cfg, server);

        StepStats ds =
            runStep(System::DeepSpeed, server, work.cost()).stats;

        PlanOptions seq;
        seq.mapping = MappingAlgo::Sequential;
        MobiusPlan seq_plan = planMobius(server, work.cost(), seq);
        StepStats mob_seq =
            runStep(System::Mobius, server, work.cost(), &seq_plan)
                .stats;

        MobiusPlan cross_plan = planMobius(server, work.cost());
        StepStats mob_cross =
            runStep(System::Mobius, server, work.cost(), &cross_plan)
                .stats;

        std::string name;
        for (std::size_t i = 0; i < groups.size(); ++i) {
            if (i)
                name += "+";
            name += std::to_string(groups[i]);
        }
        std::printf("%-12s %11.2fs %13.2fs %13.2fs %11.2fx\n",
                    ("Topo " + name).c_str(), ds.stepTime,
                    mob_seq.stepTime, mob_cross.stepTime,
                    ds.stepTime / mob_cross.stepTime);
    }

    std::printf("\nNotes: every group of GPUs shares one CPU root "
                "complex; more GPUs per\ngroup means more "
                "contention. Cross mapping recovers throughput by\n"
                "spreading adjacent stages across root complexes "
                "(§3.3).\n");
    return 0;
}

/**
 * @file
 * Figure 15: per-step training time and per-step price of DeepSpeed
 * and Mobius on the data-center server (4x V100 + NVLink, EC2
 * p3.8xlarge pricing) and the commodity 3090-Ti server. 8B and 15B
 * models with microbatch size 2.
 *
 * The cells are fleet jobs: each (model, server, system) run is a
 * fleet JobSpec executed by fleet/job.hh simulateJobStep() — the
 * same description struct and step path bench_fleet drives at
 * scale, so this figure and the fleet bench cannot drift apart.
 *
 * Expected shape: both systems speed up on the DC server; DeepSpeed
 * gains more (its all-to-all collectives ride NVLink) and beats
 * Mobius there; Mobius on the commodity box trades moderately more
 * time for a much lower price per step than DeepSpeed on the DC box.
 */

#include "bench_util.hh"

#include "fleet/job.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Figure 15: data-center vs commodity server");
    Server dc = makeDataCenterServer(4);
    Server com = makeCommodityServer({2, 2});
    std::printf("(DC = %s @ $%.2f/h, C = %s @ $%.2f/h)\n",
                dc.name.c_str(), dc.dollarsPerHour,
                com.name.c_str(), com.dollarsPerHour);

    std::printf("\n(a) per-step time\n");
    std::printf("%-10s %14s %12s %14s %12s\n", "model", "DS (DC)",
                "DS (C)", "Mobius (DC)", "Mobius (C)");
    struct Cell
    {
        double t, price;
    };
    PlanCache cache;
    auto run = [&](const GptConfig &cfg, bool on_dc,
                   System system) {
        JobSpec spec;
        spec.model = cfg;
        spec.system = system;
        spec.dataCenter = on_dc;
        spec.groups = on_dc ? std::vector<int>{4}
                            : std::vector<int>{2, 2};
        spec.microbatchSize = 2;
        JobStepResult r = simulateJobStep(spec, &cache);
        double price = r.stats.stepTime / 3600.0 *
            buildJobServer(spec).dollarsPerHour;
        return Cell{r.stats.stepTime, price};
    };
    std::vector<std::vector<Cell>> cells;
    for (const auto &cfg : {gpt8b(), gpt15b()}) {
        std::vector<Cell> row{
            run(cfg, true, System::DeepSpeed),
            run(cfg, false, System::DeepSpeed),
            run(cfg, true, System::Mobius),
            run(cfg, false, System::Mobius)};
        std::printf("%-10s %13.2fs %11.2fs %13.2fs %11.2fs\n",
                    cfg.name.c_str(), row[0].t, row[1].t, row[2].t,
                    row[3].t);
        cells.push_back(row);
    }

    std::printf("\n(b) per-step price\n");
    std::printf("%-10s %14s %12s %14s %12s\n", "model", "DS (DC)",
                "DS (C)", "Mobius (DC)", "Mobius (C)");
    const char *names[2] = {"GPT-8B", "GPT-15B"};
    for (int i = 0; i < 2; ++i) {
        std::printf("%-10s %13.5f$ %11.5f$ %13.5f$ %11.5f$\n",
                    names[i], cells[i][0].price, cells[i][1].price,
                    cells[i][2].price, cells[i][3].price);
    }

    std::printf("\nMobius(C) vs DeepSpeed(DC):\n");
    for (int i = 0; i < 2; ++i) {
        double dt =
            (cells[i][3].t - cells[i][0].t) / cells[i][0].t;
        double dp = (cells[i][3].price - cells[i][0].price) /
            cells[i][0].price;
        std::printf("  %-10s time %+5.0f%%, price %+5.0f%%\n",
                    names[i], 100 * dt, 100 * dp);
    }
    return 0;
}

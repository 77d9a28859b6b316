/**
 * @file
 * bench_attribution — causal blame-table tracking (see the DESIGN
 * causal-tracing section and EXPERIMENTS.md "BENCH_attribution.json").
 *
 * Runs Mobius vs the DeepSpeed (ZeRO-3 + hetero memory) baseline and
 * cross vs sequential mapping *on the same partition* on the paper's
 * 8-GPU commodity server (two root complexes, four GPUs each), then
 * attributes every step's time along the critical path of the span
 * DAG (obs/critical_path.hh) and emits BENCH_attribution.json so the
 * attribution shape is tracked across PRs.
 *
 * Usage: bench_attribution [--quick] [--out FILE]
 *
 *   --quick   the small model only (seconds; this is the tier-1
 *             ctest smoke). Exits nonzero when the attribution
 *             categories do not sum to the step time within 1e-6 s,
 *             or when cross mapping does not show strictly lower
 *             contention-queue wait than sequential mapping on the
 *             same partition.
 *   --out     JSON output path (default BENCH_attribution.json in
 *             the working directory).
 *
 * Expected shape: the Mobius critical path is mostly compute with
 * the remainder split between transfer and contention queue wait
 * (Fig. 8's overlap claim); the ZeRO baseline's path is dominated by
 * queue wait (per-layer gathers colliding on the root complexes);
 * and cross mapping strictly reduces total contention-queue wait
 * versus sequential mapping (Eq. 12-13, Fig. 10's claim, stated
 * causally rather than as an end-to-end time).
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/args.hh"
#include "bench_util.hh"
#include "obs/critical_path.hh"

using namespace mobius;

namespace
{

/** Categories must cover [0, stepTime] to within this (seconds). */
constexpr double kSumTolerance = 1e-6;

/** One executed step plus its critical-path attribution. */
struct AttribResult
{
    std::string system;  //!< "mobius" | "deepspeed"
    std::string mapping; //!< "cross" | "seq" | "" (n/a)
    std::string model;
    StepStats stats;
    StepAttribution attrib;
};

/**
 * Run one step of @p system (Mobius on @p plan, which may carry a
 * hand-picked mapping) and attribute it.
 */
AttribResult
runAttrib(System system, const GptConfig &cfg, const Server &server,
          const MobiusPlan *plan = nullptr,
          const std::string &mapping_name = "")
{
    Workload work(cfg, server);
    RunContext ctx(server);
    AttribResult r;
    r.system = systemName(system);
    r.mapping = mapping_name;
    r.model = cfg.name;
    r.stats = runStep(ctx, system, work.cost(), plan);
    r.attrib = attributeStep(ctx.trace());
    return r;
}

/** @return whether the blame table covers the step exactly. */
bool
sumsToStepTime(const AttribResult &r)
{
    return std::fabs(r.attrib.critical.total() -
                     r.attrib.stepTime) <= kSumTolerance;
}

/** Print one run as a row of the blame-share table. */
void
printRow(const AttribResult &r)
{
    const AttributionBreakdown &b = r.attrib.critical;
    double t = r.attrib.stepTime > 0 ? r.attrib.stepTime : 1.0;
    std::printf("  %-4s %-10s %-6s %9.3fs %7.1f%% %7.1f%% %7.1f%% "
                "%7.1f%% %7.1f%% %11.3fs%s\n",
                r.model.c_str(), r.system.c_str(),
                r.mapping.empty() ? "-" : r.mapping.c_str(),
                r.attrib.stepTime, 100 * b.compute / t,
                100 * b.transfer / t, 100 * b.queue / t,
                100 * (b.optimizer + b.other) / t,
                100 * b.bubble / t, r.attrib.totalQueueWait,
                sumsToStepTime(r) ? "" : "  SUM MISMATCH");
}

/** Serialise one run for BENCH_attribution.json. */
std::string
runJson(const AttribResult &r)
{
    std::string json = "{\"system\":\"" + r.system + "\"";
    if (!r.mapping.empty())
        json += ",\"mapping\":\"" + r.mapping + "\"";
    json += ",\"model\":\"" + r.model + "\"";
    json += strfmt(",\"step_time\":%.17g", r.stats.stepTime);
    json += ",\"attribution\":" + attributionToJson(r.attrib, 5);
    json += "}";
    return json;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        const bool quick = args.has("quick");
        const std::string out =
            args.get("out", "BENCH_attribution.json");
        args.rejectUnused();

        bench::section(
            "Attribution: critical-path blame, 8-GPU server");
        Server server = makeCommodityServer({4, 4});

        std::vector<GptConfig> models = {gpt3b()};
        if (!quick)
            models.push_back(gpt8b());

        std::printf("\n  %-4s %-10s %-6s %10s %8s %8s %8s %8s %8s "
                    "%12s\n",
                    "mdl", "system", "map", "step", "compute",
                    "transfer", "queue", "optim", "bubble",
                    "queue-wait");

        std::vector<AttribResult> runs;
        bool cross_lt_seq = true;
        for (const GptConfig &cfg : models) {
            // One partition, two mappings: the Eq. 12-13 claim is
            // about GPU placement, so hold the stage split fixed.
            // planMobius() maps by cross mapping by default.
            Workload work(cfg, server);
            MobiusPlan plan = planMobius(server, work.cost());
            MobiusPlan seq = plan;
            seq.mapping =
                sequentialMapping(server.topo, plan.stageCount());

            AttribResult rSeq =
                runAttrib(System::Mobius, cfg, server, &seq, "seq");
            AttribResult rCross = runAttrib(System::Mobius, cfg,
                                            server, &plan, "cross");
            AttribResult rZero =
                runAttrib(System::DeepSpeed, cfg, server);
            printRow(rSeq);
            printRow(rCross);
            printRow(rZero);

            if (rCross.attrib.totalQueueWait >=
                rSeq.attrib.totalQueueWait) {
                cross_lt_seq = false;
                std::printf("  ** %s: cross mapping queue wait "
                            "%.6fs is not below sequential's "
                            "%.6fs\n",
                            cfg.name.c_str(),
                            rCross.attrib.totalQueueWait,
                            rSeq.attrib.totalQueueWait);
            }
            runs.push_back(std::move(rSeq));
            runs.push_back(std::move(rCross));
            runs.push_back(std::move(rZero));
        }

        bool sum_ok = true;
        for (const AttribResult &r : runs)
            sum_ok = sum_ok && sumsToStepTime(r);

        std::printf("\n  categories sum to step time (<= %g s): %s\n",
                    kSumTolerance, sum_ok ? "yes" : "NO");
        std::printf("  cross queue wait < sequential:          %s\n",
                    cross_lt_seq ? "yes" : "NO");

        std::string json = "{\n  \"schema\": \"mobius-bench/1\",\n  \"quick\": ";
        json += quick ? "true" : "false";
        json += strfmt(",\n  \"sum_tolerance_seconds\": %g",
                       kSumTolerance);
        json += ",\n  \"sum_ok\": ";
        json += sum_ok ? "true" : "false";
        json += ",\n  \"cross_queue_wait_below_seq\": ";
        json += cross_lt_seq ? "true" : "false";
        json += ",\n  \"runs\": [";
        for (std::size_t i = 0; i < runs.size(); ++i) {
            json += i ? ",\n    " : "\n    ";
            json += runJson(runs[i]);
        }
        json += "\n  ]\n}\n";

        std::ofstream os(out);
        os << json;
        if (!os)
            fatal("cannot write '%s'", out.c_str());
        std::printf("\n  wrote %s\n", out.c_str());

        return sum_ok && cross_lt_seq ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

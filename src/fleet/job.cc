#include "fleet/job.hh"

#include <chrono>
#include <numeric>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

int
jobGpus(const JobSpec &spec)
{
    return std::accumulate(spec.groups.begin(), spec.groups.end(),
                           0);
}

Server
buildJobServer(const JobSpec &spec)
{
    if (spec.dataCenter)
        return makeDataCenterServer(jobGpus(spec));
    return makeCommodityServer(spec.groups);
}

namespace
{

/** Resolved (never -1) microbatch size. */
int
resolvedMbs(const JobSpec &spec)
{
    return spec.microbatchSize > 0 ? spec.microbatchSize
                                   : spec.model.microbatchSize;
}

/** Resolved (never -1) microbatch count: M = N by default (§3.1). */
int
resolvedNmb(const JobSpec &spec)
{
    return spec.numMicrobatches > 0 ? spec.numMicrobatches
                                    : jobGpus(spec);
}

} // namespace

std::string
jobPlanKey(const JobSpec &spec)
{
    // Every input planMobius() reads, in a fixed order. The model's
    // display name is deliberately excluded (it does not shape the
    // layer stack); everything dimensional is included.
    std::string groups;
    for (int g : spec.groups)
        groups += strfmt("%d,", g);
    return strfmt(
        "model:h%d w%d b%d v%d s%d|topo:%s[%s]|train:mbs%d nmb%d|"
        "plan:p%d m%d",
        spec.model.heads, spec.model.hidden, spec.model.numBlocks,
        spec.model.vocab, spec.model.seqLen,
        spec.dataCenter ? "dc" : "commodity", groups.c_str(),
        resolvedMbs(spec), resolvedNmb(spec),
        static_cast<int>(spec.partition),
        static_cast<int>(spec.mapping));
}

std::string
jobSimKey(const JobSpec &spec)
{
    return strfmt("%s|sys:%s|seed:%llu", jobPlanKey(spec).c_str(),
                  systemName(spec.system),
                  static_cast<unsigned long long>(spec.faultSeed));
}

JobStepResult
simulateJobStep(const JobSpec &spec, PlanCache *cache,
                const FaultPlan *faults, TraceRecorder *trace_out,
                bool bandwidth_samples)
{
    using clock = std::chrono::steady_clock;

    Server server = buildJobServer(spec);
    Workload work(spec.model, server, spec.microbatchSize,
                  spec.numMicrobatches);

    JobStepResult res;
    const bool mobius = spec.system == System::Mobius;
    if (mobius) {
        PlanOptions popts;
        popts.partition = spec.partition;
        popts.mapping = spec.mapping;
        double solve_seconds = 0.0;
        auto solve = [&] {
            MOBIUS_PROF_ZONE("fleet.plan_miss");
            auto t0 = clock::now();
            MobiusPlan plan = planMobius(server, work.cost(), popts);
            solve_seconds =
                std::chrono::duration<double>(clock::now() - t0)
                    .count();
            return plan;
        };
        if (cache) {
            bool hit = false;
            res.plan = cache->get(jobPlanKey(spec), solve, &hit);
            res.planCacheHit = hit;
        } else {
            res.plan = solve();
        }
        // solve_seconds stays 0 on a hit (or when another in-flight
        // get() solved first) — exactly the wall this job did not
        // pay.
        res.planSeconds = solve_seconds;
    }

    StepRunOptions run;
    run.faults = faults;
    run.faultSeed = spec.faultSeed;
    run.traceOut = trace_out;
    run.xfer.bandwidthSamples = bandwidth_samples;
    StepRunResult step = runStep(spec.system, server, work.cost(),
                                 mobius ? &res.plan : nullptr, run);
    res.stats = std::move(step.stats);
    res.spanCount = step.spanCount;
    res.spanHash = step.spanHash;
    return res;
}

} // namespace mobius

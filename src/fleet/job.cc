#include "fleet/job.hh"

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

MobiusPlan
planJob(const JobSpec &spec)
{
    Server server = buildJobServer(spec);
    Workload work(spec.model, server, spec.microbatchSize,
                  spec.numMicrobatches);
    PlanOptions popts;
    popts.partition = spec.partition;
    popts.mapping = spec.mapping;
    MOBIUS_PROF_ZONE("fleet.plan");
    return planMobius(server, work.cost(), popts);
}

JobStepResult
runJobStep(const JobSpec &spec, const MobiusPlan *plan,
           const FaultPlan *faults, TraceRecorder *trace_out,
           bool bandwidth_samples)
{
    Server server = buildJobServer(spec);
    Workload work(spec.model, server, spec.microbatchSize,
                  spec.numMicrobatches);
    StepRunOptions run;
    run.faults = faults;
    run.faultSeed = spec.faultSeed;
    run.traceOut = trace_out;
    run.xfer.bandwidthSamples = bandwidth_samples;
    StepRunResult step =
        runStep(spec.system, server, work.cost(), plan, run);
    JobStepResult res;
    res.stats = std::move(step.stats);
    res.spanCount = step.spanCount;
    res.spanHash = step.spanHash;
    return res;
}

const MobiusPlan &
PlanCache::get(const JobSpec &spec)
{
    std::string key = jobPlanKey(spec);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
        ++hits_;
        return it->second;
    }
    return plans_.emplace(std::move(key), planJob(spec)).first->second;
}

JobStepResult
simulateJobStep(const JobSpec &spec, PlanCache *cache,
                const FaultPlan *faults, TraceRecorder *trace_out,
                bool bandwidth_samples)
{
    const bool mobius = spec.system == System::Mobius;
    MobiusPlan plan;
    if (mobius)
        plan = cache ? cache->get(spec) : planJob(spec);
    JobStepResult res = runJobStep(spec, mobius ? &plan : nullptr,
                                   faults, trace_out,
                                   bandwidth_samples);
    res.plan = std::move(plan);
    return res;
}

} // namespace mobius

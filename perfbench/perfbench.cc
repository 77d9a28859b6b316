/**
 * @file
 * perfbench — host-time benchmark of the simulator (see README.md).
 *
 * One process runs one workload as a closed loop: one client, and the
 * next op starts when the previous one ends, until --seconds of host
 * time have passed. Every op calls the libraries' public functions
 * only, checks its simulated output, and is timed from here.
 *
 * With --trace 1 every other op is traced: a span is recorded around
 * each layer call the op makes. After a traced op, a probe re-runs the
 * layer calls the op made inside the library (fleet step simulations,
 * planner misses, the serving plan) on the op's own inputs, under
 * spans of their own; probe time is never op time. Spans stay in
 * memory and are printed when the run ends.
 *
 *     perfbench --workload train_4p4|fleet_mix|serve_51b --seed N
 *               --seconds S [--trace 0|1] [--digests FILE]
 *               [--t0-ns NS] [--setup-only] [--record-digests]
 *
 * Between ops, every 0.25 s, it times a fixed calibration kernel of
 * its own (calibrationNs), so that run.py can scale host times by the
 * host's current speed.
 *
 * Prints one JSON object (raw samples, spans, counters) on stdout;
 * run.py turns it into the benchmark's metrics. --setup-only stops
 * before the first timed op and prints the set-up time and a
 * calibration sample alone.
 * --record-digests prints one "workload seed kind digest" line per
 * op kind, the format of digests.tsv.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/args.hh"
#include "base/logging.hh"
#include "fleet/fleet_sim.hh"
#include "obs/critical_path.hh"
#include "runtime/api.hh"
#include "serve/serve_sim.hh"
#include "simcore/trace.hh"

using namespace mobius;

namespace
{

/** Drift allowed between a breakdown's categories and its total. */
constexpr double kMaxSumDrift = 1e-9;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Peak resident set of this process image, in KiB (VmHWM; unlike
 *  getrusage's maxrss it does not inherit the spawning process's). */
long
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stol(line.substr(6));
    fatal("no VmHWM in /proc/self/status");
}

std::int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
        ts.tv_nsec;
}

// ---------------------------------------------------------------
// Host-speed calibration
// ---------------------------------------------------------------

constexpr int kCalAluSteps = 1000000;
constexpr int kCalMapSteps = 20000;
/** Host time between calibration samples in the timed loop. */
constexpr std::int64_t kCalEveryNs = 250000000;
volatile std::uint64_t calSink = 0;

/**
 * Host ns of a fixed reference kernel: the geometric mean of an
 * integer-ALU loop and a std::map churn loop, about 2 ms each. The
 * shared hosts this runs on change speed by a third over minutes as
 * other tenants come and go; ALU speed and allocator/cache speed
 * move by different amounts, and the simulator sits between them.
 * The kernel is the benchmark's own code, so its time tracks the host
 * and not the simulator; run.py scales host times by it.
 */
double
calibrationNs()
{
    const std::int64_t a = nowNs();
    std::uint64_t x = 88172645463325252ULL, h = 0;
    for (int k = 0; k < kCalAluSteps; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h += x * (h | 1);
    }
    const std::int64_t b = nowNs();
    std::map<std::uint64_t, std::uint64_t> m;
    std::uint64_t y = 1;
    for (int k = 0; k < kCalMapSteps; ++k) {
        y = y * 6364136223846793005ULL + 1442695040888963407ULL;
        m[y >> 40] = static_cast<std::uint64_t>(k);
        if (m.size() > 4096)
            m.erase(m.begin());
    }
    for (const auto &[key, value] : m)
        h += key ^ value;
    const std::int64_t c = nowNs();
    calSink = h;
    return std::sqrt(static_cast<double>(b - a) *
                     static_cast<double>(c - b));
}

// ---------------------------------------------------------------
// Spans
// ---------------------------------------------------------------

/** The layer calls a span can wrap; names follow the src/ modules. */
enum Layer : int
{
    kOp,
    kProbe,
    kWorkload,
    kProfile,
    kPartition,
    kMapping,
    kStep,
    kFingerprint,
    kCriticalPath,
    kFleetSetup,
    kFleetRun,
    kFleetStepSim,
    kServeSetup,
    kServePlan,
    kServeRun,
    kLayerCount
};

const char *const kLayerNames[kLayerCount] = {
    "op",           "probe",          "model.workload",
    "plan.profile", "plan.partition", "plan.mapping",
    "runtime.step", "simcore.fingerprint", "obs.critical_path",
    "fleet.setup",  "fleet.run",      "fleet.step_sim",
    "serve.setup",  "serve.plan",     "serve.run",
};

struct Span
{
    int layer = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; //!< index into Tracer::spans, -1 = root
    int op = -1;     //!< op id the span belongs to
};

/** In-memory span store; records only while `on`. */
struct Tracer
{
    bool on = false;
    int op = -1;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** RAII span: opened at construction, closed at scope exit. */
class Scope
{
  public:
    Scope(Tracer &t, Layer layer) : t_(t.on ? &t : nullptr)
    {
        if (!t_)
            return;
        idx_ = static_cast<int>(t_->spans.size());
        t_->spans.push_back(
            {layer, 0, 0, t_->open.empty() ? -1 : t_->open.back(),
             t_->op});
        t_->open.push_back(idx_);
        t_->spans.back().start = nowNs();
    }

    ~Scope()
    {
        if (!t_)
            return;
        t_->spans[static_cast<std::size_t>(idx_)].end = nowNs();
        t_->open.pop_back();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int idx_ = -1;
};

/** Per-layer counts summed over traced ops and their probes. */
using Counters = std::map<std::string, double>;

double
counterOr0(const MetricsRegistry &reg, const std::string &name)
{
    const Counter *c = reg.findCounter(name);
    return c ? c->value() : 0.0;
}

/** Fold a step's engine counters (runtime registry) into @p c. */
void
addEngineCounters(Counters &c, const MetricsRegistry &reg)
{
    c["simcore.events"] += counterOr0(reg, "sim.events.executed");
    c["xfer.flows"] += counterOr0(reg, "xfer.flows.submitted");
    c["xfer.rate_recomputes"] += counterOr0(reg, "xfer.rate.recomputes");
    c["xfer.flows_touched"] +=
        counterOr0(reg, "xfer.rate.flows_touched");
    c["xfer.flows_skipped"] +=
        counterOr0(reg, "xfer.rate.flows_skipped");
}

// ---------------------------------------------------------------
// Ops
// ---------------------------------------------------------------

/** What one op produced. */
struct OpResult
{
    std::string error;        //!< empty = every check passed
    std::uint64_t digest = 0; //!< simulated digest of the op
    double work = 0.0;        //!< items completed (steps/jobs/requests)
    double events = 0.0;      //!< simulated events (0 = not exposed)
    double headline = 0.0;    //!< the kind's simulated headline number
};

void
check(OpResult &r, bool ok, const std::string &what)
{
    if (!ok && r.error.empty())
        r.error = what;
}

/** A workload: a fixed set of op kinds and a seeded op schedule. */
class Bench
{
  public:
    virtual ~Bench() = default;

    /** Op kind labels (digest keys). */
    std::vector<std::string> kinds;
    /** Kind of each op, cycled by the timed loop. */
    std::vector<int> schedule;
    /** Kinds run once, untimed, before the loop (default: all). */
    std::vector<int> warmup;
    /** Name of the headline simulated number. */
    std::string headlineName;
    /** Kind whose op gives the headline; -1 = the mean over kinds. */
    int headlineKind = 0;
    /** True when digests do not depend on the seed. */
    bool seedFreeDigests = false;

    /** Run one op of @p kind; counts go to @p c when non-null. */
    virtual OpResult run(int kind, Tracer &tr, Counters *c) = 0;

    /**
     * Re-run, under spans, the layer calls an op of @p kind makes
     * inside the library. @return an error, or "" when consistent.
     */
    virtual std::string
    probe(int /*kind*/, Tracer & /*tr*/, Counters & /*c*/)
    {
        return "";
    }
};

/** Seeded permutation of 0..n-1 per cycle, @p cycles times over. */
std::vector<int>
shuffledCycles(int n, int cycles, std::mt19937_64 &rng)
{
    std::vector<int> out;
    for (int c = 0; c < cycles; ++c) {
        std::vector<int> one(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            one[static_cast<std::size_t>(i)] = i;
        for (int i = n - 1; i > 0; --i) {
            auto j = static_cast<int>(
                rng() % static_cast<std::uint64_t>(i + 1));
            std::swap(one[static_cast<std::size_t>(i)],
                      one[static_cast<std::size_t>(j)]);
        }
        out.insert(out.end(), one.begin(), one.end());
    }
    return out;
}

/** Exponential gap with mean 1/@p rate from @p rng (portable). */
double
expGap(std::mt19937_64 &rng, double rate)
{
    // 53 random bits -> u in (0, 1].
    double u = (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    return -std::log(u) / rate;
}

/**
 * planMobius() with its default options, one phase per span, so each
 * phase is timed apart. @p orders gets the GPU orders cross mapping
 * scored.
 */
MobiusPlan
planByPhase(const Server &server, const CostModel &cost, Tracer &tr,
            int &orders)
{
    MobiusPlan plan;
    {
        Scope s(tr, kProfile);
        ProfileResult prof = profileModel(cost);
        plan.profilingSeconds = prof.profilingTime;
        plan.profiledLayers = prof.profiledLayers;
    }
    {
        Scope s(tr, kPartition);
        PipelineEnv env;
        env.numGpus = server.topo.numGpus();
        env.gpuMemBytes = server.topo.gpuSpec(0).memBytes;
        env.avgBandwidth = kPcie3x16Bw;
        PartitionResult part =
            mipPartition(PipelineCostEvaluator(cost, env));
        if (!part.estimate.feasible)
            fatal("MIP partition infeasible: %s",
                  part.estimate.infeasibleReason.c_str());
        plan.partition = std::move(part.partition);
        plan.estimate = std::move(part.estimate);
    }
    Scope s(tr, kMapping);
    MappingResult m = crossMapping(server.topo, plan.stageCount());
    plan.mapping = std::move(m.mapping);
    orders = m.evaluated;
    return plan;
}

/**
 * train_4p4: a cold mobius_sim-equivalent op per GPT-8B/15B/51B on
 * Topo 4+4 — Workload, plan, one step with a registry, then the
 * span digest and the critical-path attribution.
 */
class TrainBench : public Bench
{
  public:
    explicit TrainBench(std::uint64_t seed)
    {
        kinds = {"gpt8b", "gpt15b", "gpt51b"};
        std::mt19937_64 rng(seed);
        schedule = shuffledCycles(3, 64, rng);
        headlineName = "sim_step_s";
        headlineKind = -1;
        seedFreeDigests = true;
    }

    OpResult
    run(int kind, Tracer &tr, Counters *c) override
    {
        OpResult r;
        std::optional<Workload> work;
        {
            Scope s(tr, kWorkload);
            work.emplace(models_[static_cast<std::size_t>(kind)],
                         server_);
        }
        int orders = 0;
        MobiusPlan plan = tr.on
            ? planByPhase(server_, work->cost(), tr, orders)
            : planMobius(server_, work->cost());

        MetricsRegistry reg;
        TraceRecorder trace;
        StepRunOptions opts;
        opts.metrics = &reg;
        opts.traceOut = &trace;
        StepRunResult res;
        {
            Scope s(tr, kStep);
            res = runMobiusStepEx(server_, work->cost(), plan, opts);
        }
        std::uint64_t fp = 0;
        {
            Scope s(tr, kFingerprint);
            fp = spanFingerprint(trace);
        }
        StepAttribution attrib;
        {
            Scope s(tr, kCriticalPath);
            attrib = attributeStep(trace);
        }

        check(r, res.stats.stepTime > 0.0, "non-positive step time");
        check(r, fp == res.spanHash,
              "spanFingerprint differs from the run's digest");
        check(r,
              std::fabs(attrib.critical.total() - res.stats.stepTime) <=
                  kMaxSumDrift,
              strfmt("attribution sums to %.17g, step is %.17g",
                     attrib.critical.total(), res.stats.stepTime));
        r.digest = res.spanHash;
        r.work = 1.0;
        r.events = counterOr0(reg, "sim.events.executed");
        r.headline = res.stats.stepTime;
        if (c) {
            (*c)["plan.mapping_orders"] += orders;
            (*c)["runtime.steps"] += 1.0;
            (*c)["runtime.spans"] += static_cast<double>(res.spanCount);
            addEngineCounters(*c, reg);
        }
        return r;
    }

  private:
    Server server_ = makeCommodityServer({4, 4});
    std::vector<GptConfig> models_{gpt8b(), gpt15b(), gpt51b()};
};

/**
 * fleet_mix: one FleetSim::run per op over a seeded Poisson mix of
 * GPT-3B Mobius and ZeRO jobs on commodity 2+2 servers plus one DC
 * box, with preemption, backfill and transfer faults.
 */
class FleetBench : public Bench
{
  public:
    static constexpr int kJobs = 48;
    static constexpr int kZeroJobs = 12;
    static constexpr int kDcJobs = 8;
    static constexpr int kUrgentJobs = 12;
    static constexpr double kJobsPerSecond = 1.0;

    explicit FleetBench(std::uint64_t seed)
    {
        kinds = {"fleet"};
        schedule = {0};
        headlineName = "sim_jct_p50_s";

        std::mt19937_64 rng(seed);
        // Fixed counts per job class at seeded positions, so every
        // seed asks the simulator for the same amount of work.
        std::vector<int> roles = shuffledCycles(kJobs, 1, rng);
        double t = 0.0;
        for (int i = 0; i < kJobs; ++i) {
            const int role = roles[static_cast<std::size_t>(i)];
            JobSpec spec;
            spec.model = gpt3b();
            t += expGap(rng, kJobsPerSecond);
            spec.arrival = t;
            spec.steps = 2 + static_cast<int>(rng() % 3);
            spec.faultSeed = rng();
            if (role < kDcJobs) {
                spec.dataCenter = true;
                spec.groups = {4};
                spec.serverClass = "dc";
            } else if (role < kDcJobs + kZeroJobs) {
                spec.system = JobSystem::DeepSpeed;
            }
            // Urgent jobs (priority 0, with probability kUrgentJobs /
            // kJobs) preempt the background (priority 5).
            spec.priority = (rng() % kJobs) < kUrgentJobs ? 0 : 5;
            jobs_.push_back(std::move(spec));
        }

        FleetServerDesc commodity;
        commodity.klass = "commodity";
        commodity.groups = {2, 2};
        commodity.count = 2;
        FleetServerDesc dc;
        dc.klass = "dc";
        dc.dataCenter = true;
        dc.groups = {4};
        dc.count = 1;
        opts_.servers = {commodity, dc};
        opts_.threads = 1;
        opts_.planCache = true;
        opts_.backfill = true;
        opts_.preemption = true;
        opts_.faults.xfailProb = 0.01;
        opts_.faults.retryBudget = 10;
        opts_.faults.retryBackoff = 1e-4;
        // Per-job attribution (checked below) needs the fleet trace.
        opts_.trace.enabled = true;
    }

    OpResult
    run(int, Tracer &tr, Counters *c) override
    {
        OpResult r;
        std::optional<FleetSim> sim;
        {
            Scope s(tr, kFleetSetup);
            sim.emplace(opts_);
            for (const JobSpec &spec : jobs_)
                sim->submit(spec);
        }
        FleetMetrics m;
        {
            Scope s(tr, kFleetRun);
            m = sim->run();
        }
        check(r, m.jobs == jobs_.size() && m.completed == m.jobs,
              strfmt("%llu of %zu jobs completed",
                     static_cast<unsigned long long>(m.completed),
                     jobs_.size()));
        check(r, m.goodput > 0.0 && m.goodput <= 1.0,
              strfmt("goodput %.17g outside (0, 1]", m.goodput));
        const FleetAttribution &attrib = sim->attribution();
        check(r, attrib.jobs.size() == jobs_.size(),
              "attribution misses jobs");
        for (const FleetJobAttribution &ja : attrib.jobs)
            check(r, std::fabs(ja.t.total() - ja.jct) <= kMaxSumDrift,
                  strfmt("job %d attribution sums to %.17g, JCT is "
                         "%.17g",
                         ja.job, ja.t.total(), ja.jct));
        r.digest = m.fingerprint;
        r.work = static_cast<double>(jobs_.size());
        r.headline = m.jctP50;
        if (c) {
            (*c)["fleet.plan_cache.hits"] +=
                static_cast<double>(m.planHits);
            (*c)["fleet.plan_cache.misses"] +=
                static_cast<double>(m.planMisses);
            (*c)["fleet.preemptions"] +=
                static_cast<double>(m.sched.preemptions);
            (*c)["fleet.backfills"] +=
                static_cast<double>(m.sched.backfills);
        }
        return r;
    }

    std::string
    probe(int, Tracer &tr, Counters &c) override
    {
        // Every job's step simulation, as the fleet runs it; then
        // the same step on the engines with a registry attached, for
        // the runtime/simcore/xfer counts the fleet does not export.
        PlanCache cache;
        std::set<std::string> planned;
        for (const JobSpec &spec : jobs_) {
            JobStepResult jr;
            {
                Scope s(tr, kFleetStepSim);
                jr = simulateJobStep(spec, &cache, &opts_.faults);
            }
            c["fleet.step_sims"] += 1.0;
            c["fault.failures"] +=
                static_cast<double>(jr.stats.faultFailures);
            c["fault.retries"] +=
                static_cast<double>(jr.stats.faultRetries);

            Server server = buildJobServer(spec);
            std::optional<Workload> work;
            {
                Scope s(tr, kWorkload);
                work.emplace(spec.model, server, spec.microbatchSize,
                             spec.numMicrobatches);
            }
            MetricsRegistry reg;
            StepRunOptions opts;
            opts.metrics = &reg;
            opts.faults = &opts_.faults;
            opts.faultSeed = spec.faultSeed;
            StepRunResult sr;
            {
                Scope s(tr, kStep);
                sr = spec.system == JobSystem::DeepSpeed
                    ? runZeroStepEx(server, work->cost(), opts)
                    : runMobiusStepEx(server, work->cost(), jr.plan,
                                      opts);
            }
            if (sr.spanHash != jr.spanHash)
                return strfmt("job %d: engine step digest differs "
                              "from simulateJobStep",
                              spec.id);
            c["runtime.steps"] += 1.0;
            c["runtime.spans"] += static_cast<double>(sr.spanCount);
            addEngineCounters(c, reg);

            // A plan-cache miss: what the fleet's planner paid.
            if (spec.system == JobSystem::Mobius &&
                planned.insert(jobPlanKey(spec)).second) {
                int orders = 0;
                planByPhase(server, work->cost(), tr, orders);
                c["plan.mapping_orders"] += orders;
            }
        }
        return "";
    }

  private:
    std::vector<JobSpec> jobs_;
    FleetOptions opts_;
};

/**
 * serve_51b: one ServeSim::run per op. GPT-51B on 4x24 GB 2+2 with
 * MobiusSwap and ZeroGather at fixed fractions of the capacity
 * measured in set-up, plus the GPT-8B Adaptive burst.
 */
class ServeBench : public Bench
{
  public:
    static constexpr int kPrompt = 48;
    static constexpr int kGen = 8;
    static constexpr int kRequests = 256;
    static constexpr int kStreams = 4;
    static constexpr int kCapacityRequests = 16;
    static constexpr int kBurstRequests = 40;
    static constexpr double kSloMultiple = 5.0;

    explicit ServeBench(std::uint64_t seed)
    {
        headlineName = "sim_goodput_tok_s";
        probeCapacity();
        // Several request streams per configuration, so one seed's
        // luck in a single stream moves the median op little.
        std::mt19937_64 rng(seed);
        for (int stream = 0; stream < kStreams; ++stream) {
            for (ServePlacement p : {ServePlacement::MobiusSwap,
                                     ServePlacement::ZeroGather}) {
                for (double f : {0.5, 1.0, 2.0}) {
                    if (stream == 0 && p == ServePlacement::MobiusSwap &&
                        f == 1.0)
                        headlineKind = static_cast<int>(kinds_.size());
                    // Open-loop Poisson arrivals in simulated time.
                    addKind(strfmt("%s@%g#%d", servePlacementName(p), f,
                                   stream),
                            bigOptions(p, slo_),
                            poisson(rng, {{f * capacity_, 1e30}},
                                    kRequests, kPrompt, kGen));
                }
            }
            // GPT-8B adaptive under a quiet/burst/quiet schedule.
            ServeOptions burst;
            burst.model = gpt8b();
            burst.placement.policy = ServePlacement::Adaptive;
            burst.placement.switchHigh = 6;
            burst.batch.maxBatch = 8;
            addKind(strfmt("adaptive-8b-burst#%d", stream), burst,
                    poisson(rng, {{0.5, 20.0}, {10.0, 2.0}, {0.5, 1e30}},
                            kBurstRequests, 64, 6));
        }
        // Streams share every code path: warm up one of each.
        for (int k = 0; k < static_cast<int>(kinds.size()) / kStreams;
             ++k)
            warmup.push_back(k);
        schedule = shuffledCycles(static_cast<int>(kinds.size()), 16,
                                  rng);
    }

    OpResult
    run(int kind, Tracer &tr, Counters *c) override
    {
        const Kind &k = kinds_[static_cast<std::size_t>(kind)];
        OpResult r;
        MetricsRegistry reg;
        ServeOptions o = k.opts;
        o.metrics = &reg;
        std::optional<ServeSim> sim;
        {
            Scope s(tr, kServeSetup);
            sim.emplace(o);
            for (const ServeRequest &req : k.reqs)
                sim->submit(req);
        }
        ServeMetrics m;
        {
            Scope s(tr, kServeRun);
            m = sim->run();
        }
        std::uint64_t fp = 0;
        {
            Scope s(tr, kFingerprint);
            fp = serveFingerprint(sim->records());
        }
        check(r, m.completed == k.reqs.size(),
              strfmt("%llu of %zu requests served",
                     static_cast<unsigned long long>(m.completed),
                     k.reqs.size()));
        check(r, fp == m.fingerprint,
              "serveFingerprint differs from the run's digest");
        for (const RequestRecord &rec : sim->records())
            check(r,
                  rec.finish >= 0.0 &&
                      std::fabs(rec.lat.total() - rec.e2e()) <=
                          kMaxSumDrift,
                  strfmt("request %d latency categories sum to "
                         "%.17g, e2e is %.17g",
                         rec.spec.id, rec.lat.total(), rec.e2e()));
        r.digest = fp;
        r.work = static_cast<double>(k.reqs.size());
        r.events = static_cast<double>(sim->ctx().queue().executed());
        r.headline = m.sloGoodputTokensPerSec;
        if (c) {
            (*c)["serve.iterations"] += static_cast<double>(m.iterations);
            (*c)["serve.swap_bytes"] += static_cast<double>(m.swapBytes);
            addEngineCounters(*c, reg);
            // ServeSim drains its queue itself; read the count there.
            (*c)["simcore.events"] += r.events;
        }
        return r;
    }

    std::string
    probe(int kind, Tracer &tr, Counters &) override
    {
        const ServeOptions &o =
            kinds_[static_cast<std::size_t>(kind)].opts;
        Server server = makeCommodityServer(o.groups);
        std::optional<Workload> work;
        {
            Scope s(tr, kWorkload);
            work.emplace(o.model, server);
        }
        Scope s(tr, kServePlan);
        ServePlan plan =
            buildServePlan(work->cost(), server.topo, o.placement);
        return plan.numStages() > 0 ? "" : "empty serving plan";
    }

  private:
    struct Kind
    {
        ServeOptions opts;
        std::vector<ServeRequest> reqs;
    };

    /** (requests/s, seconds) of one arrival phase. */
    struct Phase
    {
        double rate;
        double seconds;
    };

    /** @p count requests with phased Poisson arrivals from @p rng. */
    static std::vector<ServeRequest>
    poisson(std::mt19937_64 &rng, const std::vector<Phase> &phases,
            int count, int prompt, int gen)
    {
        std::vector<ServeRequest> out;
        double t = 0.0;
        double phase_end = phases[0].seconds;
        std::size_t ph = 0;
        while (static_cast<int>(out.size()) < count) {
            double next = t + expGap(rng, phases[ph].rate);
            if (next > phase_end && ph + 1 < phases.size()) {
                // Memoryless: restart the gap at the phase edge.
                t = phase_end;
                phase_end += phases[++ph].seconds;
                continue;
            }
            t = next;
            out.push_back(request(prompt, gen));
            out.back().arrival = t;
        }
        return out;
    }

    void
    addKind(std::string label, ServeOptions opts,
            std::vector<ServeRequest> reqs)
    {
        kinds.push_back(std::move(label));
        kinds_.push_back({std::move(opts), std::move(reqs)});
    }

    static ServeRequest
    request(int prompt, int gen)
    {
        ServeRequest r;
        r.promptTokens = prompt;
        r.maxNewTokens = gen;
        return r;
    }

    static ServeOptions
    bigOptions(ServePlacement policy, double slo)
    {
        ServeOptions o;
        o.model = gpt51b();
        o.placement.policy = policy;
        o.batch.maxBatch = 8;
        o.slo.e2eSeconds = slo;
        return o;
    }

    /** Capacity probe: a lone request sets the SLO (5x its e2e), a
     *  saturating burst the capacity in requests/s. */
    void
    probeCapacity()
    {
        ServeSim lone(bigOptions(ServePlacement::MobiusSwap, 0.0));
        lone.submit(request(kPrompt, kGen));
        slo_ = kSloMultiple * lone.run().e2eMax;
        ServeSim sat(bigOptions(ServePlacement::MobiusSwap, slo_));
        for (int i = 0; i < kCapacityRequests; ++i)
            sat.submit(request(kPrompt, kGen));
        capacity_ = sat.run().requestsPerSec;
        if (!(capacity_ > 0.0))
            fatal("serving capacity probe measured %g requests/s",
                  capacity_);
    }

    double slo_ = 0.0;
    double capacity_ = 0.0;
    std::vector<Kind> kinds_;
};

std::unique_ptr<Bench>
makeBench(const std::string &name, std::uint64_t seed)
{
    if (name == "train_4p4")
        return std::make_unique<TrainBench>(seed);
    if (name == "fleet_mix")
        return std::make_unique<FleetBench>(seed);
    if (name == "serve_51b")
        return std::make_unique<ServeBench>(seed);
    fatal("unknown --workload '%s' (train_4p4, fleet_mix, serve_51b)",
          name.c_str());
}

// ---------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------

/** Expected digests: "workload seed kind" -> digest ("*" = any seed). */
std::map<std::string, std::uint64_t>
loadDigests(const std::string &path)
{
    std::map<std::string, std::uint64_t> out;
    if (path.empty())
        return out;
    std::ifstream in(path);
    if (!in)
        fatal("cannot read digests file '%s'", path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string w, s, k, hex;
        if (!(is >> w >> s >> k >> hex))
            fatal("bad digests line '%s'", line.c_str());
        out[w + " " + s + " " + k] = std::stoull(hex, nullptr, 16);
    }
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) < 0x20)
            out += ' ';
        else
            out += ch;
    }
    return out + "\"";
}

struct OpSample
{
    int kind = 0;
    std::int64_t start = 0;   //!< host ns since the first timed op
    std::int64_t latency = 0; //!< host ns
    std::int64_t cpu = 0;     //!< process CPU ns the op took
    bool traced = false;
    bool ok = true;
    double work = 0.0;
    double events = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t entry = nowNs();
    try {
        Args args(argc, argv);
        const std::string workload = args.get("workload", "");
        const std::string seed_arg = args.get("seed", "1");
        const double seconds = args.getDoubleIn("seconds", 10.0, 0.0, 3600.0);
        const bool trace = args.getIntIn("trace", 0, 0, 1) == 1;
        const std::string digests_file = args.get("digests", "");
        const std::string t0_arg = args.get("t0-ns", "");
        const bool setup_only = args.has("setup-only");
        const bool record = args.has("record-digests");
        args.rejectUnused();

        const std::uint64_t seed = std::stoull(seed_arg);
        // Set-up runs from process start (the caller's clock reading
        // just before it spawned us) to the first timed op.
        const std::int64_t t0 =
            t0_arg.empty() ? entry : std::stoll(t0_arg);
        const auto expected = loadDigests(digests_file);

        std::unique_ptr<Bench> bench = makeBench(workload, seed);
        const int nkinds = static_cast<int>(bench->kinds.size());
        Tracer tracer;
        std::vector<std::string> errors;
        std::map<int, std::uint64_t> seen; // kind -> first digest
        std::vector<double> headline(static_cast<std::size_t>(nkinds));
        int attempted = 0, failed = 0;

        // One op, checked against the recorded and the first digest.
        auto attempt = [&](int kind, Counters *c, OpSample &out) {
            OpResult r;
            try {
                r = bench->run(kind, tracer, c);
            } catch (const std::exception &e) {
                r.error = strfmt("threw: %s", e.what());
            }
            const std::string &label =
                bench->kinds[static_cast<std::size_t>(kind)];
            if (r.error.empty()) {
                auto it = expected.find(
                    workload + " " +
                    (bench->seedFreeDigests ? "*" : seed_arg) + " " +
                    label);
                if (it != expected.end() && it->second != r.digest)
                    r.error = strfmt("digest %016llx, recorded %016llx",
                                     (unsigned long long)r.digest,
                                     (unsigned long long)it->second);
                auto [s, fresh] = seen.emplace(kind, r.digest);
                if (!fresh && s->second != r.digest)
                    r.error = "digest changed between identical ops";
            }
            ++attempted;
            out.kind = kind;
            out.ok = r.error.empty();
            out.work = r.work;
            out.events = r.events;
            if (!out.ok) {
                ++failed;
                if (errors.size() < 20)
                    errors.push_back(label + ": " + r.error);
            }
            headline[static_cast<std::size_t>(kind)] = r.headline;
        };

        // Warm-up: untimed but checked ops; each fixes its kind's
        // digest for the rest of the run (as the first op of a kind
        // does for kinds it skips).
        if (record || bench->warmup.empty()) {
            bench->warmup.clear();
            for (int k = 0; k < nkinds; ++k)
                bench->warmup.push_back(k);
        }
        for (int k : bench->warmup) {
            OpSample s;
            attempt(k, nullptr, s);
        }
        if (record) {
            for (int k = 0; k < nkinds; ++k)
                std::printf(
                    "%s %s %s %016llx\n", workload.c_str(),
                    bench->seedFreeDigests ? "*" : seed_arg.c_str(),
                    bench->kinds[static_cast<std::size_t>(k)].c_str(),
                    (unsigned long long)seen[k]);
            return failed == 0 ? 0 : 1;
        }

        const std::int64_t first = nowNs();
        if (setup_only) {
            double cal[3] = {calibrationNs(), calibrationNs(),
                             calibrationNs()};
            std::sort(cal, cal + 3);
            std::printf("{\"setup_ns\":%lld,\"cal_ns\":%.17g,"
                        "\"ok\":%s}\n",
                        (long long)(first - t0), cal[1],
                        failed == 0 ? "true" : "false");
            return 0;
        }

        // The timed closed loop.
        Counters counters;
        std::vector<OpSample> ops;
        int traced_ops = 0;
        std::int64_t last = first;
        const auto budget = static_cast<std::int64_t>(seconds * 1e9);
        // (host ns since the first timed op, calibration ns).
        std::vector<std::pair<std::int64_t, double>> cal;
        for (std::size_t i = 0; last - first < budget; ++i) {
            // Calibration runs between ops, never inside one.
            if (cal.empty() ||
                last - first - cal.back().first >= kCalEveryNs)
                cal.emplace_back(last - first, calibrationNs());
            const int kind =
                bench->schedule[i % bench->schedule.size()];
            OpSample s;
            // Alternate so traced and untraced ops see the same mix.
            s.traced = trace && i % 2 == 1;
            tracer.on = s.traced;
            tracer.op = static_cast<int>(i);
            const std::int64_t cpu_start = cpuNs();
            const std::int64_t start = nowNs();
            {
                Scope op(tracer, kOp);
                attempt(kind, s.traced ? &counters : nullptr, s);
            }
            last = nowNs();
            s.start = start - first;
            s.latency = last - start;
            s.cpu = cpuNs() - cpu_start;
            if (s.traced) {
                ++traced_ops;
                std::string err;
                {
                    Scope p(tracer, kProbe);
                    err = bench->probe(kind, tracer, counters);
                }
                if (!err.empty()) {
                    s.ok = false;
                    ++failed;
                    if (errors.size() < 20)
                        errors.push_back("probe: " + err);
                }
                last = nowNs();
            }
            tracer.on = false;
            ops.push_back(s);
        }

        std::string out = strfmt(
            "{\"workload\":%s,\"seed\":%s,\"trace\":%d,"
            "\"setup_ns\":%lld,\"window_ns\":%lld,"
            "\"peak_rss_kb\":%ld,\"attempted\":%d,\"failed\":%d,",
            jsonString(workload).c_str(), jsonString(seed_arg).c_str(),
            trace ? 1 : 0, (long long)(first - t0),
            (long long)(last - first), peakRssKb(), attempted, failed);
        out += "\"cal\":[";
        for (std::size_t i = 0; i < cal.size(); ++i)
            out += strfmt("%s[%lld,%.17g]", i ? "," : "",
                          (long long)cal[i].first, cal[i].second);
        out += "],";
        out += "\"kinds\":[";
        for (int k = 0; k < nkinds; ++k)
            out += (k ? "," : "") +
                jsonString(bench->kinds[static_cast<std::size_t>(k)]);
        out += "],\"digests\":{";
        for (int k = 0; k < nkinds; ++k)
            out += strfmt("%s%s:\"%016llx\"", k ? "," : "",
                          jsonString(bench->kinds[static_cast<
                                         std::size_t>(k)])
                              .c_str(),
                          (unsigned long long)seen[k]);
        double head = 0.0;
        for (double h : headline)
            head += h / nkinds;
        if (bench->headlineKind >= 0)
            head = headline[static_cast<std::size_t>(bench->headlineKind)];
        out += strfmt("},\"headline\":{%s:%.17g},",
                      jsonString(bench->headlineName).c_str(), head);
        out += "\"errors\":[";
        for (std::size_t i = 0; i < errors.size(); ++i)
            out += (i ? "," : "") + jsonString(errors[i]);
        out += "],\"ops\":[";
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const OpSample &s = ops[i];
            out += strfmt("%s[%d,%lld,%lld,%d,%d,%.17g,%.17g,%lld]",
                          i ? "," : "", s.kind, (long long)s.start,
                          (long long)s.latency, s.traced ? 1 : 0,
                          s.ok ? 1 : 0, s.work, s.events,
                          (long long)s.cpu);
        }
        out += strfmt("],\"traced_ops\":%d,\"counters\":{", traced_ops);
        bool firstc = true;
        for (const auto &[name, value] : counters) {
            out += strfmt("%s%s:%.17g", firstc ? "" : ",",
                          jsonString(name).c_str(), value);
            firstc = false;
        }
        out += "},\"layers\":[";
        for (int l = 0; l < kLayerCount; ++l)
            out += (l ? "," : "") + jsonString(kLayerNames[l]);
        out += "],\"spans\":[";
        for (std::size_t i = 0; i < tracer.spans.size(); ++i) {
            const Span &s = tracer.spans[i];
            out += strfmt("%s[%d,%lld,%lld,%d,%d]", i ? "," : "",
                          s.layer, (long long)s.start, (long long)s.end,
                          s.parent, s.op);
        }
        out += "]}\n";
        std::fputs(out.c_str(), stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

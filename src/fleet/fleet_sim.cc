#include "fleet/fleet_sim.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include <sstream>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "simcore/arrival.hh"
#include "simcore/event_queue.hh"
#include "simcore/job_pump.hh"
#include "simcore/trace.hh"

namespace mobius
{

namespace
{

/** An empty inventory means one default commodity machine. */
std::vector<FleetServerDesc>
orDefaultServers(std::vector<FleetServerDesc> servers)
{
    if (servers.empty())
        servers.push_back(FleetServerDesc{});
    return servers;
}

} // namespace

FleetSim::FleetSim(FleetOptions opts)
    : opts_([&opts] {
          opts.servers = orDefaultServers(std::move(opts.servers));
          return std::move(opts);
      }()),
      scheduler_(opts_.servers,
                 FleetScheduler::Options{opts_.backfill,
                                         opts_.preemption})
{}

int
FleetSim::submit(JobSpec spec)
{
    if (ran_)
        fatal("FleetSim: submit after run()");
    if (spec.steps < 1)
        fatal("job needs at least one step (got %d)", spec.steps);
    if (spec.arrival < 0.0)
        fatal("job arrival must be >= 0 (got %g)", spec.arrival);
    if (spec.system != System::Mobius &&
        spec.system != System::DeepSpeed)
        fatal("fleet jobs run mobius or deepspeed, not %s",
              systemName(spec.system));
    if (!scheduler_.fits(spec.serverClass))
        fatal("job requests unknown server class '%s'",
              spec.serverClass.c_str());
    // The server class is the single source of truth for machine
    // shape: the job simulates on exactly the machine it will be
    // placed on, so the spec's own shape fields are overwritten.
    for (const auto &desc : opts_.servers) {
        if (desc.klass == spec.serverClass) {
            spec.groups = desc.groups;
            spec.dataCenter = desc.dataCenter;
            break;
        }
    }
    spec.id = static_cast<int>(jobs_.size());
    if (spec.name.empty())
        spec.name = strfmt("job%d", spec.id);
    jobs_.push_back(std::move(spec));
    return jobs_.back().id;
}

int
FleetSim::submitPoisson(const JobSpec &prototype, int count,
                        double jobs_per_second, std::uint64_t seed)
{
    if (count <= 0)
        return static_cast<int>(jobs_.size());
    if (jobs_per_second <= 0.0)
        fatal("Poisson arrival rate must be positive (got %g)",
              jobs_per_second);
    // Shared seeded generator (simcore/arrival.hh): same recurrence,
    // same RNG stream — fingerprints are unchanged by the extraction.
    std::vector<double> times = poissonArrivalTimes(
        count, jobs_per_second, seed, prototype.arrival);
    int first = -1;
    for (int i = 0; i < count; ++i) {
        JobSpec spec = prototype;
        spec.arrival = times[static_cast<std::size_t>(i)];
        spec.name.clear(); // re-derive from the assigned id
        int id = submit(std::move(spec));
        if (first < 0)
            first = id;
    }
    return first;
}

FleetMetrics
FleetSim::run()
{
    if (ran_)
        fatal("FleetSim::run() may only be called once");
    ran_ = true;

    const std::size_t n = jobs_.size();
    records_.assign(n, FleetJobRecord{});
    std::vector<JobStepResult> results(n);
    const FaultPlan *faults =
        opts_.faults.empty() ? nullptr : &opts_.faults;
    PlanCache *cache = opts_.planCache ? &planCache_ : nullptr;

    const bool tracing = opts_.trace.enabled;
    if (tracing) {
        std::vector<std::string> tracks;
        tracks.reserve(
            static_cast<std::size_t>(scheduler_.serverCount()));
        for (int s = 0; s < scheduler_.serverCount(); ++s)
            tracks.push_back(strfmt(
                "server%d.%s", s,
                scheduler_.serverClass(s).c_str()));
        std::vector<std::string> classNames;
        for (int k = 0; k < scheduler_.klassCount(); ++k)
            classNames.push_back(scheduler_.klassName(k));
        trace_ = std::make_unique<FleetTrace>(
            opts_.trace, n, std::move(tracks),
            std::move(classNames));
    }

    // Step simulations are pure in the JobSpec, so they start
    // speculatively at arrival; the event loop only blocks at
    // admission, and only if the result is not ready yet. When
    // tracing, the step's spans are retained just long enough to
    // run critical-path attribution — memoized per jobSimKey (step
    // results are bit-identical per key), so a homogeneous fleet
    // pays one walk. Attribution runs on pump workers but only
    // key-identical values ever race, so the reduction below stays
    // bit-identical at any thread width.
    std::vector<AttributionBreakdown> stepAttrib(tracing ? n : 0);
    JobPump pump(
        n,
        [&](std::size_t i) {
            if (!tracing) {
                results[i] =
                    simulateJobStep(jobs_[i], cache, faults);
                return;
            }
            TraceRecorder tr;
            results[i] =
                simulateJobStep(jobs_[i], cache, faults, &tr);
            stepAttrib[i] = attribCache_.get(
                jobSimKey(jobs_[i]),
                [&] { return attributeStep(tr).critical; });
        },
        opts_.threads);

    EventQueue queue;
    std::vector<EventId> completion(n, kNoEvent);
    std::vector<int> stepsDone(n, 0);
    std::vector<double> occupiedAt(n, -1.0);
    std::uint64_t completedCount = 0;

    // Every scheduler decision is digested into decisionFp — always,
    // tracing on or off, so the fingerprint catches scheduler-order
    // regressions in every configuration and tracing perturbs
    // nothing. The hook runs on the fleet event loop (the scheduler
    // is single-threaded), never on pump workers: the decision log
    // is emitted strictly in event order.
    std::uint64_t decisionFp = kFnvOffset;
    scheduler_.setDecisionHook([&](const SchedDecision &d) {
        fnv64(decisionFp, static_cast<std::uint64_t>(d.kind));
        fnvDouble(decisionFp, d.time);
        fnv64(decisionFp, static_cast<std::uint64_t>(d.job));
        fnv64(decisionFp, static_cast<std::uint64_t>(d.priority));
        fnv64(decisionFp, static_cast<std::uint64_t>(d.server));
        fnv64(decisionFp, static_cast<std::uint64_t>(d.klass));
        fnv64(decisionFp,
              static_cast<std::uint64_t>(d.freeInClass));
        fnv64(decisionFp,
              static_cast<std::uint64_t>(d.blockedHead));
        fnv64(decisionFp, static_cast<std::uint64_t>(d.victim));
        fnv64(decisionFp,
              static_cast<std::uint64_t>(d.victimPriority));
        fnvDouble(decisionFp, d.victimStart);
        fnv64(decisionFp, d.pending);
        if (!trace_)
            return;

        const std::string &klass = scheduler_.klassName(d.klass);
        FleetDecision fd;
        fd.time = d.time;
        fd.job = d.job;
        fd.server = d.server;
        fd.priority = d.priority;
        fd.klass = klass;
        fd.freeInClass = d.freeInClass;
        fd.blockedHead = d.blockedHead;
        if (d.blockedHeadKlass >= 0)
            fd.blockedHeadKlass =
                scheduler_.klassName(d.blockedHeadKlass);
        fd.victim = d.victim;
        fd.victimPriority = d.victimPriority;
        fd.victimStart = d.victimStart;
        fd.pending = d.pending;

        FleetEvent ev;
        ev.time = d.time;
        if (d.kind == SchedDecision::Kind::Preempt) {
            fd.kind = FleetDecision::Kind::Preempt;
            fd.why = strfmt(
                "preempted job %d (prio %d, started %.9gs) on "
                "server %d (%s) for job %d (prio %d): 0 free",
                d.victim, d.victimPriority, d.victimStart,
                d.server, klass.c_str(), d.job, d.priority);
            ev.type = FleetEventType::Preempt;
            ev.job = d.victim;
            ev.server = d.server;
            ev.other = d.job;
            ev.value = d.victimPriority;
        } else {
            if (d.kind == SchedDecision::Kind::Backfill) {
                fd.kind = FleetDecision::Kind::Backfill;
                fd.why = strfmt(
                    "backfilled job %d onto server %d (%s) past "
                    "blocked head %d: head needs 1x%s, 0 free",
                    d.job, d.server, klass.c_str(), d.blockedHead,
                    fd.blockedHeadKlass.c_str());
            } else {
                fd.kind = FleetDecision::Kind::Admit;
                fd.why = strfmt(
                    "admitted job %d on server %d (%s): %d free",
                    d.job, d.server, klass.c_str(),
                    d.freeInClass);
            }
            // The hook fires before the admit callback stamps
            // start, so a non-negative start means this placement
            // is a post-preemption restart.
            bool restart =
                records_[static_cast<std::size_t>(d.job)].start >=
                0.0;
            ev.type = restart ? FleetEventType::Resume
                      : d.kind == SchedDecision::Kind::Backfill
                          ? FleetEventType::Backfill
                          : FleetEventType::Admit;
            ev.job = d.job;
            ev.server = d.server;
            ev.other = d.blockedHead;
            ev.value = d.priority;
        }
        trace_->recordDecision(std::move(fd));
        trace_->recordEvent(ev);
    });

    std::function<void(double)> reschedule;
    std::function<void(int)> onComplete;

    reschedule = [&](double now) {
        // Victims are collected and re-queued *between* scheduler
        // passes: their requeue time is the eviction instant, and
        // an evictee of priority p can itself only evict jobs of
        // strictly lower priority, so the pass chain terminates.
        for (;;) {
            std::vector<int> victims;
            scheduler_.schedule(
                now,
                [&](int victim) {
                    auto &rec =
                        records_[static_cast<std::size_t>(victim)];
                    queue.cancel(completion[static_cast<std::size_t>(
                        victim)]);
                    completion[static_cast<std::size_t>(victim)] =
                        kNoEvent;
                    double step =
                        results[static_cast<std::size_t>(victim)]
                            .stats.stepTime;
                    double ran =
                        now -
                        occupiedAt[static_cast<std::size_t>(victim)];
                    // Dock whole completed steps; partial-step
                    // progress is lost. A victim always keeps at
                    // least one step to run — eviction at the exact
                    // completion instant still requeues it.
                    int whole = step > 0.0
                        ? static_cast<int>(
                              std::floor(ran / step + 1e-9))
                        : 0;
                    auto &done =
                        stepsDone[static_cast<std::size_t>(victim)];
                    done = std::min(
                        done + whole,
                        jobs_[static_cast<std::size_t>(victim)]
                                .steps -
                            1);
                    rec.occupiedSeconds += ran;
                    occupiedAt[static_cast<std::size_t>(victim)] =
                        -1.0;
                    ++rec.preemptions;
                    if (trace_) {
                        FleetEvent ev;
                        ev.type = FleetEventType::Dock;
                        ev.time = now;
                        ev.job = victim;
                        ev.server = rec.server;
                        ev.other = done; // whole steps kept
                        // Lost partial-step progress, seconds.
                        ev.value = step > 0.0
                            ? ran - whole * step
                            : 0.0;
                        trace_->recordEvent(ev);
                    }
                    victims.push_back(victim);
                },
                [&](int id, int server) {
                    auto i = static_cast<std::size_t>(id);
                    pump.wait(i);
                    if (std::exception_ptr e = pump.error(i))
                        std::rethrow_exception(e);
                    auto &rec = records_[i];
                    if (rec.start < 0.0)
                        rec.start = now;
                    rec.server = server;
                    occupiedAt[i] = now;
                    double step = results[i].stats.stepTime;
                    if (step <= 0.0)
                        fatal("job %d simulated a non-positive step "
                              "time (%g s)",
                              id, step);
                    int remaining = jobs_[i].steps - stepsDone[i];
                    completion[i] = queue.schedule(
                        now + remaining * step,
                        [&onComplete, id] { onComplete(id); });
                });
            if (victims.empty())
                break;
            for (int v : victims) {
                const JobSpec &spec =
                    jobs_[static_cast<std::size_t>(v)];
                FleetJobReq req;
                req.klass = spec.serverClass;
                req.priority = spec.priority;
                scheduler_.enqueue(v, now, req);
            }
        }
        // Sample the scheduler gauges once per settled pass (every
        // arrival and completion funnels through here).
        if (trace_)
            trace_->sampleCounters(now, scheduler_.pendingCount(),
                                   scheduler_.runningCount(),
                                   scheduler_.freeCounts());
    };

    onComplete = [&](int id) {
        auto i = static_cast<std::size_t>(id);
        double now = queue.now();
        auto &rec = records_[i];
        rec.finish = now;
        rec.occupiedSeconds += now - occupiedAt[i];
        occupiedAt[i] = -1.0;
        stepsDone[i] = jobs_[i].steps;
        completion[i] = kNoEvent;
        if (trace_) {
            trace_->recordEvent({FleetEventType::Finish, now, id,
                                 rec.server, -1, 0.0});
            trace_->recordEvent({FleetEventType::ServerFree, now,
                                 id, rec.server, -1, 0.0});
        }
        scheduler_.release(id);
        ++completedCount;
        reschedule(now);
    };

    // Arrival events; equal arrival times fire in submit (= id)
    // order, matching the scheduler's (arrival, id) tie-break.
    for (std::size_t i = 0; i < n; ++i) {
        queue.schedule(jobs_[i].arrival, [&, i] {
            pump.enqueue(i);
            FleetJobReq req;
            req.klass = jobs_[i].serverClass;
            req.priority = jobs_[i].priority;
            if (trace_)
                trace_->recordEvent({FleetEventType::Submit,
                                     queue.now(),
                                     static_cast<int>(i), -1, -1,
                                     0.0});
            scheduler_.enqueue(static_cast<int>(i), queue.now(),
                               req);
            reschedule(queue.now());
        });
    }
    queue.run();
    pump.drain();

    if (completedCount != n)
        panic("fleet deadlock: %llu of %zu jobs completed",
              static_cast<unsigned long long>(completedCount), n);

    // Reduce in job-id order — the same arithmetic in the same
    // order at any thread width.
    FleetMetrics m;
    m.jobs = n;
    m.completed = completedCount;
    m.sched = scheduler_.stats();
    PlanCache::Stats ps = planCache_.stats();
    m.planHits = ps.hits;
    m.planMisses = ps.misses;
    m.planHitRate = ps.hitRate();

    std::vector<double> jcts, waits;
    jcts.reserve(n);
    waits.reserve(n);
    std::map<std::string, double> classOccupied;
    double totalOccupied = 0.0;
    double usefulSeconds = 0.0;
    std::uint64_t fp = kFnvOffset;
    fnv64(fp, n);
    for (std::size_t i = 0; i < n; ++i) {
        FleetJobRecord &rec = records_[i];
        const JobSpec &spec = jobs_[i];
        rec.spec = spec;
        rec.arrival = spec.arrival;
        rec.queueDelay = rec.start - rec.arrival;
        rec.stepTime = results[i].stats.stepTime;
        rec.planCacheHit = results[i].planCacheHit;
        rec.spanCount = results[i].spanCount;
        rec.spanHash = results[i].spanHash;
        if (faults) {
            // Goodput needs the fault-free step time; solve it once
            // per distinct job shape (the fault seed is irrelevant
            // to a clean run, so key on plan key + system).
            std::string key =
                strfmt("%s|sys:%s", jobPlanKey(spec).c_str(),
                       systemName(spec.system));
            rec.cleanStepTime = cleanCache_.get(key, [&] {
                return simulateJobStep(spec, cache, nullptr)
                    .stats.stepTime;
            });
        } else {
            rec.cleanStepTime = rec.stepTime;
        }

        jcts.push_back(rec.jct());
        waits.push_back(rec.queueDelay);
        m.makespan = std::max(m.makespan, rec.finish);
        classOccupied[spec.serverClass] += rec.occupiedSeconds;
        totalOccupied += rec.occupiedSeconds;
        usefulSeconds += spec.steps * rec.cleanStepTime;

        fnv64(fp, static_cast<std::uint64_t>(rec.spec.id));
        fnvDouble(fp, rec.arrival);
        fnvDouble(fp, rec.start);
        fnvDouble(fp, rec.finish);
        fnvDouble(fp, rec.stepTime);
        fnvDouble(fp, rec.occupiedSeconds);
        fnv64(fp, static_cast<std::uint64_t>(rec.preemptions));
        fnv64(fp, rec.spanCount);
        fnv64(fp, rec.spanHash);

        if (trace_) {
            // Roll the job's residence time up into the fleet
            // attribution. The identity (gated at 1e-9 by tests
            // and bench_fleet):
            //   jct = queueWait + preemptionLost + steps*stepTime
            // with the in-step categories rescaled from one
            // attributed step so they sum to steps*stepTime
            // exactly (the critical-path walk's own step time is
            // the span makespan, which can differ from the
            // measured stepTime in the last ulp).
            FleetJobAttribution ja;
            ja.job = rec.spec.id;
            ja.name = rec.spec.name;
            ja.klass = rec.spec.serverClass;
            ja.priority = rec.spec.priority;
            ja.jct = rec.jct();
            ja.preemptions = rec.preemptions;
            ja.t.jobs = 1;
            double stepsSeconds = rec.spec.steps * rec.stepTime;
            ja.t.queueWait = ja.jct - rec.occupiedSeconds;
            ja.t.preemptionLost =
                rec.occupiedSeconds - stepsSeconds;
            const AttributionBreakdown &c = stepAttrib[i];
            double ctotal = c.total();
            if (ctotal > 0.0) {
                double scale = stepsSeconds / ctotal;
                ja.t.compute = scale * c.compute;
                ja.t.transfer = scale * c.transfer;
                ja.t.contention = scale * c.queue;
                ja.t.optimizer = scale * c.optimizer;
                ja.t.fault = scale * c.fault;
                ja.t.bubble = scale * c.bubble;
                ja.t.other = scale * c.other;
            } else {
                ja.t.other = stepsSeconds;
            }
            attribution_.add(std::move(ja));
        }
    }
    // Scheduler-order regressions change the decision stream even
    // when per-job timings happen to collide, so the decision
    // digest folds into the cross-width identity token.
    m.decisionFingerprint = decisionFp;
    fnv64(fp, decisionFp);
    m.fingerprint = fp;
    if (trace_) {
        m.traceEvents = trace_->eventCount();
        m.traceTruncated = trace_->truncated();
    }
    m.jctP50 = exactQuantile(jcts, 0.50);
    m.jctP99 = exactQuantile(jcts, 0.99);
    m.jctMax = jcts.empty()
        ? 0.0
        : *std::max_element(jcts.begin(), jcts.end());
    m.waitP50 = exactQuantile(waits, 0.50);
    m.waitP99 = exactQuantile(waits, 0.99);
    if (n > 0) {
        double jsum = 0.0, wsum = 0.0;
        for (double j : jcts)
            jsum += j;
        for (double w : waits)
            wsum += w;
        m.jctMean = jsum / static_cast<double>(n);
        m.waitMean = wsum / static_cast<double>(n);
    }
    if (m.makespan > 0.0) {
        m.utilization = totalOccupied /
            (static_cast<double>(scheduler_.serverCount()) *
             m.makespan);
        for (const auto &[klass, occupied] : classOccupied) {
            int count = scheduler_.classCount(klass);
            if (count > 0)
                m.classUtilization[klass] = occupied /
                    (static_cast<double>(count) * m.makespan);
        }
    }
    if (totalOccupied > 0.0)
        m.goodput = usefulSeconds / totalOccupied;

    if (opts_.metrics && opts_.metrics->enabled()) {
        MetricsRegistry &reg = *opts_.metrics;
        reg.counter("fleet.jobs").add(static_cast<double>(m.jobs));
        reg.counter("fleet.completed")
            .add(static_cast<double>(m.completed));
        reg.counter("fleet.sched.admissions")
            .add(static_cast<double>(m.sched.admissions));
        reg.counter("fleet.sched.backfills")
            .add(static_cast<double>(m.sched.backfills));
        reg.counter("fleet.sched.preemptions")
            .add(static_cast<double>(m.sched.preemptions));
        reg.counter("fleet.plan.hits")
            .add(static_cast<double>(m.planHits));
        reg.counter("fleet.plan.misses")
            .add(static_cast<double>(m.planMisses));
        Histogram &jct = reg.histogram("fleet.jct");
        for (double j : jcts)
            jct.record(j);
        Histogram &wait = reg.histogram("fleet.wait");
        for (double w : waits)
            wait.record(w);
        reg.gauge("fleet.makespan").set(m.makespan);
        reg.gauge("fleet.utilization").set(m.utilization);
        reg.gauge("fleet.goodput").set(m.goodput);
        if (trace_) {
            reg.counter("fleet.trace.events")
                .add(static_cast<double>(m.traceEvents));
            reg.counter("fleet.trace.truncated")
                .add(static_cast<double>(m.traceTruncated));
        }
    }
    metrics_ = m;
    return m;
}

void
FleetSim::requireTrace(const char *what) const
{
    if (!ran_)
        fatal("FleetSim::%s requires a completed run()", what);
    if (!trace_)
        fatal("FleetSim::%s requires FleetOptions::trace.enabled",
              what);
}

const FleetTrace &
FleetSim::fleetTrace() const
{
    requireTrace("fleetTrace()");
    return *trace_;
}

const FleetAttribution &
FleetSim::attribution() const
{
    requireTrace("attribution()");
    return attribution_;
}

std::string
FleetSim::timelineJson() const
{
    requireTrace("timelineJson()");
    std::string metadata = strfmt(
        "{\"kind\":\"fleet-timeline\",\"jobs\":%zu,"
        "\"servers\":%d,\"events\":%llu,\"truncated\":%llu}",
        jobs_.size(), scheduler_.serverCount(),
        static_cast<unsigned long long>(trace_->eventCount()),
        static_cast<unsigned long long>(trace_->truncated()));
    return trace_->toChromeJson(metadata);
}

std::string
FleetSim::reportJsonl() const
{
    requireTrace("reportJsonl()");
    std::ostringstream os;
    os << trace_->decisionLogJsonl();
    for (const FleetJobAttribution &ja : attribution_.jobs)
        os << fleetJobJson(ja) << "\n";
    os << strfmt(
        "{\"kind\":\"summary\",\"jobs\":%llu,\"completed\":%llu,"
        "\"makespan\":%.17g,\"events\":%llu,\"truncated\":%llu,"
        "\"admissions\":%llu,\"backfills\":%llu,"
        "\"preemptions\":%llu,"
        "\"decision_fingerprint\":\"%016llx\"}\n",
        static_cast<unsigned long long>(metrics_.jobs),
        static_cast<unsigned long long>(metrics_.completed),
        metrics_.makespan,
        static_cast<unsigned long long>(metrics_.traceEvents),
        static_cast<unsigned long long>(metrics_.traceTruncated),
        static_cast<unsigned long long>(
            metrics_.sched.admissions),
        static_cast<unsigned long long>(metrics_.sched.backfills),
        static_cast<unsigned long long>(
            metrics_.sched.preemptions),
        static_cast<unsigned long long>(
            metrics_.decisionFingerprint));
    return os.str();
}

} // namespace mobius

#include "obs/fleet_trace.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "base/json.hh"
#include "base/logging.hh"
#include "simcore/trace.hh"

namespace mobius
{

const char *
fleetDecisionName(FleetDecision::Kind kind)
{
    switch (kind) {
      case FleetDecision::Kind::Admit: return "admit";
      case FleetDecision::Kind::Backfill: return "backfill";
      case FleetDecision::Kind::Preempt: return "preempt";
    }
    return "unknown";
}

namespace
{

/** %.17g round-trips doubles exactly and deterministically — the
 *  byte-identity contract of the decision log. */
std::string
num(double v)
{
    return strfmt("%.17g", v);
}

} // namespace

double
FleetTimeBreakdown::total() const
{
    return queueWait + compute + transfer + contention + optimizer +
           fault + bubble + other + preemptionLost;
}

void
FleetTimeBreakdown::add(const FleetTimeBreakdown &o)
{
    queueWait += o.queueWait;
    compute += o.compute;
    transfer += o.transfer;
    contention += o.contention;
    optimizer += o.optimizer;
    fault += o.fault;
    bubble += o.bubble;
    other += o.other;
    preemptionLost += o.preemptionLost;
    jobs += o.jobs;
}

const char *
FleetTimeBreakdown::dominant() const
{
    struct Entry
    {
        const char *name;
        double value;
    };
    const Entry entries[] = {
        {"queue-wait", queueWait}, {"compute", compute},
        {"transfer", transfer},    {"contention", contention},
        {"optimizer", optimizer},  {"fault", fault},
        {"bubble", bubble},        {"other", other},
        {"preemption-lost", preemptionLost},
    };
    const char *best = "none";
    double bestValue = 0.0;
    for (const Entry &e : entries) {
        if (e.value > bestValue) {
            best = e.name;
            bestValue = e.value;
        }
    }
    return best;
}

namespace
{

/** Serialise one breakdown cell as a JSON object. */
std::string
breakdownJson(const FleetTimeBreakdown &t)
{
    std::ostringstream os;
    os << "{\"jobs\":" << t.jobs << ",\"total\":" << num(t.total())
       << ",\"queue_wait\":" << num(t.queueWait)
       << ",\"compute\":" << num(t.compute)
       << ",\"transfer\":" << num(t.transfer)
       << ",\"contention\":" << num(t.contention)
       << ",\"optimizer\":" << num(t.optimizer)
       << ",\"fault\":" << num(t.fault)
       << ",\"bubble\":" << num(t.bubble)
       << ",\"other\":" << num(t.other)
       << ",\"preemption_lost\":" << num(t.preemptionLost) << "}";
    return os.str();
}

} // namespace

std::string
fleetJobJson(const FleetJobAttribution &ja)
{
    std::ostringstream os;
    os << "{\"kind\":\"job\",\"job\":" << ja.job << ",\"name\":\""
       << json::escape(ja.name) << "\",\"class\":\""
       << json::escape(ja.klass) << "\",\"priority\":" << ja.priority
       << ",\"jct\":" << num(ja.jct)
       << ",\"preemptions\":" << ja.preemptions << ",\"dominant\":\""
       << ja.t.dominant() << "\",\"breakdown\":"
       << breakdownJson(ja.t) << "}";
    return os.str();
}

void
FleetAttribution::add(FleetJobAttribution ja)
{
    total.add(ja.t);
    byClass[ja.klass].add(ja.t);
    byPriority[ja.priority].add(ja.t);
    jobs.push_back(std::move(ja));
}

std::vector<std::size_t>
FleetAttribution::worstJobs(int k) const
{
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (jobs[a].jct != jobs[b].jct)
                      return jobs[a].jct > jobs[b].jct;
                  return jobs[a].job < jobs[b].job;
              });
    if (k >= 0 && order.size() > static_cast<std::size_t>(k))
        order.resize(static_cast<std::size_t>(k));
    return order;
}

namespace
{

/** One table row of the fleet attribution breakdown. */
std::string
tableRow(const std::string &label, const FleetTimeBreakdown &t)
{
    return strfmt("%-16s %6llu %10.3f %9.3f %9.3f %9.3f %9.3f %9.3f "
                  "%9.3f %9.3f %9.3f %9.3f\n",
                  label.c_str(),
                  static_cast<unsigned long long>(t.jobs), t.total(),
                  t.queueWait, t.compute, t.transfer, t.contention,
                  t.optimizer, t.fault, t.bubble, t.other,
                  t.preemptionLost);
}

} // namespace

std::string
fleetAttributionTable(const FleetAttribution &a, int top_k)
{
    std::ostringstream os;
    os << "where did fleet time go (seconds)\n";
    os << strfmt("%-16s %6s %10s %9s %9s %9s %9s %9s %9s %9s %9s "
                 "%9s\n",
                 "cell", "jobs", "total", "queue", "compute", "xfer",
                 "contend", "optim", "fault", "bubble", "other",
                 "preempt");
    for (const auto &[klass, t] : a.byClass)
        os << tableRow("class " + klass, t);
    for (const auto &[prio, t] : a.byPriority)
        os << tableRow(strfmt("prio %d", prio), t);
    os << tableRow("TOTAL", a.total);
    if (top_k > 0 && !a.jobs.empty()) {
        os << strfmt("\nworst %d JCTs\n",
                     static_cast<int>(std::min<std::size_t>(
                         top_k, a.jobs.size())));
        for (std::size_t idx : a.worstJobs(top_k)) {
            const FleetJobAttribution &ja = a.jobs[idx];
            os << strfmt("  %-8s jct %10.3fs  dominant %-15s "
                         "(class %s, prio %d, %d preemption%s)\n",
                         ja.name.c_str(), ja.jct, ja.t.dominant(),
                         ja.klass.c_str(), ja.priority,
                         ja.preemptions,
                         ja.preemptions == 1 ? "" : "s");
        }
    }
    return os.str();
}

std::string
fleetAttributionJson(const FleetAttribution &a, int top_k)
{
    std::ostringstream os;
    os << "{\"total\":" << breakdownJson(a.total)
       << ",\"by_class\":{";
    bool first = true;
    for (const auto &[klass, t] : a.byClass) {
        os << (first ? "" : ",") << "\"" << json::escape(klass)
           << "\":" << breakdownJson(t);
        first = false;
    }
    os << "},\"by_priority\":{";
    first = true;
    for (const auto &[prio, t] : a.byPriority) {
        os << (first ? "" : ",") << "\"" << prio
           << "\":" << breakdownJson(t);
        first = false;
    }
    os << "},\"worst\":[";
    first = true;
    if (top_k > 0) {
        for (std::size_t idx : a.worstJobs(top_k)) {
            os << (first ? "" : ",") << fleetJobJson(a.jobs[idx]);
            first = false;
        }
    }
    os << "],\"jobs\":" << a.jobs.size() << "}";
    return os.str();
}

FleetTrace::FleetTrace(std::size_t jobs,
                       std::vector<std::string> serverTracks,
                       std::vector<std::string> classNames)
    : serverTracks_(std::move(serverTracks)),
      classNames_(std::move(classNames)), openStint_(jobs, -1),
      lastStint_(jobs, -1)
{
}

std::size_t
FleetTrace::jobSlot(int job) const
{
    if (job < 0 || static_cast<std::size_t>(job) >= openStint_.size())
        fatal("fleet trace: record for unknown job %d", job);
    return static_cast<std::size_t>(job);
}

void
FleetTrace::recordDecision(const FleetDecision &d)
{
    decisions_.push_back(d);
    if (d.kind == FleetDecision::Kind::Preempt) {
        closeStint(d.victim, d.time, true);
        return;
    }
    // The hook fires before the admit callback, so the job's latest
    // stint, if it has one, is the one this placement resumes.
    const std::size_t job = jobSlot(d.job);
    Stint stint;
    stint.job = d.job;
    stint.server = d.server;
    stint.start = d.time;
    stint.resumedFrom = lastStint_[job];
    int idx = static_cast<int>(stints_.size());
    stints_.push_back(stint);
    openStint_[job] = idx;
    lastStint_[job] = idx;
}

void
FleetTrace::recordFinish(int job, double time)
{
    closeStint(job, time, false);
}

void
FleetTrace::closeStint(int job, double time, bool preempted)
{
    int &idx = openStint_[jobSlot(job)];
    if (idx < 0)
        return; // preempted before placement — nothing open
    stints_[idx].end = time;
    stints_[idx].preempted = preempted;
    idx = -1;
}

void
FleetTrace::sampleCounters(double time, std::size_t pending,
                           std::size_t running,
                           const std::vector<int> &freePerClass)
{
    if (!samples_.empty()) {
        const CounterSample &last = samples_.back();
        if (last.pending == pending && last.running == running &&
            last.freePerClass == freePerClass)
            return; // nothing moved — collapse the sample
    }
    CounterSample sample;
    sample.time = time;
    sample.pending = pending;
    sample.running = running;
    sample.freePerClass = freePerClass;
    samples_.push_back(std::move(sample));
}

const std::string &
FleetTrace::className(int klass) const
{
    static const std::string none;
    return klass >= 0 ? classNames_.at(static_cast<std::size_t>(klass))
                      : none;
}

std::string
FleetTrace::decisionLogJsonl() const
{
    std::ostringstream os;
    for (const FleetDecision &d : decisions_) {
        const std::string &klass = className(d.klass);
        const std::string &headKlass = className(d.blockedHeadKlass);
        std::string why;
        switch (d.kind) {
          case FleetDecision::Kind::Admit:
            why = strfmt("admitted job %d on server %d (%s): %d free",
                         d.job, d.server, klass.c_str(),
                         d.freeInClass);
            break;
          case FleetDecision::Kind::Backfill:
            why = strfmt("backfilled job %d onto server %d (%s) past "
                         "blocked head %d: head needs 1x%s, 0 free",
                         d.job, d.server, klass.c_str(),
                         d.blockedHead, headKlass.c_str());
            break;
          case FleetDecision::Kind::Preempt:
            why = strfmt("preempted job %d (prio %d, started %.9gs) "
                         "on server %d (%s) for job %d (prio %d): 0 "
                         "free",
                         d.victim, d.victimPriority, d.victimStart,
                         d.server, klass.c_str(), d.job, d.priority);
            break;
        }
        os << "{\"kind\":\"decision\",\"type\":\""
           << fleetDecisionName(d.kind) << "\",\"time\":"
           << num(d.time) << ",\"job\":" << d.job
           << ",\"server\":" << d.server
           << ",\"priority\":" << d.priority << ",\"class\":\""
           << json::escape(klass)
           << "\",\"free_in_class\":" << d.freeInClass
           << ",\"pending\":" << d.pending
           << ",\"blocked_head\":" << d.blockedHead
           << ",\"blocked_head_class\":\"" << json::escape(headKlass)
           << "\",\"victim\":" << d.victim
           << ",\"victim_priority\":" << d.victimPriority
           << ",\"victim_start\":" << num(d.victimStart)
           << ",\"why\":\"" << json::escape(why) << "\"}\n";
    }
    return os.str();
}

std::string
FleetTrace::toChromeJson(const std::string &metadata_json) const
{
    TraceRecorder tr;
    double maxTime = 0.0;
    for (const Stint &s : stints_)
        maxTime = std::max(maxTime, std::max(s.start, s.end));
    for (const CounterSample &s : samples_)
        maxTime = std::max(maxTime, s.time);

    // One occupancy span per stint, on its server's track. Resume
    // stints depend on the stint they resumed from, which
    // TraceRecorder exports as a "s"/"f" flow-arrow pair.
    std::vector<SpanId> spanIds(stints_.size(), kNoSpan);
    for (std::size_t i = 0; i < stints_.size(); ++i) {
        const Stint &s = stints_[i];
        TraceSpan span;
        span.track = s.server >= 0 &&
                             static_cast<std::size_t>(s.server) <
                                 serverTracks_.size()
                         ? serverTracks_[s.server]
                         : strfmt("server%d", s.server);
        span.name = strfmt("job%d", s.job);
        span.category = s.preempted ? "occupancy.preempted"
                                    : "occupancy";
        span.start = s.start;
        span.end = s.end >= 0.0 ? s.end
                                : std::max(maxTime, s.start);
        span.stage = s.job;
        if (s.resumedFrom >= 0)
            span.deps.push_back(spanIds[s.resumedFrom]);
        spanIds[i] = tr.record(std::move(span));
    }

    for (const CounterSample &s : samples_) {
        tr.recordCounter({"fleet.pending.depth", s.time,
                          static_cast<double>(s.pending)});
        tr.recordCounter({"fleet.running.jobs", s.time,
                          static_cast<double>(s.running)});
        for (std::size_t k = 0; k < s.freePerClass.size(); ++k) {
            std::string name =
                k < classNames_.size()
                    ? "fleet.free." + classNames_[k]
                    : strfmt("fleet.free.class%zu", k);
            tr.recordCounter(
                {std::move(name), s.time,
                 static_cast<double>(s.freePerClass[k])});
        }
    }

    return tr.toChromeJson(metadata_json);
}

} // namespace mobius

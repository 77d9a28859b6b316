#include "fault/fault_plan.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "base/logging.hh"

namespace mobius
{

namespace
{

/** Parse a finite double >= 0; fatal() naming @p where otherwise. */
double
parseNonNeg(const std::string &text, const std::string &where)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == nullptr || end == text.c_str() || *end != '\0' ||
        !std::isfinite(v) || v < 0.0) {
        fatal("fault event '%s': expected a non-negative number, "
              "got '%s'",
              where.c_str(), text.c_str());
    }
    return v;
}

/** Parse a finite double > 0; fatal() naming @p where otherwise. */
double
parsePos(const std::string &text, const std::string &where)
{
    double v = parseNonNeg(text, where);
    if (v <= 0.0)
        fatal("fault event '%s': expected a positive number, got "
              "'%s'",
              where.c_str(), text.c_str());
    return v;
}

/** Split "A<sep>B" at the first @p sep; fatal() when absent. */
std::pair<std::string, std::string>
splitOnce(const std::string &text, char sep,
          const std::string &where, const char *expected)
{
    auto pos = text.find(sep);
    if (pos == std::string::npos || pos == 0 ||
        pos + 1 >= text.size()) {
        fatal("malformed fault event '%s'; expected %s",
              where.c_str(), expected);
    }
    return {text.substr(0, pos), text.substr(pos + 1)};
}

/** A window/flap degradation target; rejects nonsense kinds. */
ResourceRef
parseTarget(const std::string &resource, const Server &server,
            const std::string &where)
{
    ResourceRef ref = parseResourceRef(resource, server, where);
    if (ref.kind == ResourceKind::Category &&
        ref.resource != "transfer") {
        fatal("fault event '%s': category '%s' cannot be degraded; "
              "use rcN, gpuN, cpu, transfer, or link:NAME",
              where.c_str(), ref.resource.c_str());
    }
    return ref;
}

/** Parse one ';'-separated inline event into @p plan. */
void
parseEvent(FaultPlan &plan, const std::string &ev,
           const Server &server)
{
    auto starts = [&](const char *prefix) {
        return ev.rfind(prefix, 0) == 0;
    };
    if (starts("degrade:")) {
        // degrade:RES=F@START+DUR (RES may contain '=' in link
        // names? it cannot — link names use '<->' — but factors
        // never do, so split at the last '=').
        auto eq = ev.rfind('=');
        if (eq == std::string::npos || eq <= 8 ||
            eq + 1 >= ev.size())
            fatal("malformed fault event '%s'; expected "
                  "degrade:RES=F@START+DUR",
                  ev.c_str());
        FaultWindow w;
        w.target = parseTarget(ev.substr(8, eq - 8), server, ev);
        auto [factor, when] = splitOnce(ev.substr(eq + 1), '@', ev,
                                        "degrade:RES=F@START+DUR");
        auto [start, dur] = splitOnce(when, '+', ev,
                                      "degrade:RES=F@START+DUR");
        w.factor = parsePos(factor, ev);
        w.start = parseNonNeg(start, ev);
        w.duration = parsePos(dur, ev);
        plan.windows.push_back(std::move(w));
    } else if (starts("flaky:")) {
        auto eq = ev.rfind('=');
        if (eq == std::string::npos || eq <= 6 ||
            eq + 1 >= ev.size())
            fatal("malformed fault event '%s'; expected "
                  "flaky:RES=F~GAP+DUR",
                  ev.c_str());
        FaultFlap f;
        f.target = parseTarget(ev.substr(6, eq - 6), server, ev);
        auto [factor, rest] = splitOnce(ev.substr(eq + 1), '~', ev,
                                        "flaky:RES=F~GAP+DUR");
        auto [gap, dur] =
            splitOnce(rest, '+', ev, "flaky:RES=F~GAP+DUR");
        f.factor = parsePos(factor, ev);
        f.meanGap = parsePos(gap, ev);
        f.duration = parsePos(dur, ev);
        plan.flaps.push_back(std::move(f));
    } else if (starts("crash:")) {
        auto [res, time] =
            splitOnce(ev.substr(6), '@', ev, "crash:gpuN@T");
        ResourceRef ref = parseResourceRef(res, server, ev);
        if (ref.kind != ResourceKind::GpuCompute)
            fatal("fault event '%s': only GPUs crash; expected "
                  "crash:gpuN@T",
                  ev.c_str());
        plan.crashes.push_back(
            GpuCrash{ref.index, parseNonNeg(time, ev)});
    } else if (starts("xfail=")) {
        plan.xfailProb = parseNonNeg(ev.substr(6), ev);
        if (plan.xfailProb >= 1.0)
            fatal("fault event '%s': failure probability must be "
                  "in [0, 1)",
                  ev.c_str());
    } else if (starts("ckpt=")) {
        auto [interval, cost] =
            splitOnce(ev.substr(5), '+', ev, "ckpt=INTERVAL+COST");
        plan.checkpointInterval = parsePos(interval, ev);
        plan.checkpointCost = parseNonNeg(cost, ev);
    } else if (starts("restart=")) {
        plan.restartCost = parseNonNeg(ev.substr(8), ev);
    } else if (starts("retry=")) {
        auto [budget, backoff] =
            splitOnce(ev.substr(6), '+', ev, "retry=BUDGET+BACKOFF");
        double b = parseNonNeg(budget, ev);
        if (b != std::floor(b) || b > 1000)
            fatal("fault event '%s': BUDGET must be an integer in "
                  "[0, 1000]",
                  ev.c_str());
        plan.retryBudget = static_cast<int>(b);
        plan.retryBackoff = parsePos(backoff, ev);
    } else {
        fatal("unknown fault event '%s'; expected degrade:, "
              "flaky:, crash:, xfail=, ckpt=, restart=, or retry=",
              ev.c_str());
    }
}

} // namespace

FaultPlan
parseFaultSpec(const std::string &text, const Server &server)
{
    FaultPlan plan;
    std::size_t pos = 0;
    bool any = false;
    while (pos <= text.size()) {
        std::size_t sep = text.find(';', pos);
        if (sep == std::string::npos)
            sep = text.size();
        std::string ev = text.substr(pos, sep - pos);
        if (!ev.empty()) {
            parseEvent(plan, ev, server);
            any = true;
        }
        pos = sep + 1;
    }
    if (!any)
        fatal("empty --faults spec");
    return plan;
}

std::string
faultPlanSummary(const FaultPlan &plan)
{
    std::ostringstream os;
    const char *sep = "";
    if (!plan.windows.empty()) {
        os << sep << plan.windows.size() << " degrade window"
           << (plan.windows.size() == 1 ? "" : "s");
        sep = ", ";
    }
    if (!plan.flaps.empty()) {
        os << sep << plan.flaps.size() << " flap source"
           << (plan.flaps.size() == 1 ? "" : "s");
        sep = ", ";
    }
    if (plan.xfailProb > 0.0) {
        os << sep
           << strfmt("xfail %.3g%% (retry %d, backoff %.3gs)",
                     100.0 * plan.xfailProb, plan.retryBudget,
                     plan.retryBackoff);
        sep = ", ";
    }
    if (!plan.crashes.empty()) {
        os << sep << plan.crashes.size() << " crash"
           << (plan.crashes.size() == 1 ? "" : "es");
        sep = ", ";
    }
    if (plan.checkpointInterval > 0.0) {
        os << sep
           << strfmt("ckpt every %.3gs (%.3gs)",
                     plan.checkpointInterval, plan.checkpointCost);
        sep = ", ";
    }
    if (plan.restartCost > 0.0) {
        os << sep << strfmt("restart %.3gs", plan.restartCost);
        sep = ", ";
    }
    if (*sep == '\0')
        os << "none";
    return os.str();
}

} // namespace mobius

#include "obs/critical_path.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/units.hh"
#include "obs/prof.hh"

namespace mobius
{

namespace
{

/** Add @p seconds of on-path span body to @p b under the span's
 *  category; contention stretch always lands on queue. */
void
addBody(AttributionBreakdown &b, const TraceSpan &s, double body)
{
    double w = std::min(s.workSeconds(), body);
    if (w < 0.0)
        w = 0.0;
    double stretch = body - w;
    if (s.category == "compute")
        b.compute += w;
    else if (s.category == "transfer")
        b.transfer += w;
    else if (s.category == "optimizer")
        b.optimizer += w;
    else if (s.category == "fault")
        b.fault += w;
    else
        b.other += w;
    b.queue += stretch;
}

/** Merge intervals and return total covered seconds. */
double
unionSeconds(std::vector<std::pair<double, double>> &iv)
{
    if (iv.empty())
        return 0.0;
    std::sort(iv.begin(), iv.end());
    double total = 0.0;
    double lo = iv.front().first;
    double hi = iv.front().second;
    for (std::size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > hi) {
            total += hi - lo;
            lo = iv[i].first;
            hi = iv[i].second;
        } else {
            hi = std::max(hi, iv[i].second);
        }
    }
    total += hi - lo;
    return total;
}

/** Seconds of @p iv not covered by @p mask (both get sorted). */
double
exposedSeconds(std::vector<std::pair<double, double>> &iv,
               std::vector<std::pair<double, double>> &mask)
{
    if (iv.empty())
        return 0.0;
    double joint = unionSeconds(iv);
    if (mask.empty())
        return joint;
    // |iv \ mask| = |iv ∪ mask| - |mask|
    std::vector<std::pair<double, double>> both = iv;
    both.insert(both.end(), mask.begin(), mask.end());
    return unionSeconds(both) - unionSeconds(mask);
}

} // namespace

StepAttribution
attributeStep(const TraceRecorder &trace)
{
    MOBIUS_PROF_ZONE("obs.critical_path");
    StepAttribution out;
    std::vector<TraceSpan> spans = trace.spans();
    if (spans.empty())
        return out;
    out.spanCount = spans.size();

    std::unordered_map<SpanId, const TraceSpan *> byId;
    byId.reserve(spans.size());
    const TraceSpan *last = nullptr;
    for (const auto &s : spans) {
        byId.emplace(s.id, &s);
        out.totalQueueWait += s.queueWait() + s.stretch();
        if (last == nullptr || s.end > last->end)
            last = &s;
    }
    out.stepTime = last->end;

    // Backward walk from the step-ending span. `cursor` is the upper
    // edge of the not-yet-attributed prefix [0, cursor]; every
    // iteration peels disjoint intervals off it, so the categories
    // partition [0, stepTime] and sum to it exactly.
    double cursor = out.stepTime;
    const TraceSpan *cur = last;
    std::unordered_set<SpanId> visited;
    while (cur != nullptr && cursor > 0.0) {
        if (!visited.insert(cur->id).second)
            break; // defensive: a cycle would mean a broken trace
        // Gap between this span's end and the span it enables.
        if (cursor > cur->end) {
            out.critical.bubble += cursor - cur->end;
            out.stages[-1].bubble += cursor - cur->end;
            cursor = cur->end;
        }
        // Span body [start, cursor]: intrinsic work by category,
        // fair-share stretch as queue.
        double body = std::max(0.0, cursor - std::max(0.0,
                                                      cur->start));
        addBody(out.critical, *cur, body);
        addBody(out.stages[cur->stage], *cur, body);
        // Wait [ready, start]: the work was runnable but its engine
        // or link was busy — contention.
        double ready = cur->readyTime();
        double wait = std::min(cur->start, cursor) -
            std::min(ready, cursor);
        if (wait > 0.0) {
            out.critical.queue += wait;
            out.stages[cur->stage].queue += wait;
        }
        cursor = std::min(cursor, ready);

        CriticalPathEntry e;
        e.id = cur->id;
        e.track = cur->track;
        e.name = cur->name;
        e.category = cur->category;
        e.gpu = cur->gpu;
        e.stage = cur->stage;
        e.start = cur->start;
        e.end = cur->end;
        e.queueWait = wait > 0.0 ? wait : 0.0;
        e.stretch = body - std::min(cur->workSeconds(), body);
        out.path.push_back(std::move(e));

        // Follow the binding dependency: the predecessor that
        // finished last is the one this span actually waited for.
        const TraceSpan *binding = nullptr;
        for (SpanId d : cur->deps) {
            auto it = byId.find(d);
            if (it == byId.end())
                continue;
            if (binding == nullptr ||
                it->second->end > binding->end) {
                binding = it->second;
            }
        }
        cur = binding;
    }
    if (cursor > 0.0) {
        // Head of the step before the first caused span: warm-up
        // idle with no recorded predecessor.
        out.critical.bubble += cursor;
        out.stages[-1].bubble += cursor;
    }

    // Per-GPU occupancy: compute spans never overlap on a GPU, so a
    // plain sum is exact; transfers can overlap each other and
    // compute, so take interval unions.
    std::map<int, std::vector<std::pair<double, double>>> computeIv;
    std::map<int, std::vector<std::pair<double, double>>> xferIv;
    for (const auto &s : spans) {
        if (s.gpu < 0 || s.duration() <= 0.0)
            continue;
        if (s.category == "compute")
            computeIv[s.gpu].emplace_back(s.start, s.end);
        else if (s.category == "transfer")
            xferIv[s.gpu].emplace_back(s.start, s.end);
    }
    std::unordered_set<int> gpuIds;
    for (const auto &[g, _] : computeIv)
        gpuIds.insert(g);
    for (const auto &[g, _] : xferIv)
        gpuIds.insert(g);
    std::vector<int> order(gpuIds.begin(), gpuIds.end());
    std::sort(order.begin(), order.end());
    for (int g : order) {
        GpuAttribution ga;
        ga.gpu = g;
        auto ci = computeIv.find(g);
        auto xi = xferIv.find(g);
        static std::vector<std::pair<double, double>> none;
        auto &cv = ci == computeIv.end() ? none : ci->second;
        auto &xv = xi == xferIv.end() ? none : xi->second;
        ga.compute = unionSeconds(cv);
        if (cv.empty())
            ga.compute = 0.0;
        ga.exposed = exposedSeconds(xv, cv);
        ga.bubble = std::max(0.0, out.stepTime - ga.compute -
                                      ga.exposed);
        ga.bubbleFraction = out.stepTime > 0.0
            ? ga.bubble / out.stepTime
            : 0.0;
        out.gpus.push_back(ga);
    }
    return out;
}

namespace
{

void
breakdownJson(std::ostringstream &os, const AttributionBreakdown &b)
{
    os << "{\"compute\":" << b.compute
       << ",\"transfer\":" << b.transfer
       << ",\"queue\":" << b.queue
       << ",\"optimizer\":" << b.optimizer
       << ",\"fault\":" << b.fault
       << ",\"bubble\":" << b.bubble
       << ",\"other\":" << b.other
       << ",\"total\":" << b.total() << "}";
}

} // namespace

std::string
attributionToJson(const StepAttribution &a, int top_k)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"stepTime\":" << a.stepTime
       << ",\"spanCount\":" << a.spanCount
       << ",\"totalQueueWait\":" << a.totalQueueWait
       << ",\"critical\":";
    breakdownJson(os, a.critical);
    os << ",\"stages\":{";
    bool first = true;
    for (const auto &[stage, b] : a.stages) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << stage << "\":";
        breakdownJson(os, b);
    }
    os << "},\"gpus\":[";
    first = true;
    for (const auto &g : a.gpus) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"gpu\":" << g.gpu << ",\"compute\":" << g.compute
           << ",\"exposedTransfer\":" << g.exposed
           << ",\"bubble\":" << g.bubble
           << ",\"bubbleFraction\":" << g.bubbleFraction << "}";
    }
    os << "],\"path\":[";
    std::size_t limit = top_k > 0
        ? std::min(a.path.size(), static_cast<std::size_t>(top_k))
        : a.path.size();
    for (std::size_t i = 0; i < limit; ++i) {
        const auto &e = a.path[i];
        if (i > 0)
            os << ",";
        os << "{\"id\":" << e.id << ",\"track\":\""
           << json::escape(e.track) << "\",\"name\":\""
           << json::escape(e.name) << "\",\"category\":\""
           << json::escape(e.category) << "\",\"gpu\":" << e.gpu
           << ",\"stage\":" << e.stage << ",\"start\":" << e.start
           << ",\"end\":" << e.end
           << ",\"queueWait\":" << e.queueWait
           << ",\"stretch\":" << e.stretch << "}";
    }
    os << "]}";
    return os.str();
}

std::string
attributionTable(const StepAttribution &a, int top_k)
{
    std::ostringstream os;
    double t = a.stepTime > 0.0 ? a.stepTime : 1.0;
    os << strfmt("step time: %s  (%zu spans, critical path %zu "
                 "spans)\n",
                 formatSeconds(a.stepTime).c_str(), a.spanCount,
                 a.path.size());
    os << "where the time goes (critical path):\n";
    auto row = [&](const char *label, double v) {
        os << strfmt("  %-10s %12s  %5.1f%%\n", label,
                     formatSeconds(v).c_str(), 100.0 * v / t);
    };
    row("compute", a.critical.compute);
    row("transfer", a.critical.transfer);
    row("queue", a.critical.queue);
    row("optimizer", a.critical.optimizer);
    if (a.critical.fault > 0.0)
        row("fault", a.critical.fault);
    row("bubble", a.critical.bubble);
    if (a.critical.other > 0.0)
        row("other", a.critical.other);
    os << strfmt("  %-10s %12s  %5.1f%%\n", "total",
                 formatSeconds(a.critical.total()).c_str(),
                 100.0 * a.critical.total() / t);
    os << strfmt("aggregate queue wait (all spans): %s\n",
                 formatSeconds(a.totalQueueWait).c_str());

    // Heaviest critical-path spans: the spans a perf PR should
    // attack first.
    std::vector<const CriticalPathEntry *> heavy;
    heavy.reserve(a.path.size());
    for (const auto &e : a.path)
        heavy.push_back(&e);
    std::sort(heavy.begin(), heavy.end(),
              [](const CriticalPathEntry *x,
                 const CriticalPathEntry *y) {
                  return x->pathSeconds() > y->pathSeconds();
              });
    std::size_t limit = top_k > 0
        ? std::min(heavy.size(), static_cast<std::size_t>(top_k))
        : heavy.size();
    if (limit > 0) {
        os << strfmt("top %zu critical spans:\n", limit);
        os << strfmt("  %-14s %-10s %-10s %5s %12s %12s\n", "track",
                     "name", "category", "stage", "on-path",
                     "queued");
        for (std::size_t i = 0; i < limit; ++i) {
            const auto &e = *heavy[i];
            os << strfmt("  %-14s %-10s %-10s %5d %12s %12s\n",
                         e.track.c_str(), e.name.c_str(),
                         e.category.c_str(), e.stage,
                         formatSeconds(e.pathSeconds()).c_str(),
                         formatSeconds(e.queueWait).c_str());
        }
    }
    if (!a.stages.empty()) {
        os << "per-stage critical seconds:\n";
        os << strfmt("  %5s %12s %12s %12s %12s\n", "stage",
                     "compute", "transfer", "queue", "bubble");
        for (const auto &[stage, b] : a.stages) {
            os << strfmt("  %5d %12s %12s %12s %12s\n", stage,
                         formatSeconds(b.compute).c_str(),
                         formatSeconds(b.transfer).c_str(),
                         formatSeconds(b.queue).c_str(),
                         formatSeconds(b.bubble).c_str());
        }
    }
    if (!a.gpus.empty()) {
        os << "per-GPU occupancy:\n";
        os << strfmt("  %5s %12s %12s %12s %8s\n", "gpu", "compute",
                     "exposed-xfer", "bubble", "bubble%");
        for (const auto &g : a.gpus) {
            os << strfmt("  %5d %12s %12s %12s %7.1f%%\n", g.gpu,
                         formatSeconds(g.compute).c_str(),
                         formatSeconds(g.exposed).c_str(),
                         formatSeconds(g.bubble).c_str(),
                         100.0 * g.bubbleFraction);
        }
    }
    return os.str();
}

} // namespace mobius

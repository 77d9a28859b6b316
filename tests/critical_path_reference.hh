/**
 * @file
 * Frozen reference for critical-path attribution (test-only).
 *
 * This is attributeStep() as it was before it walked the recorder in
 * place: it materialises every span with TraceRecorder::spans() and
 * walks the owning TraceSpan copies. attributeStep() must return the
 * same critical, stages, gpus, path, totalQueueWait and spanCount, bit
 * for bit. Keep this file as it is: it is the oracle, not an
 * implementation to tune.
 */

#ifndef MOBIUS_TESTS_CRITICAL_PATH_REFERENCE_HH
#define MOBIUS_TESTS_CRITICAL_PATH_REFERENCE_HH

#include <algorithm>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/critical_path.hh"
#include "simcore/trace.hh"

namespace mobius::reference
{

namespace detail
{

/** Add @p seconds of on-path span body to @p b under the span's
 *  category; contention stretch always lands on queue. */
inline void
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
inline double
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
inline double
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

} // namespace detail

/** attributeStep() over materialised TraceSpan copies. */
inline StepAttribution
attributeStep(const TraceRecorder &trace)
{
    StepAttribution out;
    // In recording order, so spans[id - 1] is span `id`.
    std::vector<TraceSpan> spans = trace.spans();
    if (spans.empty())
        return out;
    out.spanCount = spans.size();

    const TraceSpan *last = nullptr;
    for (const auto &s : spans) {
        out.totalQueueWait += s.queueWait() + s.stretch();
        if (last == nullptr || s.end > last->end)
            last = &s;
    }
    out.stepTime = last->end;

    double cursor = out.stepTime;
    const TraceSpan *cur = last;
    while (cur != nullptr && cursor > 0.0) {
        if (cursor > cur->end) {
            out.critical.bubble += cursor - cur->end;
            out.stages[-1].bubble += cursor - cur->end;
            cursor = cur->end;
        }
        double body = std::max(0.0, cursor - std::max(0.0,
                                                      cur->start));
        detail::addBody(out.critical, *cur, body);
        detail::addBody(out.stages[cur->stage], *cur, body);
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

        const TraceSpan *binding = nullptr;
        for (SpanId d : cur->deps) {
            const TraceSpan &dep = spans[d - 1];
            if (binding == nullptr || dep.end > binding->end)
                binding = &dep;
        }
        cur = binding;
    }
    if (cursor > 0.0) {
        out.critical.bubble += cursor;
        out.stages[-1].bubble += cursor;
    }

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
        ga.compute = detail::unionSeconds(cv);
        if (cv.empty())
            ga.compute = 0.0;
        ga.exposed = detail::exposedSeconds(xv, cv);
        ga.bubble = std::max(0.0, out.stepTime - ga.compute -
                                      ga.exposed);
        ga.bubbleFraction = out.stepTime > 0.0
            ? ga.bubble / out.stepTime
            : 0.0;
        out.gpus.push_back(ga);
    }
    return out;
}

} // namespace mobius::reference

#endif // MOBIUS_TESTS_CRITICAL_PATH_REFERENCE_HH

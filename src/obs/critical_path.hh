/**
 * @file
 * Critical-path extraction and per-category time attribution over a
 * completed-span DAG (see simcore/trace.hh for the edge model).
 *
 * The paper's performance claims are causal: Mobius wins because
 * prefetch overlaps transfer with compute (§3.1, Fig. 8) and because
 * cross mapping reduces root-complex contention (§3.3, Eq. 12-13,
 * Fig. 10-11). attributeStep() turns one simulated step's trace into
 * an audited blame table that measures those claims directly:
 *
 *  - walk backward from the span that ends the step, at each span
 *    jumping to its latest-ending dependency — the *critical path*;
 *  - partition [0, stepTime] into disjoint intervals attributed to
 *    compute / transfer / optimizer work on the path, queue
 *    (contention: time a ready piece of work waited for its engine or
 *    was stretched below its bottleneck bandwidth by fair sharing),
 *    and bubble (idle gaps with no recorded cause).
 *
 * The categories sum to the step time *exactly* (each attributed
 * interval is disjoint and they cover [0, stepTime]), which is the
 * invariant bench_attribution enforces. Aggregate (off-path) queue
 * waits are also summed, since a schedule can hide contention off the
 * critical path.
 */

#ifndef MOBIUS_OBS_CRITICAL_PATH_HH
#define MOBIUS_OBS_CRITICAL_PATH_HH

#include <map>
#include <string>
#include <vector>

#include "simcore/trace.hh"

namespace mobius
{

class MetricsRegistry;

/** Seconds attributed to each cause; total() covers [0, stepTime]. */
struct AttributionBreakdown
{
    double compute = 0.0;   //!< kernel work on the path
    double transfer = 0.0;  //!< uncontended data movement on the path
    double queue = 0.0;     //!< contention: queue wait + stretch
    double optimizer = 0.0; //!< CPU optimizer work on the path
    double fault = 0.0;     //!< fault/retry/recovery work on the path
    double bubble = 0.0;    //!< idle gaps with no recorded cause
    double other = 0.0;     //!< spans of any unrecognised category

    /** @return the sum of every category. */
    double
    total() const
    {
        return compute + transfer + queue + optimizer + fault +
            bubble + other;
    }
};

/** One span on the extracted critical path. */
struct CriticalPathEntry
{
    SpanId id = kNoSpan;
    std::string track;    //!< e.g. "gpu2.h2d"
    std::string name;     //!< e.g. "F3,1" or "S5.fwd"
    std::string category; //!< "compute" | "transfer" | ...
    int gpu = -1;
    int stage = -1;
    double start = 0.0;
    double end = 0.0;
    double queueWait = 0.0; //!< seconds [ready, start) — contention
    double stretch = 0.0;   //!< in-span fair-share stretch seconds

    /** @return seconds this entry puts on the critical path. */
    double
    pathSeconds() const
    {
        return (end - start) + queueWait;
    }
};

/** Per-GPU occupancy split of [0, stepTime]. */
struct GpuAttribution
{
    int gpu = -1;
    double compute = 0.0;  //!< kernel seconds (spans never overlap)
    double exposed = 0.0;  //!< transfer seconds not hidden by compute
    double bubble = 0.0;   //!< stepTime - compute - exposed

    /** @return bubble / stepTime (0 when the step is empty). */
    double bubbleFraction = 0.0;
};

/** Everything attributeStep() derives from one step's trace. */
struct StepAttribution
{
    double stepTime = 0.0; //!< max span end (simulated seconds)

    /** Blame table along the critical path; sums to stepTime. */
    AttributionBreakdown critical;

    /** The critical path, ordered step-end -> step-start. */
    std::vector<CriticalPathEntry> path;

    /** Critical-path seconds grouped by span stage (-1 = none). */
    std::map<int, AttributionBreakdown> stages;

    /** Per-GPU occupancy; index is dense over seen GPU ids. */
    std::vector<GpuAttribution> gpus;

    /** Sum of queue wait + stretch over *all* spans, on- or
     *  off-path — total contention in the schedule. */
    double totalQueueWait = 0.0;

    /** Spans considered (recorded spans with a positive interval). */
    std::size_t spanCount = 0;
};

/**
 * Walk @p trace's completed-span DAG and attribute the step's time.
 * Robust to empty traces (returns all-zero attribution).
 */
StepAttribution attributeStep(const TraceRecorder &trace);

/** Serialise @p a as a JSON object (stable field names, see
 *  EXPERIMENTS.md "BENCH_attribution.json"). @p top_k caps the
 *  emitted path entries (<= 0 = all). */
std::string attributionToJson(const StepAttribution &a,
                              int top_k = 0);

/**
 * Render the human-readable `--explain` report: the blame table, the
 * top-@p top_k critical-path spans by pathSeconds(), and the per-GPU
 * bubble fractions.
 */
std::string attributionTable(const StepAttribution &a,
                             int top_k = 10);

/**
 * Fold @p a into @p registry so a `--metrics` export carries the
 * step's blame table beside the simulated metrics:
 *
 *  - counter `attrib.critical.<category>.seconds` for compute,
 *    transfer, queue, optimizer, fault and bubble
 *  - counter `attrib.queue.total.seconds` (on- and off-path waits)
 *  - gauge   `gpu<N>.bubble.fraction` per GPU
 */
void exportAttribution(const StepAttribution &a,
                       MetricsRegistry &registry);

} // namespace mobius

#endif // MOBIUS_OBS_CRITICAL_PATH_HH

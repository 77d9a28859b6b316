/**
 * @file
 * Execution trace recording with causal dependency edges.
 *
 * Executors and engines emit spans (named intervals on a track, e.g.
 * "gpu0.compute" or "gpu2.h2d"); the metrics sampler additionally
 * emits counter samples (named time series, e.g. "xfer.queue.depth")
 * that Perfetto renders as live graphs.
 *
 * Every recorded span gets a stable SpanId, and producers may attach
 * *why* the span started when it did:
 *
 *  - `deps`     — ids of spans that causally enabled this one (the
 *                 activation transfer a compute waited for, the weight
 *                 chunks of a prefetch, the compute that freed memory
 *                 for a stage load);
 *  - `queuedAt` — when the work was ready to occupy its resource;
 *                 `start - queuedAt` is time spent queued behind other
 *                 work on the same engine or link (contention);
 *  - `work`     — the span's intrinsic uncontended seconds; any excess
 *                 of `duration()` over `work` is fair-share stretching
 *                 (a transfer throttled below its bottleneck link).
 *
 * The completed-span DAG is what obs/critical_path.hh walks to
 * attribute each step's time (compute / transfer / queue / optimizer
 * / bubble). The recorder exports Chrome tracing JSON — including
 * "ph":"s"/"f" flow events so Perfetto draws the dependency arrows —
 * and an ASCII Gantt chart. Tests use the edges to assert schedule
 * invariants, e.g. the paper's pipeline-order constraints (Eq. 8-11)
 * directly on the DAG.
 *
 * Track and category strings are interned: each span stores two
 * 32-bit ids instead of two heap strings, which keeps large-run
 * traces from dominating simulator memory. The string API is
 * preserved on record and on export.
 *
 * Span storage is arena-backed: names live in one contiguous char
 * arena and dependency lists in one contiguous SpanId arena, so the
 * stored span record is a flat POD and record() performs no per-span
 * heap allocation once the arenas are warm. Large sweeps can presize
 * the arenas with reserve() and recycle a recorder across replicas
 * with clear() (which keeps the arena capacity).
 */

#ifndef MOBIUS_SIMCORE_TRACE_HH
#define MOBIUS_SIMCORE_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simcore/event_queue.hh"

namespace mobius
{

/** Stable identifier of a recorded span. 0 means "no span". */
using SpanId = std::uint64_t;

/** The null span id. */
constexpr SpanId kNoSpan = 0;

/** One traced interval. */
struct TraceSpan
{
    std::string track;     //!< e.g. "gpu0.compute"
    std::string name;      //!< e.g. "F3,2" or "load S5"
    std::string category;  //!< "compute" | "transfer" | ...
    SimTime start = 0.0;   //!< span begin (simulated seconds)
    SimTime end = 0.0;     //!< span end (simulated seconds)

    /** Assigned by TraceRecorder::record() when left at kNoSpan. */
    SpanId id = kNoSpan;
    /** Spans that causally enabled this one (kNoSpan entries are
     *  dropped on record). */
    std::vector<SpanId> deps;
    /**
     * When the work could first have occupied its resource (all
     * inputs present, request issued); < 0 means "at start", i.e. no
     * measured queueing. `start - queuedAt` is queue wait.
     */
    SimTime queuedAt = -1.0;
    /**
     * Intrinsic uncontended seconds of the span (for a transfer:
     * bytes / bottleneck bandwidth); < 0 means "the full duration".
     * `duration() - work` is contention-induced stretch.
     */
    double work = -1.0;
    int gpu = -1;   //!< owning GPU, -1 = none (e.g. CPU optimizer)
    int stage = -1; //!< pipeline stage (or layer) gated, -1 = none

    /** @return span length in simulated seconds. */
    double duration() const { return end - start; }

    /** @return effective ready time (clamped to [0, start]). */
    SimTime
    readyTime() const
    {
        if (queuedAt < 0.0 || queuedAt > start)
            return start;
        return queuedAt;
    }

    /** @return intrinsic work seconds (clamped to the duration). */
    double
    workSeconds() const
    {
        double d = duration();
        if (work < 0.0 || work > d)
            return d;
        return work;
    }

    /** @return seconds queued before start (>= 0). */
    double queueWait() const { return start - readyTime(); }

    /** @return contention stretch inside the span (>= 0). */
    double stretch() const { return duration() - workSeconds(); }
};

/**
 * One sample of a named time series ("ph":"C" in Chrome tracing;
 * Perfetto draws each name as a stacked-area counter track).
 */
struct TraceCounter
{
    std::string name;    //!< e.g. "xfer.queue.depth"
    SimTime time = 0.0;  //!< sample time (simulated seconds)
    double value = 0.0;  //!< sampled value
};

/** Collects spans during a simulated run. */
class TraceRecorder
{
  public:
    /**
     * Record a completed span; interns its track/category strings.
     * kNoSpan entries in @p span.deps are dropped. When the recorder
     * is disabled (setEnabled(false)) the span is discarded and
     * kNoSpan returned.
     * @return the span's id (assigned when @p span.id is kNoSpan).
     */
    SpanId record(TraceSpan span);

    /**
     * Turn recording on (the default) or off. Long request-driven
     * runs (the serving simulator) disable recording so span storage
     * does not grow with simulated traffic; producers need no code
     * change because record() degrades to returning kNoSpan.
     */
    void setEnabled(bool on) { enabled_ = on; }

    /** @return true when record() stores spans. */
    bool enabled() const { return enabled_; }

    /** Record one counter sample. */
    void recordCounter(TraceCounter counter);

    /**
     * Pre-size the span store: capacity for @p spans records,
     * @p name_bytes of span-name arena, and @p deps dependency-edge
     * arena entries. Purely an allocation hint — recording past the
     * reservation grows geometrically as usual.
     */
    void reserve(std::size_t spans, std::size_t name_bytes,
                 std::size_t deps);

    /** Number of recorded spans. */
    std::size_t spanCount() const { return spans_.size(); }

    /** Materialise the span at @p index (recording order). */
    TraceSpan span(std::size_t index) const;

    /** Materialise every recorded span, in recording order. */
    std::vector<TraceSpan> spans() const;

    /**
     * Materialise the span with id @p id. O(1) for ids the recorder
     * assigned; a caller-assigned id may cost a scan. Ids are
     * expected to be unique: if a caller assigns one twice, either
     * span may be returned.
     * @return true and fill @p out when found.
     */
    bool findSpan(SpanId id, TraceSpan &out) const;

    /**
     * @return the latest end time over all recorded spans (0 when
     *         empty) — the traced step's makespan, without
     *         materialising any span.
     */
    SimTime maxEnd() const;

    /** All recorded counter samples, in recording order. */
    const std::vector<TraceCounter> &
    counters() const
    {
        return counters_;
    }

    /** @return true when nothing has been recorded. */
    bool
    empty() const
    {
        return spans_.empty() && counters_.empty();
    }

    /** Forget all recorded spans and counter samples. */
    void clear();

    /**
     * Move everything recorded so far into @p dst (replacing its
     * contents, arenas and all — no per-span copying) and leave
     * this recorder empty. This is the cheap span-retention hook:
     * a caller that wants a run's trace to outlive its RunContext
     * (e.g. the fleet retaining step spans for attribution) takes
     * the arenas wholesale instead of materialising spans.
     */
    void moveInto(TraceRecorder &dst);

    /** Spans on one track, in start order. */
    std::vector<TraceSpan> onTrack(const std::string &track) const;

    /** Spans whose name matches exactly, in start order. */
    std::vector<TraceSpan> named(const std::string &name) const;

    /**
     * Serialise as Chrome tracing JSON: a "traceEvents" array of
     * complete events ("ph":"X"), counter events ("ph":"C"), and one
     * flow-event pair ("ph":"s"/"f") per dependency edge so Perfetto
     * draws the causal arrows. Microsecond timestamps. Each span's
     * "args" carries its causal fields (id, gpu, stage, queueWait,
     * stretch, work — the latter three in seconds) so offline tools
     * (tools/trace_diff) can diff contention without the recorder.
     *
     * @param metadata_json optional JSON object emitted verbatim as
     *        a top-level "metadata" member (e.g. the run manifest);
     *        Perfetto ignores it, trace_diff uses it to refuse
     *        comparisons across incompatible runs.
     */
    std::string
    toChromeJson(const std::string &metadata_json = "") const;

    /**
     * Render an ASCII Gantt chart, one row per track, @p width
     * characters across the full simulated time range.
     */
    std::string toAsciiGantt(int width = 72) const;

  private:
    /** Hashes the stored records in place. */
    friend std::uint64_t spanFingerprint(const TraceRecorder &trace);

    /**
     * Compact stored form: a flat POD. Strings are intern ids, the
     * name is an (offset, length) slice of nameArena_, and the
     * dependency list an (offset, count) slice of depArena_.
     */
    struct SpanRec
    {
        std::uint32_t track = 0;
        std::uint32_t category = 0;
        std::uint32_t nameOff = 0;
        std::uint32_t nameLen = 0;
        std::uint32_t depOff = 0;
        std::uint32_t depCount = 0;
        SimTime start = 0.0;
        SimTime end = 0.0;
        SimTime queuedAt = -1.0;
        double work = -1.0;
        SpanId id = kNoSpan;
        std::int32_t gpu = -1;
        std::int32_t stage = -1;
    };

    std::uint32_t intern(const std::string &s);
    TraceSpan materialise(const SpanRec &rec) const;
    /** The arena-backed name slice of @p rec. */
    std::string_view
    nameOf(const SpanRec &rec) const
    {
        return std::string_view(nameArena_.data() + rec.nameOff,
                                rec.nameLen);
    }

    std::vector<SpanRec> spans_;
    std::vector<TraceCounter> counters_;
    /** All span names, back to back (see SpanRec::nameOff). */
    std::vector<char> nameArena_;
    /** All dependency edges, back to back (see SpanRec::depOff). */
    std::vector<SpanId> depArena_;
    /** Interned track/category strings; index is the intern id. */
    std::vector<std::string> strings_;
    std::map<std::string, std::uint32_t> internIndex_;
    SpanId nextId_ = 1;
    bool enabled_ = true;
};

/**
 * A completed-span DAG in schedulable form: spans topologically
 * ordered by (start, end, id) — a valid order because a dependency
 * always ends no later than its dependent starts — with dependency
 * edges resolved to indices and each span bound to its serial engine
 * (its track: one compute stream, copy engine, or optimizer thread).
 * This is the substrate counterfactual evaluators (obs/whatif.hh)
 * re-schedule.
 */
struct SpanDag
{
    /** Spans in topological (start-time) order. */
    std::vector<TraceSpan> spans;

    /** preds[i] = indices of spans[i]'s resolved dependencies. */
    std::vector<std::vector<std::size_t>> preds;

    /** engine[i] = dense id of the serial resource spans[i] ran on. */
    std::vector<std::size_t> engine;

    /** Track name per dense engine id. */
    std::vector<std::string> engineNames;

    /** Position of a span id within spans (dropped deps resolve to
     *  nothing and are absent from preds). */
    std::unordered_map<SpanId, std::size_t> index;

    /** @return max span end — the traced step's makespan. */
    double stepTime() const;
};

/** Extract the schedulable DAG from @p trace's recorded spans. */
SpanDag buildSpanDag(const TraceRecorder &trace);

/**
 * Stable 64-bit digest of every recorded span, in recording order:
 * an FNV-1a hash over each span's track/name/category strings, the
 * raw bit patterns of start/end/queuedAt/work, its gpu and stage,
 * and its dependency ids. Two runs produce the same fingerprint iff
 * they recorded byte-identical span streams — the equality gate the
 * fleet simulator uses to assert cache-hit and cross-thread-width
 * runs are span-for-span identical without retaining full traces.
 */
std::uint64_t spanFingerprint(const TraceRecorder &trace);

} // namespace mobius

#endif // MOBIUS_SIMCORE_TRACE_HH

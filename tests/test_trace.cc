/**
 * @file
 * Trace recorder tests — both record() overloads, the in-place view,
 * re-interning after clear()/moveInto(), allocation-free engine
 * spans — plus trace-driven verification that the *executed* Mobius
 * and 1F1B schedules satisfy the paper's pipeline-order constraints
 * (Eq. 8-11), both on span timestamps and causally, as reachability
 * over the recorded `deps` DAG.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "alloc_counter.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "runtime/api.hh"
#include "simcore/trace.hh"
#include "xfer/compute_engine.hh"

namespace mobius
{
namespace
{

/** Build a span field-by-field (aggregate init would warn). */
TraceSpan
mkSpan(const std::string &track, const std::string &name,
       const std::string &category, double start, double end)
{
    TraceSpan s;
    s.track = track;
    s.name = name;
    s.category = category;
    s.start = start;
    s.end = end;
    return s;
}

/** Reachability queries over a recorded span DAG. */
class DagView
{
  public:
    explicit DagView(const TraceRecorder &trace)
    {
        for (TraceSpan &s : trace.spans())
            byId_.emplace(s.id, std::move(s));
    }

    /** @return whether @p from transitively depends on @p to. */
    bool
    reaches(SpanId from, SpanId to) const
    {
        std::vector<SpanId> stack{from};
        std::set<SpanId> seen;
        while (!stack.empty()) {
            SpanId id = stack.back();
            stack.pop_back();
            if (id == to)
                return true;
            if (!seen.insert(id).second)
                continue;
            auto it = byId_.find(id);
            if (it == byId_.end())
                continue;
            for (SpanId d : it->second.deps)
                stack.push_back(d);
        }
        return false;
    }

  private:
    std::map<SpanId, TraceSpan> byId_;
};

TEST(TraceRecorder, TrackAndNameQueries)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "F1,0", "compute", 2.0, 3.0));
    rec.record(mkSpan("gpu0.compute", "F0,0", "compute", 0.0, 1.0));
    rec.record(mkSpan("gpu1.compute", "F1,1", "compute", 1.5, 2.5));

    auto t0 = rec.onTrack("gpu0.compute");
    ASSERT_EQ(t0.size(), 2u);
    EXPECT_EQ(t0[0].name, "F0,0"); // sorted by start
    EXPECT_EQ(t0[1].name, "F1,0");

    auto f11 = rec.named("F1,1");
    ASSERT_EQ(f11.size(), 1u);
    EXPECT_DOUBLE_EQ(f11[0].duration(), 1.0);
}

TEST(TraceRecorder, SetEnabledDropsRecording)
{
    TraceRecorder rec;
    EXPECT_TRUE(rec.enabled());
    rec.setEnabled(false);
    EXPECT_EQ(rec.record(mkSpan("gpu0.compute", "F0,0", "compute",
                                0.0, 1.0)),
              kNoSpan);
    TraceCounter c;
    c.name = "mem";
    c.time = 0.5;
    c.value = 1.0;
    rec.recordCounter(c);
    EXPECT_EQ(rec.spanCount(), 0u);
    rec.setEnabled(true);
    EXPECT_NE(rec.record(mkSpan("gpu0.compute", "F1,0", "compute",
                                1.0, 2.0)),
              kNoSpan);
    EXPECT_EQ(rec.spanCount(), 1u);
}

TEST(TraceRecorder, ChromeJsonWellFormed)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "F0,0", "compute", 0.0, 0.5));
    rec.record(mkSpan("gpu0.h2d", "S1.fwd", "transfer", 0.1, 0.4));
    std::string json = rec.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"F0,0\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Balanced braces/brackets.
    int depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(TraceRecorder, AsciiGanttRendersEveryTrack)
{
    TraceRecorder rec;
    rec.record(mkSpan("gpu0.compute", "F0,0", "compute", 0.0, 0.5));
    rec.record(mkSpan("gpu1.compute", "F1,0", "compute", 0.5, 1.0));
    std::string g = rec.toAsciiGantt(40);
    EXPECT_NE(g.find("gpu0.compute"), std::string::npos);
    EXPECT_NE(g.find("gpu1.compute"), std::string::npos);
    EXPECT_NE(g.find("F"), std::string::npos);
}

TEST(TraceRecorder, AssignsStableIdsAndDropsNullDeps)
{
    TraceRecorder rec;
    SpanId a = rec.record(
        mkSpan("gpu0.compute", "A", "compute", 0.0, 1.0));
    TraceSpan b = mkSpan("gpu0.compute", "B", "compute", 1.0, 2.0);
    b.deps = {a, kNoSpan, a};
    SpanId bid = rec.record(b);
    EXPECT_NE(a, kNoSpan);
    EXPECT_NE(bid, a);

    TraceSpan out = rec.span(bid - 1);
    EXPECT_EQ(out.id, bid);
    ASSERT_EQ(out.deps.size(), 2u); // kNoSpan dropped
    EXPECT_EQ(out.deps[0], a);

    // Ids are recording positions + 1; a preset id is ignored.
    TraceSpan c = mkSpan("gpu1.compute", "C", "compute", 0.0, 1.0);
    c.id = 7;
    EXPECT_EQ(rec.record(c), 3u);
    EXPECT_EQ(rec.span(2).name, "C");
    EXPECT_EQ(rec.span(2).id, 3u);
    EXPECT_EQ(rec.view(2).id, 3u);
}

TEST(TraceRecorderDeathTest, DepOnALaterSpanPanics)
{
    TraceRecorder rec;
    SpanId a = rec.record(
        mkSpan("gpu0.compute", "A", "compute", 0.0, 1.0));
    TraceSpan b = mkSpan("gpu0.compute", "B", "compute", 1.0, 2.0);
    b.deps = {a + 1}; // B itself would get this id
    EXPECT_DEATH(rec.record(b), "not an earlier span");
    b.deps = {a + 5};
    EXPECT_DEATH(rec.record(b), "not an earlier span");
}

TEST(TraceRecorder, QueueWaitAndStretchDerivations)
{
    TraceSpan s = mkSpan("gpu0.h2d", "S0.fwd", "transfer", 2.0, 5.0);
    EXPECT_DOUBLE_EQ(s.queueWait(), 0.0); // unset => "at start"
    EXPECT_DOUBLE_EQ(s.stretch(), 0.0);   // unset => all work
    s.queuedAt = 1.0;
    s.work = 2.0;
    EXPECT_DOUBLE_EQ(s.queueWait(), 1.0);
    EXPECT_DOUBLE_EQ(s.stretch(), 1.0);
    // Out-of-range markers clamp instead of going negative.
    s.queuedAt = 9.0;
    s.work = 99.0;
    EXPECT_DOUBLE_EQ(s.queueWait(), 0.0);
    EXPECT_DOUBLE_EQ(s.stretch(), 0.0);
}

TEST(TraceRecorder, ChromeJsonParsesAndRoundTripsEscapes)
{
    TraceRecorder rec;
    SpanId a = rec.record(mkSpan("gpu0.compute", "quote\" back\\sl",
                                 "compute", 0.0, 0.5));
    TraceSpan b =
        mkSpan("track\"x\\y", "B", "transfer", 0.5, 1.0);
    b.deps = {a};
    rec.record(b);
    rec.recordCounter({"depth\"q", 0.1, 2.0});

    json::JsonValue doc;
    ASSERT_NO_THROW(doc = json::parse(rec.toChromeJson()));
    const auto &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());

    bool name_ok = false, track_ok = false, counter_ok = false;
    int flow_s = 0, flow_f = 0;
    for (const auto &e : events.array) {
        const std::string &ph = e.at("ph").string;
        const std::string &name = e.at("name").string;
        if (ph == "X" && name == "quote\" back\\sl")
            name_ok = true;
        if (ph == "M" &&
            e.at("args").at("name").string == "track\"x\\y") {
            track_ok = true;
        }
        if (ph == "C" && name == "depth\"q") {
            counter_ok = true;
            EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 2.0);
        }
        if (ph == "s")
            ++flow_s;
        if (ph == "f")
            ++flow_f;
    }
    EXPECT_TRUE(name_ok);    // '"' and '\' survive the round trip
    EXPECT_TRUE(track_ok);
    EXPECT_TRUE(counter_ok);
    // One flow pair per dependency edge.
    EXPECT_EQ(flow_s, 1);
    EXPECT_EQ(flow_f, 1);
}

TEST(TraceRecorder, RecordByNameMatchesRecordTraceSpan)
{
    // Tracks first seen out of name order, so the intern order shows
    // in toChromeJson's thread_name events.
    struct Spec
    {
        const char *track, *name, *suffix, *category;
        double start, end, queuedAt, work;
        int gpu, stage;
        std::vector<SpanId> deps;
    };
    const std::vector<Spec> specs = {
        {"gpu1.h2d", "S0.fwd", "", "transfer", 0.0, 1.0, 0.0, 0.5, 1,
         0, {}},
        {"gpu0.compute", "F0,0", "", "compute", 1.0, 2.0, -1.0, -1.0,
         0, 0, {1, kNoSpan}},
        {"gpu1.h2d", "S1.fwd", "!fail", "fault", 1.0, 1.5, 0.5, 0.25,
         1, 1, {1}},
        {"cpu.optim", "adam", "", "optimizer", 2.0, 3.0, 1.5, 0.75,
         -1, 1, {2, 3}},
        {"gpu0.compute", "F1,0", "", "compute", 2.0, 2.5, 1.5, -1.0,
         0, 1, {2}},
    };

    TraceRecorder byName, bySpan;
    // One TraceName per producer and string, as the engines hold.
    std::map<std::string, TraceName> names;
    for (const Spec &p : specs) {
        for (const char *s : {p.track, p.category})
            names.try_emplace(s, s);
        SpanFields f;
        f.name = p.name;
        f.nameSuffix = p.suffix;
        f.deps = p.deps;
        f.start = p.start;
        f.end = p.end;
        f.queuedAt = p.queuedAt;
        f.work = p.work;
        f.gpu = p.gpu;
        f.stage = p.stage;
        SpanId a = byName.record(names.at(p.track),
                                 names.at(p.category), f);

        TraceSpan t = mkSpan(p.track, std::string(p.name) + p.suffix,
                             p.category, p.start, p.end);
        t.deps = p.deps;
        t.queuedAt = p.queuedAt;
        t.work = p.work;
        t.gpu = p.gpu;
        t.stage = p.stage;
        EXPECT_EQ(a, bySpan.record(t));
    }

    ASSERT_EQ(byName.spanCount(), specs.size());
    ASSERT_EQ(bySpan.spanCount(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "span " << i);
        const TraceSpan a = byName.span(i);
        const TraceSpan b = bySpan.span(i);
        EXPECT_EQ(a.track, b.track);
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.category, b.category);
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.end, b.end);
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.deps, b.deps);
        EXPECT_EQ(a.queuedAt, b.queuedAt);
        EXPECT_EQ(a.work, b.work);
        EXPECT_EQ(a.gpu, b.gpu);
        EXPECT_EQ(a.stage, b.stage);

        // The in-place view reads the same span.
        const SpanView v = byName.view(i);
        EXPECT_EQ(v.id, a.id);
        EXPECT_EQ(v.track, a.track);
        EXPECT_EQ(v.name, a.name);
        EXPECT_EQ(v.category, a.category);
        EXPECT_EQ(std::vector<SpanId>(v.deps.begin(), v.deps.end()),
                  a.deps);
        EXPECT_EQ(v.start, a.start);
        EXPECT_EQ(v.end, a.end);
        EXPECT_EQ(v.queuedAt, a.queuedAt);
        EXPECT_EQ(v.work, a.work);
        EXPECT_EQ(v.gpu, a.gpu);
        EXPECT_EQ(v.stage, a.stage);
    }
    EXPECT_EQ(byName.span(2).name, "S1.fwd!fail");
    EXPECT_EQ(byName.span(1).deps, std::vector<SpanId>{1});
    EXPECT_EQ(spanFingerprint(byName), spanFingerprint(bySpan));
    EXPECT_EQ(byName.toChromeJson(), bySpan.toChromeJson());
}

TEST(TraceRecorder, NamesReinternAfterClearAndMoveInto)
{
    SpanFields f;
    f.name = "F0,0";
    f.end = 1.0;
    TraceName track("gpu0.compute");
    TraceName category("compute");
    // Another producer takes the fresh table's first ids (0 and 1),
    // so a stale cached id would store the span under its strings.
    auto expectRecordedUnderOwnNames = [&](TraceRecorder &rec) {
        rec.record(mkSpan("gpu9.h2d", "other", "transfer", 0.0, 1.0));
        SpanId id = rec.record(track, category, f);
        ASSERT_NE(id, kNoSpan);
        const SpanView v = rec.view(id - 1);
        EXPECT_EQ(v.track, "gpu0.compute");
        EXPECT_EQ(v.category, "compute");
        EXPECT_EQ(v.name, "F0,0");
    };

    TraceRecorder rec;
    rec.record(track, category, f); // caches ids 0 and 1
    rec.clear();
    expectRecordedUnderOwnNames(rec);

    // The emptied source of a moveInto() starts a fresh table...
    TraceRecorder kept;
    rec.moveInto(kept);
    expectRecordedUnderOwnNames(rec);

    // ...and its destination's producers re-intern into the table
    // it received: ids 0 and 1 there now name gpu9.h2d/transfer.
    TraceRecorder dst;
    TraceName dstTrack("gpu3.d2h");
    TraceName dstCategory("transfer");
    dst.record(dstTrack, dstCategory, f);
    TraceRecorder src;
    src.record(mkSpan("gpu9.h2d", "other", "compute", 0.0, 1.0));
    src.moveInto(dst);
    SpanId id = dst.record(dstTrack, dstCategory, f);
    ASSERT_EQ(id, 2u);
    EXPECT_EQ(dst.view(1).track, "gpu3.d2h");
    EXPECT_EQ(dst.view(1).category, "transfer");
    EXPECT_EQ(dst.view(0).track, "gpu9.h2d");
}

TEST(TraceRecorderAlloc, WarmRecorderRecordsEngineSpansWithoutAllocating)
{
    EventQueue q;
    TraceRecorder trace;
    trace.reserve(1024, 1 << 16, 4096);
    ComputeEngine engine(q, nullptr, 0, &trace);
    int done = 0;
    auto submitBatch = [&] {
        for (int i = 0; i < 64; ++i) {
            std::vector<SpanId> deps;
            if (trace.spanCount() > 0)
                deps = {1, trace.spanCount()};
            engine.submit(1e-3, [&done] { ++done; }, "F12,3",
                          std::move(deps), 3);
        }
    };
    // Warm-up: the track and category get interned, and the event
    // queue and the engine's task queue grow.
    submitBatch();
    q.run();

    submitBatch();
    const std::size_t before = g_new_calls.load();
    q.run();
    const std::size_t allocs = g_new_calls.load() - before;
    EXPECT_EQ(allocs, 0u);
    // Not vacuous: every kernel retired and recorded a span with its
    // deps.
    EXPECT_EQ(done, 128);
    ASSERT_EQ(trace.spanCount(), 128u);
    const SpanView last = trace.view(127);
    EXPECT_EQ(last.track, "gpu0.compute");
    EXPECT_EQ(last.name, "F12,3");
    EXPECT_EQ(last.deps.size(), 2u);
}

/** Runs one Mobius step and exposes the trace. */
class MobiusTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        server_ = std::make_unique<Server>(
            makeCommodityServer({2, 2}));
        work_ = std::make_unique<Workload>(gpt8b(), *server_);
        plan_ = planMobius(*server_, work_->cost());
        ctx_ = std::make_unique<RunContext>(*server_);
        MobiusExecutor exec(*ctx_, work_->cost(), plan_.partition,
                            plan_.mapping);
        stats_ = exec.run();
        S_ = plan_.stageCount();
        M_ = work_->cost().cfg().numMicrobatches;
    }

    /** The unique span named @p name; fails the test if absent. */
    TraceSpan
    span(const std::string &name)
    {
        auto v = ctx_->trace().named(name);
        EXPECT_EQ(v.size(), 1u) << name;
        return v.empty() ? TraceSpan{} : v[0];
    }

    std::unique_ptr<Server> server_;
    std::unique_ptr<Workload> work_;
    MobiusPlan plan_;
    std::unique_ptr<RunContext> ctx_;
    StepStats stats_;
    int S_ = 0;
    int M_ = 0;
};

TEST_F(MobiusTraceTest, EveryMicrobatchExecutesOnce)
{
    for (int j = 0; j < S_; ++j) {
        for (int m = 0; m < M_; ++m) {
            EXPECT_EQ(
                ctx_->trace().named(strfmt("F%d,%d", j, m)).size(),
                1u);
            EXPECT_EQ(
                ctx_->trace().named(strfmt("B%d,%d", j, m)).size(),
                1u);
        }
    }
}

TEST_F(MobiusTraceTest, Eq8ActivationOrder)
{
    // A stage cannot start a microbatch before its predecessor
    // finished that microbatch (plus transfer, which only adds).
    for (int j = 1; j < S_; ++j) {
        for (int m = 0; m < M_; ++m) {
            EXPECT_GE(span(strfmt("F%d,%d", j, m)).start,
                      span(strfmt("F%d,%d", j - 1, m)).end - 1e-9);
            EXPECT_GE(span(strfmt("B%d,%d", j - 1, m)).start,
                      span(strfmt("B%d,%d", j, m)).end - 1e-9);
        }
    }
}

TEST_F(MobiusTraceTest, Eq10MicrobatchesSequentialPerStage)
{
    for (int j = 0; j < S_; ++j) {
        for (int m = 1; m < M_; ++m) {
            EXPECT_GE(span(strfmt("F%d,%d", j, m)).start,
                      span(strfmt("F%d,%d", j, m - 1)).end - 1e-9);
            EXPECT_GE(span(strfmt("B%d,%d", j, m)).start,
                      span(strfmt("B%d,%d", j, m - 1)).end - 1e-9);
        }
    }
}

TEST_F(MobiusTraceTest, Eq11BackwardAfterForward)
{
    EXPECT_GE(span(strfmt("B%d,0", S_ - 1)).start,
              span(strfmt("F%d,%d", S_ - 1, M_ - 1)).end - 1e-9);
}

TEST_F(MobiusTraceTest, Eq9WeightsBeforeCompute)
{
    // A stage's first forward starts only after its weight load
    // finished (the load may be split into chunks; take the last).
    for (int j = 0; j < S_; ++j) {
        auto loads = ctx_->trace().named(strfmt("S%d.fwd", j));
        ASSERT_FALSE(loads.empty()) << "stage " << j;
        double load_end = 0;
        for (const auto &l : loads)
            load_end = std::max(load_end, l.end);
        EXPECT_GE(span(strfmt("F%d,0", j)).start, load_end - 1e-9);
    }
}

TEST_F(MobiusTraceTest, Eq8DagEdges)
{
    // Causal version of Eq. 8: the DAG itself must encode *why* a
    // stage waited — F(j,m) transitively depends on F(j-1,m)
    // (through the activation handoff), and B(j-1,m) on B(j,m)
    // (through the gradient handoff), not merely start later.
    DagView dag(ctx_->trace());
    for (int j = 1; j < S_; ++j) {
        for (int m = 0; m < M_; ++m) {
            EXPECT_TRUE(dag.reaches(span(strfmt("F%d,%d", j, m)).id,
                                    span(strfmt("F%d,%d", j - 1, m))
                                        .id))
                << "F" << j << "," << m;
            EXPECT_TRUE(
                dag.reaches(span(strfmt("B%d,%d", j - 1, m)).id,
                            span(strfmt("B%d,%d", j, m)).id))
                << "B" << j - 1 << "," << m;
        }
    }
}

TEST_F(MobiusTraceTest, Eq10DagEdges)
{
    // Causal version of Eq. 10: a stage's microbatches chain
    // through its compute engine in order.
    DagView dag(ctx_->trace());
    for (int j = 0; j < S_; ++j) {
        for (int m = 1; m < M_; ++m) {
            EXPECT_TRUE(dag.reaches(span(strfmt("F%d,%d", j, m)).id,
                                    span(strfmt("F%d,%d", j, m - 1))
                                        .id))
                << "F" << j << "," << m;
            EXPECT_TRUE(dag.reaches(span(strfmt("B%d,%d", j, m)).id,
                                    span(strfmt("B%d,%d", j, m - 1))
                                        .id))
                << "B" << j << "," << m;
        }
    }
}

TEST_F(MobiusTraceTest, Eq11DagEdge)
{
    // Causal version of Eq. 11: the first backward of the last
    // stage depends on that stage's final forward.
    DagView dag(ctx_->trace());
    EXPECT_TRUE(dag.reaches(span(strfmt("B%d,0", S_ - 1)).id,
                            span(strfmt("F%d,%d", S_ - 1, M_ - 1))
                                .id));
}

TEST_F(MobiusTraceTest, Eq9DagWeightEdges)
{
    // Causal version of Eq. 9: a stage's first forward depends on
    // its weight-load chunks (every stage loads from DRAM).
    DagView dag(ctx_->trace());
    for (int j = 0; j < S_; ++j) {
        auto loads = ctx_->trace().named(strfmt("S%d.fwd", j));
        ASSERT_FALSE(loads.empty()) << "stage " << j;
        SpanId f = span(strfmt("F%d,0", j)).id;
        for (const auto &l : loads) {
            EXPECT_TRUE(dag.reaches(f, l.id))
                << "F" << j << ",0 <- " << l.name;
        }
    }
}

TEST_F(MobiusTraceTest, ComputeSpansNeverOverlapPerGpu)
{
    for (int g = 0; g < ctx_->numGpus(); ++g) {
        auto spans = ctx_->trace().onTrack(
            "gpu" + std::to_string(g) + ".compute");
        for (std::size_t i = 1; i < spans.size(); ++i) {
            EXPECT_GE(spans[i].start, spans[i - 1].end - 1e-9)
                << "gpu " << g << " span " << i;
        }
    }
}

TEST_F(MobiusTraceTest, PrefetchOverlapsPredecessorCompute)
{
    // The point of §3.1: at least one stage's forward weight load
    // overlaps some earlier compute span on the same GPU.
    bool overlapped = false;
    for (int j = ctx_->numGpus(); j < S_ && !overlapped; ++j) {
        auto loads = ctx_->trace().named(strfmt("S%d.fwd", j));
        if (loads.empty())
            continue;
        int gpu = plan_.mapping.gpuOf(j);
        auto computes = ctx_->trace().onTrack(
            "gpu" + std::to_string(gpu) + ".compute");
        for (const auto &l : loads) {
            for (const auto &c : computes) {
                if (l.start < c.end - 1e-9 &&
                    c.start < l.end - 1e-9) {
                    overlapped = true;
                    break;
                }
            }
        }
    }
    EXPECT_TRUE(overlapped);
}

TEST_F(MobiusTraceTest, GanttAndJsonExportWork)
{
    EXPECT_FALSE(ctx_->trace().empty());
    std::string json = ctx_->trace().toChromeJson();
    EXPECT_GT(json.size(), 1000u);
    std::string gantt = ctx_->trace().toAsciiGantt();
    EXPECT_NE(gantt.find("gpu0.compute"), std::string::npos);
}

/** Runs one 1F1B pipeline step and exposes the trace. */
class OneFOneBTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        server_ = std::make_unique<Server>(
            makeCommodityServer({2, 2}));
        work_ = std::make_unique<Workload>(gpt3b(), *server_);
        S_ = server_->topo.numGpus();
        Partition p =
            balancedComputePartition(work_->cost(), S_);
        Mapping m = sequentialMapping(server_->topo, S_);
        ctx_ = std::make_unique<RunContext>(*server_);
        PipelineExecutor exec(*ctx_, work_->cost(), p, m,
                              PipelineSchedule::OneFOneB);
        exec.run();
        M_ = work_->cost().cfg().numMicrobatches;
    }

    /** The unique span named @p name; fails the test if absent. */
    TraceSpan
    span(const std::string &name)
    {
        auto v = ctx_->trace().named(name);
        EXPECT_EQ(v.size(), 1u) << name;
        return v.empty() ? TraceSpan{} : v[0];
    }

    std::unique_ptr<Server> server_;
    std::unique_ptr<Workload> work_;
    std::unique_ptr<RunContext> ctx_;
    int S_ = 0;
    int M_ = 0;
};

TEST_F(OneFOneBTraceTest, Eq8DagEdges)
{
    DagView dag(ctx_->trace());
    for (int j = 1; j < S_; ++j) {
        for (int m = 0; m < M_; ++m) {
            EXPECT_TRUE(dag.reaches(span(strfmt("F%d,%d", j, m)).id,
                                    span(strfmt("F%d,%d", j - 1, m))
                                        .id))
                << "F" << j << "," << m;
            EXPECT_TRUE(
                dag.reaches(span(strfmt("B%d,%d", j - 1, m)).id,
                            span(strfmt("B%d,%d", j, m)).id))
                << "B" << j - 1 << "," << m;
        }
    }
}

TEST_F(OneFOneBTraceTest, Eq10DagEdges)
{
    DagView dag(ctx_->trace());
    for (int j = 0; j < S_; ++j) {
        for (int m = 1; m < M_; ++m) {
            EXPECT_TRUE(dag.reaches(span(strfmt("F%d,%d", j, m)).id,
                                    span(strfmt("F%d,%d", j, m - 1))
                                        .id))
                << "F" << j << "," << m;
            EXPECT_TRUE(dag.reaches(span(strfmt("B%d,%d", j, m)).id,
                                    span(strfmt("B%d,%d", j, m - 1))
                                        .id))
                << "B" << j << "," << m;
        }
    }
}

TEST_F(OneFOneBTraceTest, BackwardGatedByOwnForward)
{
    // The 1F1B pivot: the last stage turns each microbatch around
    // immediately, so B(S-1,m) hangs off F(S-1,m) — not off the
    // final forward as in a GPipe-style flush (Eq. 11).
    DagView dag(ctx_->trace());
    for (int m = 0; m < M_; ++m) {
        EXPECT_TRUE(
            dag.reaches(span(strfmt("B%d,%d", S_ - 1, m)).id,
                        span(strfmt("F%d,%d", S_ - 1, m)).id))
            << m;
    }
}

TEST(PrefetchAblation, PrefetchHelpsWhenLoadsAreCoarse)
{
    // Prefetch matters most for coarse stages on uncontended links
    // (under a shared root complex, prefetch flows fair-share
    // bandwidth away from other GPUs' critical loads and the net
    // gain shrinks — see EXPERIMENTS.md). The pipeline also absorbs
    // single blocking stalls, so the gain is a few percent, not the
    // full load time.
    Server server = makeCommodityServer({1, 1, 1, 1});
    Workload work(gpt15b(), server, 4);
    Partition p = uniformPartition(work.cost().numLayers(), 11);
    Mapping map = crossMapping(server.topo, 11).mapping;

    auto run = [&](int lookahead) {
        MobiusExecutorConfig cfg;
        cfg.prefetchLookahead = lookahead;
        RunContext ctx(server);
        MobiusExecutor exec(ctx, work.cost(), p, map, cfg);
        return exec.run().stepTime;
    };
    double without = run(0);
    double with = run(1);
    EXPECT_LT(with, without * 0.99);
}

TEST(SsdTierAblation, NvmeRateCapSlowsWeightLoads)
{
    // §3.1's rationale for DRAM-only offload: an SSD-rate source
    // bottlenecks the pipeline.
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    MobiusPlan plan = planMobius(server, work.cost());

    StepRunOptions dram;
    StepRunOptions ssd;
    ssd.exec.mobius.weightSourceRateCap = 3.0e9; // NVMe-class reads
    StepStats a =
        runStep(System::Mobius, server, work.cost(), &plan, dram).stats;
    StepStats b =
        runStep(System::Mobius, server, work.cost(), &plan, ssd).stats;
    EXPECT_GT(b.stepTime, a.stepTime * 1.5);
}

} // namespace
} // namespace mobius

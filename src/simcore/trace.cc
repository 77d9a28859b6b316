#include "simcore/trace.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "base/hash.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/units.hh"
#include "obs/prof.hh"

namespace mobius
{

std::uint32_t
TraceRecorder::intern(const std::string &s)
{
    auto it = internIndex_.find(s);
    if (it != internIndex_.end())
        return it->second;
    std::uint32_t id = static_cast<std::uint32_t>(strings_.size());
    strings_.push_back(s);
    internIndex_.emplace(s, id);
    return id;
}

void
TraceRecorder::reserve(std::size_t spans, std::size_t name_bytes,
                       std::size_t deps)
{
    spans_.reserve(spans);
    nameArena_.reserve(name_bytes);
    depArena_.reserve(deps);
}

SpanId
TraceRecorder::record(TraceSpan span)
{
    if (!enabled_)
        return kNoSpan;
    MOBIUS_PROF_ZONE("simcore.span_record");
    // Large runs record hundreds of thousands of spans; grow the
    // record array and both arenas in coarse steps from the start
    // instead of doubling from 1.
    if (spans_.size() == spans_.capacity())
        spans_.reserve(spans_.empty() ? 1024 : spans_.size() * 2);
    if (nameArena_.size() + span.name.size() > nameArena_.capacity())
        nameArena_.reserve(std::max<std::size_t>(
            16384, nameArena_.capacity() * 2));
    if (depArena_.size() + span.deps.size() > depArena_.capacity())
        depArena_.reserve(std::max<std::size_t>(
            4096, depArena_.capacity() * 2));

    SpanRec rec;
    rec.track = intern(span.track);
    rec.category = intern(span.category);
    rec.nameOff = static_cast<std::uint32_t>(nameArena_.size());
    rec.nameLen = static_cast<std::uint32_t>(span.name.size());
    nameArena_.insert(nameArena_.end(), span.name.begin(),
                      span.name.end());
    rec.start = span.start;
    rec.end = span.end;
    rec.queuedAt = span.queuedAt;
    rec.work = span.work;
    rec.gpu = span.gpu;
    rec.stage = span.stage;
    rec.id = span.id == kNoSpan ? nextId_++ : span.id;
    if (span.id != kNoSpan && span.id >= nextId_)
        nextId_ = span.id + 1;
    rec.depOff = static_cast<std::uint32_t>(depArena_.size());
    for (SpanId d : span.deps) {
        if (d != kNoSpan) {
            depArena_.push_back(d);
            ++rec.depCount;
        }
    }
    spans_.push_back(rec);
    return rec.id;
}

void
TraceRecorder::recordCounter(TraceCounter counter)
{
    if (!enabled_)
        return;
    if (counters_.size() == counters_.capacity())
        counters_.reserve(counters_.empty() ? 1024
                                            : counters_.size() * 2);
    counters_.push_back(std::move(counter));
}

TraceSpan
TraceRecorder::materialise(const SpanRec &rec) const
{
    TraceSpan s;
    s.track = strings_[rec.track];
    s.name = std::string(nameOf(rec));
    s.category = strings_[rec.category];
    s.start = rec.start;
    s.end = rec.end;
    s.queuedAt = rec.queuedAt;
    s.work = rec.work;
    s.id = rec.id;
    s.gpu = rec.gpu;
    s.stage = rec.stage;
    s.deps.assign(depArena_.begin() + rec.depOff,
                  depArena_.begin() + rec.depOff + rec.depCount);
    return s;
}

TraceSpan
TraceRecorder::span(std::size_t index) const
{
    return materialise(spans_.at(index));
}

std::vector<TraceSpan>
TraceRecorder::spans() const
{
    std::vector<TraceSpan> out;
    out.reserve(spans_.size());
    for (const auto &rec : spans_)
        out.push_back(materialise(rec));
    return out;
}

bool
TraceRecorder::findSpan(SpanId id, TraceSpan &out) const
{
    // Ids the recorder assigns are dense from 1, so span `id` is
    // usually at index id - 1; a caller-assigned id sends the lookup
    // to the scan.
    if (id != kNoSpan && id <= spans_.size() &&
        spans_[id - 1].id == id) {
        out = materialise(spans_[id - 1]);
        return true;
    }
    for (const auto &rec : spans_) {
        if (rec.id == id) {
            out = materialise(rec);
            return true;
        }
    }
    return false;
}

SimTime
TraceRecorder::maxEnd() const
{
    SimTime t = 0.0;
    for (const auto &rec : spans_)
        t = std::max(t, rec.end);
    return t;
}

void
TraceRecorder::clear()
{
    // Arenas keep their capacity: a recorder recycled across sweep
    // replicas records the next run allocation-free.
    spans_.clear();
    counters_.clear();
    nameArena_.clear();
    depArena_.clear();
    strings_.clear();
    internIndex_.clear();
    nextId_ = 1;
}

void
TraceRecorder::moveInto(TraceRecorder &dst)
{
    dst = std::move(*this);
    *this = TraceRecorder();
}

std::vector<TraceSpan>
TraceRecorder::onTrack(const std::string &track) const
{
    std::vector<TraceSpan> out;
    auto it = internIndex_.find(track);
    if (it == internIndex_.end())
        return out;
    std::uint32_t want = it->second;
    for (const auto &rec : spans_) {
        if (rec.track == want)
            out.push_back(materialise(rec));
    }
    std::sort(out.begin(), out.end(),
              [](const TraceSpan &a, const TraceSpan &b) {
                  return a.start < b.start;
              });
    return out;
}

std::vector<TraceSpan>
TraceRecorder::named(const std::string &name) const
{
    std::vector<TraceSpan> out;
    for (const auto &rec : spans_) {
        if (nameOf(rec) == name)
            out.push_back(materialise(rec));
    }
    std::sort(out.begin(), out.end(),
              [](const TraceSpan &a, const TraceSpan &b) {
                  return a.start < b.start;
              });
    return out;
}

std::string
TraceRecorder::toChromeJson(const std::string &metadata_json) const
{
    // Stable process id 1; one thread id per track (name order).
    std::map<std::uint32_t, int> tids;
    for (const auto &rec : spans_)
        tids.emplace(rec.track, 0);
    {
        std::vector<std::uint32_t> order;
        for (const auto &[track, _] : tids)
            order.push_back(track);
        std::sort(order.begin(), order.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return strings_[a] < strings_[b];
                  });
        int tid = 1;
        for (std::uint32_t t : order)
            tids[t] = tid++;
    }

    std::ostringstream os;
    os << "{";
    if (!metadata_json.empty())
        os << "\"metadata\":" << metadata_json << ",";
    os << "\"traceEvents\":[";
    bool first = true;
    for (const auto &[track, tid] : tids) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
           << "\"tid\":" << tid << ",\"args\":{\"name\":\""
           << json::escape(strings_[track]) << "\"}}";
    }
    for (const auto &rec : spans_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << json::escape(nameOf(rec))
           << "\",\"cat\":\"" << json::escape(strings_[rec.category])
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
           << tids.at(rec.track) << ",\"ts\":" << rec.start * 1e6
           << ",\"dur\":" << (rec.end - rec.start) * 1e6
           << ",\"args\":{\"id\":" << rec.id
           << ",\"gpu\":" << rec.gpu << ",\"stage\":" << rec.stage;
        // Causal fields in seconds, derived exactly as the TraceSpan
        // accessors do, so trace_diff reproduces attribution sums.
        double dur = rec.end - rec.start;
        double ready = rec.queuedAt < 0.0 || rec.queuedAt > rec.start
            ? rec.start
            : rec.queuedAt;
        double work_s = rec.work < 0.0 || rec.work > dur ? dur
                                                         : rec.work;
        os << ",\"queueWait\":" << rec.start - ready
           << ",\"stretch\":" << dur - work_s
           << ",\"work\":" << work_s << "}}";
    }
    // One flow-event pair per dependency edge: "s" anchored at the
    // producing span's end, "f" (binding "e" = enclosing slice) at
    // the consumer's start. Perfetto renders these as arrows.
    std::unordered_map<SpanId, const SpanRec *> byId;
    byId.reserve(spans_.size());
    for (const auto &rec : spans_)
        byId.emplace(rec.id, &rec);
    std::uint64_t edge = 1;
    for (const auto &rec : spans_) {
        for (std::uint32_t k = 0; k < rec.depCount; ++k) {
            SpanId d = depArena_[rec.depOff + k];
            auto it = byId.find(d);
            if (it == byId.end())
                continue;
            const SpanRec &src = *it->second;
            os << ",{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\","
               << "\"id\":" << edge << ",\"pid\":1,\"tid\":"
               << tids.at(src.track) << ",\"ts\":" << src.end * 1e6
               << "}";
            os << ",{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\","
               << "\"bp\":\"e\",\"id\":" << edge << ",\"pid\":1,"
               << "\"tid\":" << tids.at(rec.track)
               << ",\"ts\":" << rec.start * 1e6 << "}";
            ++edge;
        }
    }
    // Counter samples share pid 1; Perfetto groups them by name into
    // counter tracks rendered as graphs.
    for (const auto &c : counters_) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << json::escape(c.name)
           << "\",\"ph\":\"C\",\"pid\":1,\"ts\":" << c.time * 1e6
           << ",\"args\":{\"value\":" << c.value << "}}";
    }
    os << "]}";
    return os.str();
}

double
SpanDag::stepTime() const
{
    double t = 0.0;
    for (const auto &s : spans)
        t = std::max(t, s.end);
    return t;
}

SpanDag
buildSpanDag(const TraceRecorder &trace)
{
    SpanDag dag;
    dag.spans = trace.spans();
    // (start, end, id) order is topological: a dependency finishes
    // no later than its dependent starts, so it sorts first.
    std::sort(dag.spans.begin(), dag.spans.end(),
              [](const TraceSpan &a, const TraceSpan &b) {
                  if (a.start != b.start)
                      return a.start < b.start;
                  if (a.end != b.end)
                      return a.end < b.end;
                  return a.id < b.id;
              });
    dag.index.reserve(dag.spans.size());
    for (std::size_t i = 0; i < dag.spans.size(); ++i)
        dag.index.emplace(dag.spans[i].id, i);

    std::unordered_map<std::string, std::size_t> engines;
    dag.preds.resize(dag.spans.size());
    dag.engine.resize(dag.spans.size());
    for (std::size_t i = 0; i < dag.spans.size(); ++i) {
        const TraceSpan &s = dag.spans[i];
        auto [it, fresh] =
            engines.emplace(s.track, dag.engineNames.size());
        if (fresh)
            dag.engineNames.push_back(s.track);
        dag.engine[i] = it->second;
        dag.preds[i].reserve(s.deps.size());
        for (SpanId d : s.deps) {
            auto di = dag.index.find(d);
            if (di != dag.index.end())
                dag.preds[i].push_back(di->second);
        }
    }
    return dag;
}

std::uint64_t
spanFingerprint(const TraceRecorder &trace)
{
    // The stored records hashed in place: the same byte stream a
    // materialised TraceSpan per record would give, without building
    // its strings and dependency vector.
    std::uint64_t h = kFnvOffset;
    const std::size_t n = trace.spans_.size();
    fnvBytes(h, &n, sizeof(n));
    for (const TraceRecorder::SpanRec &rec : trace.spans_) {
        fnvString(h, trace.strings_[rec.track]);
        fnvString(h, trace.nameOf(rec));
        fnvString(h, trace.strings_[rec.category]);
        fnvDouble(h, rec.start);
        fnvDouble(h, rec.end);
        fnvDouble(h, rec.queuedAt);
        fnvDouble(h, rec.work);
        std::int64_t gpu = rec.gpu, stage = rec.stage;
        fnvBytes(h, &gpu, sizeof(gpu));
        fnvBytes(h, &stage, sizeof(stage));
        std::uint64_t deps = rec.depCount;
        fnvBytes(h, &deps, sizeof(deps));
        if (rec.depCount) {
            fnvBytes(h, trace.depArena_.data() + rec.depOff,
                     rec.depCount * sizeof(SpanId));
        }
    }
    return h;
}

std::string
TraceRecorder::toAsciiGantt(int width) const
{
    if (spans_.empty())
        return "(empty trace)\n";
    if (width < 10)
        panic("gantt width too small");

    SimTime t0 = spans_.front().start;
    SimTime t1 = spans_.front().end;
    std::size_t track_w = 0;
    std::map<std::string, int> tracks;
    for (const auto &rec : spans_) {
        t0 = std::min(t0, rec.start);
        t1 = std::max(t1, rec.end);
        const std::string &track = strings_[rec.track];
        tracks.emplace(track, 0);
        track_w = std::max(track_w, track.size());
    }
    double span = std::max(t1 - t0, 1e-12);

    std::map<std::string, std::string> rows;
    for (auto &[track, _] : tracks)
        rows[track] = std::string(static_cast<std::size_t>(width),
                                  '.');
    for (const auto &rec : spans_) {
        int lo = static_cast<int>((rec.start - t0) / span *
                                  (width - 1));
        int hi = static_cast<int>((rec.end - t0) / span *
                                  (width - 1));
        char mark = strings_[rec.category] == "compute" ? '#' : '=';
        char head = rec.nameLen == 0 ? mark : nameOf(rec)[0];
        auto &row = rows[strings_[rec.track]];
        for (int i = lo; i <= hi && i < width; ++i)
            row[i] = i == lo ? head : mark;
    }

    std::ostringstream os;
    os << strfmt("time range: %s .. %s\n",
                 formatSeconds(t0).c_str(),
                 formatSeconds(t1).c_str());
    for (const auto &[track, row] : rows) {
        os << track
           << std::string(track_w + 1 - track.size(), ' ') << "|"
           << row << "|\n";
    }
    os << "('#'/letter = compute span, '=' = transfer span)\n";
    return os.str();
}

} // namespace mobius

#include "fault/fault_injector.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mobius
{

std::uint64_t
faultStreamSeed(std::uint64_t seed, std::uint64_t stream)
{
    // One SplitMix64 round over the (seed, stream) pair.
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

namespace
{

/** RNG stream indices — fixed; reordering breaks reproducibility. */
constexpr std::uint64_t kStreamXfail = 0;
constexpr std::uint64_t kStreamBackoff = 1;
constexpr std::uint64_t kStreamFlap = 2;

} // namespace

FaultInjector::FaultInjector(
    EventQueue &queue, const Topology &topo, TransferEngine &xfer,
    std::vector<ComputeEngine *> compute, FaultPlan plan,
    std::uint64_t seed, std::function<void(double)> cpu_throttle,
    std::function<bool()> workload_idle, TraceRecorder *trace,
    MetricsRegistry *metrics)
    : queue_(queue), topo_(topo), xfer_(xfer),
      compute_(std::move(compute)), plan_(std::move(plan)),
      cpuThrottle_(std::move(cpu_throttle)),
      workloadIdle_(std::move(workload_idle)), trace_(trace),
      xfailRng_(faultStreamSeed(seed, kStreamXfail)),
      backoffRng_(faultStreamSeed(seed, kStreamBackoff)),
      flapRng_(faultStreamSeed(seed, kStreamFlap)),
      linkFactor_(topo.numLinks(), 1.0),
      computeFactor_(topo.numGpus(), 1.0)
{
    if (static_cast<int>(compute_.size()) != topo_.numGpus())
        panic("fault injector needs one compute engine per GPU "
              "(%zu given, %d GPUs)",
              compute_.size(), topo_.numGpus());
    if (!workloadIdle_)
        panic("fault injector needs a workload-idle callback");
    if (metrics) {
        mFailures_ = &metrics->counter("fault.failures");
        mRetries_ = &metrics->counter("fault.retries");
        mCrashes_ = &metrics->counter("fault.crashes");
        mCheckpoints_ = &metrics->counter("fault.checkpoints");
        mWindows_ = &metrics->counter("fault.windows");
        mBackoffSeconds_ =
            &metrics->counter("fault.backoff.seconds");
        mLostSeconds_ = &metrics->counter("fault.lost.seconds");
        mRecoverySeconds_ =
            &metrics->counter("fault.recovery.seconds");
        mCheckpointSeconds_ =
            &metrics->counter("fault.checkpoint.seconds");
    }
}

void
FaultInjector::arm()
{
    for (const FaultWindow &w : plan_.windows)
        armWindow(w);
    for (const FaultFlap &f : plan_.flaps)
        armFlap(f, 0.0);
    for (const GpuCrash &c : plan_.crashes)
        armCrash(c);
    armCheckpoint();
}

void
FaultInjector::scheduleFault(double when, std::function<void()> fn)
{
    if (stopped_)
        return;
    // The callback needs its own EventId to drop itself from
    // ownEvents_; the id only exists after schedule() returns, hence
    // the shared cell.
    auto id = std::make_shared<EventId>(kNoEvent);
    *id = queue_.schedule(
        when, [this, id, fn = std::move(fn)] {
            ownEvents_.erase(*id);
            if (maybeStop())
                return;
            fn();
        });
    ownEvents_.insert(*id);
}

bool
FaultInjector::maybeStop()
{
    if (stopped_)
        return true;
    if (retryPending_ > 0 || !workloadIdle_())
        return false;
    stop();
    return true;
}

void
FaultInjector::stop()
{
    stopped_ = true;
    for (EventId id : ownEvents_)
        queue_.cancel(id);
    ownEvents_.clear();
    if (!openSpans_.empty() && trace_) {
        // Clamp still-open windows to the workload's last span end
        // so decorative fault spans never extend the step.
        double max_end = 0.0;
        for (std::size_t i = 0; i < trace_->spanCount(); ++i)
            max_end = std::max(max_end, trace_->span(i).end);
        for (const OpenSpan &o : openSpans_) {
            TraceSpan s;
            s.track = "fault.events";
            s.name = o.name;
            s.category = "fault";
            s.start = o.start;
            s.end = std::max(o.start, max_end);
            trace_->record(std::move(s));
        }
    }
    openSpans_.clear();
}

void
FaultInjector::applyFactor(const ResourceRef &target, double factor)
{
    switch (target.kind) {
    case ResourceKind::GpuCompute:
        computeFactor_[target.index] *= factor;
        compute_[target.index]->setThrottle(
            computeFactor_[target.index]);
        break;
    case ResourceKind::CpuOptimizer:
        cpuFactor_ *= factor;
        if (cpuThrottle_)
            cpuThrottle_(cpuFactor_);
        break;
    default:
        for (int l : resourceLinks(target, topo_)) {
            linkFactor_[l] *= factor;
            xfer_.setLinkCapacityFactor(l, linkFactor_[l]);
        }
        break;
    }
}

void
FaultInjector::openSpan(std::string name, double factor)
{
    openSpans_.push_back(
        OpenSpan{std::move(name), queue_.now(), factor});
}

void
FaultInjector::closeSpan(const std::string &name, double end)
{
    for (auto it = openSpans_.begin(); it != openSpans_.end(); ++it) {
        if (it->name != name)
            continue;
        if (trace_) {
            TraceSpan s;
            s.track = "fault.events";
            s.name = name;
            s.category = "fault";
            s.start = it->start;
            s.end = end;
            trace_->record(std::move(s));
        }
        openSpans_.erase(it);
        return;
    }
}

void
FaultInjector::armWindow(const FaultWindow &w)
{
    std::string name = strfmt("degrade %s x%g",
                              w.target.resource.c_str(), w.factor);
    scheduleFault(w.start, [this, w, name] {
        counters_.windows++;
        if (mWindows_)
            mWindows_->add();
        applyFactor(w.target, w.factor);
        openSpan(name, w.factor);
    });
    scheduleFault(w.start + w.duration, [this, w, name] {
        applyFactor(w.target, 1.0 / w.factor);
        closeSpan(name, queue_.now());
    });
}

void
FaultInjector::armFlap(const FaultFlap &f, double from)
{
    // Exponentially distributed gap between flap starts; drawing at
    // arm time (not fire time) keeps each source's chain of draws in
    // a deterministic order even as sources interleave.
    double gap = -f.meanGap * std::log(1.0 - flapRng_.uniform());
    double start = from + gap;
    std::string name = strfmt("flap %s x%g",
                              f.target.resource.c_str(), f.factor);
    scheduleFault(start, [this, f, name] {
        counters_.flaps++;
        if (mWindows_)
            mWindows_->add();
        applyFactor(f.target, f.factor);
        openSpan(name, f.factor);
        double end = queue_.now() + f.duration;
        scheduleFault(end, [this, f, name] {
            applyFactor(f.target, 1.0 / f.factor);
            closeSpan(name, queue_.now());
        });
        armFlap(f, end);
    });
}

void
FaultInjector::armCheckpoint()
{
    if (plan_.checkpointInterval <= 0.0)
        return;
    scheduleFault(
        lastCheckpoint_ + plan_.checkpointInterval, [this] {
            counters_.checkpoints++;
            counters_.checkpointSeconds += plan_.checkpointCost;
            if (mCheckpoints_)
                mCheckpoints_->add();
            if (mCheckpointSeconds_)
                mCheckpointSeconds_->add(plan_.checkpointCost);
            for (ComputeEngine *ce : compute_) {
                ce->injectFront(
                    plan_.checkpointCost, "fault",
                    strfmt("ckpt@%.4g", queue_.now()));
            }
            lastCheckpoint_ = queue_.now();
            armCheckpoint();
        });
}

void
FaultInjector::armCrash(const GpuCrash &c)
{
    scheduleFault(c.time, [this, c] {
        counters_.crashes++;
        if (mCrashes_)
            mCrashes_->add();
        // Work since the last checkpoint is lost; the whole job
        // rolls back and replays it plus a fixed restart cost. The
        // stall is modelled compute-side on every GPU (memory state
        // re-materialises through the normal prefetch path).
        double lost = queue_.now() - lastCheckpoint_;
        double recovery = plan_.restartCost + lost;
        counters_.recoverySeconds += recovery;
        if (mRecoverySeconds_)
            mRecoverySeconds_->add(recovery);
        for (ComputeEngine *ce : compute_) {
            ce->injectFront(
                recovery, "fault",
                strfmt("recover gpu%d@%.4g", c.gpu, queue_.now()));
        }
    });
}

FlowId
FaultInjector::submit(TransferRequest req)
{
    if (plan_.xfailProb <= 0.0)
        return xfer_.submit(std::move(req));
    return submitAttempt(std::move(req), 1, kNoSpan);
}

FlowId
FaultInjector::submitAttempt(TransferRequest req, int attempt,
                             SpanId prev_fail)
{
    // Every attempt consumes exactly one draw from the failure
    // stream, so the pattern is independent of retries' timing.
    bool doomed = xfailRng_.uniform() < plan_.xfailProb;
    if (!doomed) {
        if (prev_fail != kNoSpan)
            req.deps.push_back(prev_fail);
        return xfer_.submit(std::move(req));
    }
    // The retry closure resubmits the original request, so only a
    // doomed attempt pays for a copy.
    TransferRequest a = req;
    if (prev_fail != kNoSpan)
        a.deps.push_back(prev_fail);
    a.willFail = true;
    a.onComplete = nullptr;
    a.onFail = [this, req = std::move(req), attempt]() mutable {
        SpanId failed = xfer_.lastSpanId();
        counters_.failures++;
        if (mFailures_)
            mFailures_->add();
        TraceSpan fs;
        if (trace_ && trace_->findSpan(failed, fs)) {
            counters_.lostSeconds += fs.duration();
            if (mLostSeconds_)
                mLostSeconds_->add(fs.duration());
        }
        if (attempt > plan_.retryBudget) {
            fatal("transfer '%s' failed %d times; retry budget %d "
                  "exhausted — simulated job lost",
                  req.label.c_str(), attempt, plan_.retryBudget);
        }
        // Exponential backoff with deterministic jitter in
        // [0.5, 1.5)x, from the dedicated backoff stream.
        double delay = plan_.retryBackoff *
            std::ldexp(1.0, attempt - 1) *
            (0.5 + backoffRng_.uniform());
        counters_.retries++;
        counters_.backoffSeconds += delay;
        if (mRetries_)
            mRetries_->add();
        if (mBackoffSeconds_)
            mBackoffSeconds_->add(delay);
        double fail_time = queue_.now();
        // Backoff events are NOT in ownEvents_: a pending retry is
        // outstanding workload and must never be cancelled.
        retryPending_++;
        queue_.scheduleAfter(
            delay, [this, req = std::move(req), attempt, failed,
                    fail_time]() mutable {
                retryPending_--;
                SpanId backoff = kNoSpan;
                if (trace_) {
                    TraceSpan s;
                    s.track = "fault.retry";
                    s.name = strfmt("backoff#%d %s", attempt,
                                    req.label.c_str());
                    s.category = "fault";
                    s.start = fail_time;
                    s.end = queue_.now();
                    s.deps = {failed};
                    s.stage = req.stage;
                    backoff = trace_->record(std::move(s));
                }
                submitAttempt(std::move(req), attempt + 1,
                              backoff != kNoSpan ? backoff : failed);
            });
    };
    return xfer_.submit(std::move(a));
}

double
FaultInjector::computeThrottle(int gpu) const
{
    if (gpu < 0 || gpu >= static_cast<int>(computeFactor_.size()))
        return 1.0;
    return computeFactor_[gpu];
}

} // namespace mobius

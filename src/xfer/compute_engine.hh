/**
 * @file
 * Per-GPU compute engine: kernels (layer forward/backward executions)
 * run one at a time, FIFO, each for a precomputed duration. Runs
 * concurrently with the GPU's copy engines, which is what lets Mobius
 * overlap stage prefetch with computation.
 */

#ifndef MOBIUS_XFER_COMPUTE_ENGINE_HH
#define MOBIUS_XFER_COMPUTE_ENGINE_HH

#include <deque>
#include <functional>
#include <string>

#include "base/logging.hh"
#include "obs/metrics.hh"
#include "simcore/event_queue.hh"
#include "simcore/trace.hh"
#include "xfer/stats.hh"

namespace mobius
{

/** Serial kernel executor for one GPU. */
class ComputeEngine
{
  public:
    /**
     * An idle engine for GPU @p gpu with optional telemetry sinks.
     * @p speed_factor is the what-if perturbation hook: every
     * submitted kernel runs for duration / speed_factor seconds, so
     * a counterfactual "this GPU computes k× faster" re-simulation
     * (obs/whatif.hh) reuses the executor's cost model unchanged.
     */
    ComputeEngine(EventQueue &queue, UsageTracker *usage, int gpu,
                  TraceRecorder *trace = nullptr,
                  MetricsRegistry *metrics = nullptr,
                  double speed_factor = 1.0)
        : queue_(queue), usage_(usage), gpu_(gpu), trace_(trace),
          track_("gpu" + std::to_string(gpu) + ".compute"),
          speedFactor_(speed_factor)
    {
        if (!(speedFactor_ > 0.0))
            panic("compute speed factor must be > 0, got %g",
                  speedFactor_);
        if (metrics) {
            mKernels_ = &metrics->counter(
                "gpu" + std::to_string(gpu) + ".kernels");
            mKernelSeconds_ = &metrics->histogram(
                "gpu" + std::to_string(gpu) + ".kernel.seconds");
        }
    }

    /**
     * Enqueue a kernel of @p duration seconds; @p on_complete fires
     * when it retires. @p label names the span in traces; @p deps
     * are the spans that causally enabled this kernel (the transfers
     * and computes it waited for) and @p stage is the pipeline stage
     * it advances. The kernel's span records submit time as
     * `queuedAt`, so time queued behind earlier kernels shows up as
     * contention in critical-path attribution.
     */
    void
    submit(double duration, std::function<void()> on_complete,
           std::string label = "", std::vector<SpanId> deps = {},
           int stage = -1)
    {
        tasks_.push_back(Task{duration / speedFactor_,
                              std::move(on_complete),
                              std::move(label), std::move(deps),
                              stage, queue_.now()});
        if (!busy_)
            startNext();
    }

    /**
     * Push a task to the *front* of the queue under an arbitrary
     * span category — the fault injector's hook for checkpoint and
     * crash-recovery work (category "fault"), which must run before
     * any queued kernels. The running kernel is not preempted. The
     * task's span seeds a causal edge into the next span this engine
     * records, so recovery time sits on the critical path.
     */
    void
    injectFront(double duration, std::string category,
                std::string label, std::vector<SpanId> deps = {})
    {
        tasks_.push_front(Task{duration / speedFactor_, nullptr,
                               std::move(label), std::move(deps), -1,
                               queue_.now(), std::move(category)});
        if (!busy_)
            startNext();
    }

    /**
     * Set the straggler throttle: every task *started* from now on
     * runs for duration / @p factor seconds (factor 0.5 = half
     * speed). Applied at start, not submit, so a throttle window
     * slows exactly the kernels that overlap it.
     */
    void
    setThrottle(double factor)
    {
        if (!(factor > 0.0))
            panic("compute throttle must be > 0, got %g", factor);
        throttle_ = factor;
    }

    /** @return the current straggler throttle (1 = nominal). */
    double throttle() const { return throttle_; }

    /** @return true when nothing is running or queued. */
    bool idle() const { return !busy_ && tasks_.empty(); }

    /**
     * Id of the most recently retired kernel's span (kNoSpan before
     * any retires, or without a recorder). Valid inside completion
     * callbacks: the span is recorded just before the callback runs.
     */
    SpanId lastSpanId() const { return lastSpan_; }

    /** The GPU index this engine models. */
    int gpu() const { return gpu_; }

    /** Total kernel-seconds retired. */
    double busyTime() const { return busyTime_; }

  private:
    struct Task
    {
        double duration;
        std::function<void()> onComplete;
        std::string label;
        std::vector<SpanId> deps;
        int stage = -1;
        SimTime queuedAt = -1.0;
        std::string category = "compute";
    };

    void
    startNext()
    {
        // Guard against re-entry: a completion callback may submit
        // new work (which starts it); the outer frame must not start
        // a second task concurrently.
        if (busy_ || tasks_.empty())
            return;
        busy_ = true;
        Task task = std::move(tasks_.front());
        tasks_.pop_front();
        // The straggler throttle applies at start time; task.duration
        // stays the intrinsic (nominal-speed) cost so the slowdown
        // shows up as contention stretch in attribution.
        const bool kernel = task.category == "compute";
        // An injected fault task ran when it did because this serial
        // engine was busy until now: chain it to the span that just
        // retired so the backward critical-path walk continues
        // through it instead of dead-ending at a depless span.
        if (!kernel && lastSpan_ != kNoSpan)
            task.deps.push_back(lastSpan_);
        double effective = task.duration / throttle_;
        if (kernel) {
            if (usage_)
                usage_->computeBegin(gpu_);
            if (mKernels_) {
                mKernels_->add();
                mKernelSeconds_->record(effective);
            }
            busyTime_ += effective;
        }
        double start = queue_.now();
        queue_.scheduleAfter(
            effective,
            [this, start, kernel, cb = std::move(task.onComplete),
             label = std::move(task.label),
             deps = std::move(task.deps), stage = task.stage,
             queuedAt = task.queuedAt,
             category = std::move(task.category),
             work = task.duration]() mutable {
                if (kernel && usage_)
                    usage_->computeEnd(gpu_);
                if (trace_ && trace_->enabled()) {
                    TraceSpan s;
                    s.track = track_;
                    s.name = std::move(label);
                    s.category = std::move(category);
                    s.start = start;
                    s.end = queue_.now();
                    s.deps = std::move(deps);
                    if (pendingFaultDep_ != kNoSpan)
                        s.deps.push_back(pendingFaultDep_);
                    pendingFaultDep_ = kNoSpan;
                    s.queuedAt = queuedAt;
                    // Throttled kernels keep their intrinsic work so
                    // the straggler stretch reads as contention;
                    // fault tasks are all work by definition.
                    if (kernel)
                        s.work = queue_.now() - start > work
                            ? work
                            : -1.0;
                    s.gpu = gpu_;
                    s.stage = stage;
                    lastSpan_ = trace_->record(std::move(s));
                    if (!kernel)
                        pendingFaultDep_ = lastSpan_;
                } else {
                    // What a disabled recorder's kNoSpan would leave.
                    lastSpan_ = kNoSpan;
                    pendingFaultDep_ = kNoSpan;
                }
                busy_ = false;
                if (cb)
                    cb();
                startNext();
            });
    }

    EventQueue &queue_;
    UsageTracker *usage_;
    int gpu_;
    TraceRecorder *trace_;
    std::string track_; //!< "gpuN.compute", the spans' track
    double speedFactor_ = 1.0;
    double throttle_ = 1.0;
    Counter *mKernels_ = nullptr;
    Histogram *mKernelSeconds_ = nullptr;
    bool busy_ = false;
    double busyTime_ = 0.0;
    SpanId lastSpan_ = kNoSpan;
    /** Span of the last fault task; next span records it as a dep. */
    SpanId pendingFaultDep_ = kNoSpan;
    std::deque<Task> tasks_;
};

} // namespace mobius

#endif // MOBIUS_XFER_COMPUTE_ENGINE_HH

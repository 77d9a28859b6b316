/**
 * @file
 * The pre-rewrite `std::map`-backed event queue, frozen verbatim as a
 * reference oracle (test-only, the `lp_reference.hh` pattern).
 *
 * The production EventQueue (simcore/event_queue.hh) is an indexed binary
 * heap; this class keeps the original red-black-tree implementation
 * alive so that
 *
 *  - tests can fuzz arbitrary schedule/cancel/run interleavings
 *    against it and assert identical firing order, clocks, and
 *    clamp/drift telemetry (the tie-break contract is subtle enough
 *    to deserve an executable specification), and
 *  - `bench_simcore` can measure the rewrite's events/sec speedup
 *    against the exact pre-change core.
 *
 * Do not use this in the simulator proper, and do not "fix" it: its
 * value is bit-for-bit behavioural equivalence with the seed
 * implementation.
 */

#ifndef MOBIUS_TESTS_EVENT_QUEUE_REFERENCE_HH
#define MOBIUS_TESTS_EVENT_QUEUE_REFERENCE_HH

#include <cstdint>
#include <functional>
#include <map>

#include "simcore/event_queue.hh"

namespace mobius
{

/**
 * The original `std::map`-backed deterministic event queue. Same
 * observable contract as EventQueue: absolute-time scheduling, ties
 * fire in schedule order, cancellable handles, and clamping of tiny
 * floating-point backslides.
 */
class ReferenceEventQueue
{
  public:
    /** An empty queue at time 0. */
    ReferenceEventQueue() = default;

    /** @return the current simulated time in seconds. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p fn at absolute time @p when (>= now()).
     * @return a handle usable with cancel().
     */
    EventId schedule(SimTime when, std::function<void()> fn);

    /** Schedule @p fn @p delay seconds from now. */
    EventId
    scheduleAfter(SimTime delay, std::function<void()> fn)
    {
        return schedule(now_ + delay, std::move(fn));
    }

    /**
     * Cancel a pending event.
     * @return true if the event existed and was removed.
     */
    bool cancel(EventId id);

    /** @return true if no events are pending. */
    bool empty() const { return events_.empty(); }

    /** @return number of pending events. */
    std::size_t pending() const { return events_.size(); }

    /** Fire events until the queue is empty. */
    void run();

    /**
     * Fire events with time <= @p until, then advance the clock to
     * @p until (even if the queue empties earlier).
     */
    void runUntil(SimTime until);

    /** @return total number of events ever executed. */
    std::uint64_t executed() const { return executed_; }

    /** @return number of schedule() calls clamped to now(). */
    std::uint64_t clamped() const { return clamped_; }

    /** @return the largest backslide ever clamped, in seconds. */
    SimTime maxDrift() const { return maxDrift_; }

  private:
    struct Key
    {
        SimTime when;
        std::uint64_t seq;

        bool
        operator<(const Key &other) const
        {
            if (when != other.when)
                return when < other.when;
            return seq < other.seq;
        }
    };

    SimTime now_ = 0.0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t executed_ = 0;
    std::uint64_t clamped_ = 0;
    SimTime maxDrift_ = 0.0;
    std::map<Key, std::function<void()>> events_;
    std::map<EventId, Key> keys_;
};

} // namespace mobius

#endif // MOBIUS_TESTS_EVENT_QUEUE_REFERENCE_HH

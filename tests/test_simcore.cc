/**
 * @file
 * Unit tests for the discrete-event queue, including a randomized
 * schedule/cancel/reschedule/run fuzz that holds the indexed-heap
 * EventQueue to the frozen std::map reference implementation,
 * interleaving for interleaving.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "event_queue_reference.hh"
#include "simcore/arrival.hh"
#include "simcore/event_queue.hh"

namespace mobius
{
namespace
{

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(3.0, [&] { order.push_back(3); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesFireInScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(1.0, [&] { order.push_back(0); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(1.0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventId id = q.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // second cancel is a no-op
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<double> times;
    q.schedule(1.0, [&] {
        times.push_back(q.now());
        q.scheduleAfter(0.5, [&] { times.push_back(q.now()); });
    });
    q.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock)
{
    EventQueue q;
    int count = 0;
    q.schedule(1.0, [&] { ++count; });
    q.schedule(5.0, [&] { ++count; });
    q.runUntil(2.0);
    EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(q.now(), 2.0);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, RunUntilPastEmptyAdvancesClock)
{
    EventQueue q;
    q.runUntil(7.5);
    EXPECT_DOUBLE_EQ(q.now(), 7.5);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    double fired_at = -1.0;
    q.schedule(2.0, [&] {
        q.scheduleAfter(3.0, [&] { fired_at = q.now(); });
    });
    q.run();
    EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, ExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.schedule(i, [] {});
    q.run();
    EXPECT_EQ(q.executed(), 5u);
}

TEST(EventQueue, CancelInsideEvent)
{
    EventQueue q;
    bool late_fired = false;
    EventId late = q.schedule(2.0, [&] { late_fired = true; });
    q.schedule(1.0, [&] { q.cancel(late); });
    q.run();
    EXPECT_FALSE(late_fired);
}

TEST(EventQueue, ToleratesTinyBackslide)
{
    EventQueue q;
    q.schedule(1.0, [&] {
        // Floating-point jitter: schedule "now - tiny"; should clamp.
        q.schedule(q.now() - 1e-12, [] {});
    });
    EXPECT_NO_FATAL_FAILURE(q.run());
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot)
{
    EventQueue q;
    bool b_fired = false;
    EventId a = q.schedule(1.0, [] {});
    ASSERT_TRUE(q.cancel(a));
    // The freed handle slot is recycled immediately (LIFO free
    // list), so b gets a's low bits with a bumped generation.
    EventId b = q.schedule(2.0, [&] { b_fired = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a)); // stale id must not kill b
    q.run();
    EXPECT_TRUE(b_fired);
}

TEST(EventQueue, FiredIdIsStale)
{
    EventQueue q;
    bool b_fired = false;
    EventId a = q.schedule(1.0, [] {});
    q.run();
    EventId b = q.schedule(2.0, [&] { b_fired = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(q.cancel(a));
    q.run();
    EXPECT_TRUE(b_fired);
}

TEST(EventQueue, ReserveKeepsSemantics)
{
    EventQueue q;
    q.reserve(64);
    std::vector<int> order;
    q.schedule(2.0, [&] { order.push_back(2); });
    q.schedule(1.0, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleMovesToBackOfNewTick)
{
    EventQueue q;
    std::vector<int> order;
    EventId a = q.schedule(1.0, [&] { order.push_back(1); });
    q.schedule(2.0, [&] { order.push_back(2); });
    EventId c = q.schedule(3.0, [&] { order.push_back(3); });
    // Later, to a tick that already holds an event: behind it.
    q.reschedule(a, 2.0);
    // Earlier than everything.
    q.reschedule(c, 0.5);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
    EXPECT_EQ(q.executed(), 3u);
}

TEST(EventQueue, RescheduleReturnsCancelScheduleId)
{
    // The id is the one cancel() + schedule() would hand out, and the
    // old id goes stale.
    EventQueue moved;
    EventQueue pair;
    EventId m = moved.schedule(1.0, [] {});
    EventId p = pair.schedule(1.0, [] {});
    ASSERT_EQ(m, p);
    EventId m2 = moved.reschedule(m, 2.0);
    pair.cancel(p);
    EventId p2 = pair.schedule(2.0, [] {});
    EXPECT_EQ(m2, p2);
    EXPECT_NE(m2, m);
    EXPECT_FALSE(moved.cancel(m));
    EXPECT_TRUE(moved.cancel(m2));
}

TEST(EventQueue, RescheduleClampsTinyBackslide)
{
    EventQueue q;
    EventId later = q.schedule(5.0, [] {});
    q.schedule(1.0, [&] { q.reschedule(later, q.now() - 1e-12); });
    q.run();
    EXPECT_EQ(q.clamped(), 1u);
    EXPECT_EQ(q.now(), 1.0);
}

TEST(EventQueueDeathTest, RescheduleOfNonPendingIdPanics)
{
    EventQueue q;
    EventId fired = q.schedule(1.0, [] {});
    EventId cancelled = q.schedule(2.0, [] {});
    q.cancel(cancelled);
    q.runUntil(1.5);
    EXPECT_DEATH(q.reschedule(fired, 3.0), "not pending");
    EXPECT_DEATH(q.reschedule(cancelled, 3.0), "not pending");
    EXPECT_DEATH(q.reschedule(kNoEvent, 3.0), "not pending");
}

/**
 * Everything the fuzz driver can observe from one queue: the firing
 * sequence (time, payload), each cancel's return value, and the
 * telemetry counters. Two conforming queues fed the identical script
 * must produce identical logs. The ids reschedules returned are
 * kept beside them: they are compared only between runs of
 * EventQueue (the reference numbers its events differently).
 */
struct FuzzLog
{
    std::vector<std::pair<SimTime, int>> fired;
    std::vector<bool> cancels;
    std::uint64_t executed = 0;
    std::uint64_t clamped = 0;
    SimTime maxDrift = 0.0;
    SimTime finalNow = 0.0;
    std::vector<EventId> rescheduled;

    bool
    operator==(const FuzzLog &o) const
    {
        return fired == o.fired && cancels == o.cancels &&
            executed == o.executed && clamped == o.clamped &&
            maxDrift == o.maxDrift && finalNow == o.finalNow;
    }
};

/** How the fuzz script moves a pending event. */
enum class Move
{
    Reschedule,     //!< EventQueue::reschedule()
    CancelSchedule, //!< cancel() then schedule() of the same callback
};

/**
 * One randomized script: bursts of schedules on a coarse time grid
 * (so exact ties are common and the (time, schedule order) tie-break
 * actually bites), moves of pending events to earlier, equal and
 * later grid times (a tiny backslide among them), cancels drawn from
 * *all* ids ever issued (stale ones included), a tiny deliberate
 * backslide to exercise clamping, and partial drains via runUntil
 * between bursts. The RNG is consumed identically for every queue
 * and @p move because every draw happens in this driver, never in a
 * callback.
 */
template <typename Queue>
FuzzLog
runFuzzScript(std::uint64_t seed, Move move)
{
    Queue q;
    std::mt19937_64 rng(seed);
    FuzzLog log;
    std::vector<EventId> ids;
    // Per payload: its current id and whether it is still pending.
    std::vector<EventId> idOf;
    std::vector<char> pending;
    auto callback = [&log, &q, &pending](int p) {
        return [&log, &q, &pending, p] {
            pending[static_cast<std::size_t>(p)] = 0;
            log.fired.emplace_back(q.now(), p);
        };
    };
    auto moveTo = [&](std::size_t p, SimTime when) {
        if constexpr (std::is_same_v<Queue, EventQueue>) {
            if (move == Move::Reschedule)
                return q.reschedule(idOf[p], when);
        }
        q.cancel(idOf[p]);
        return q.schedule(when, callback(static_cast<int>(p)));
    };
    int payload = 0;
    for (int phase = 0; phase < 16; ++phase) {
        for (int k = 0; k < 64; ++k) {
            SimTime when =
                q.now() + 1e-3 * static_cast<double>(rng() % 40);
            int p = payload++;
            idOf.push_back(q.schedule(when, callback(p)));
            pending.push_back(1);
            ids.push_back(idOf.back());
        }
        if (phase == 7) {
            // One knowingly-late schedule: must clamp, not panic.
            q.schedule(1.0, [&q] {
                q.schedule(q.now() - 1e-12, [] {});
            });
        }
        for (int k = 0; k < 24; ++k) {
            auto p = static_cast<std::size_t>(rng() % idOf.size());
            std::uint64_t step = rng() % 41;
            if (!pending[p])
                continue;
            // 0 is a tiny backslide; otherwise a grid time from now.
            SimTime when = step == 0
                ? q.now() - 1e-12
                : q.now() + 1e-3 * static_cast<double>(step - 1);
            EventId id = moveTo(p, when);
            idOf[p] = id;
            ids.push_back(id);
            log.rescheduled.push_back(id);
        }
        for (int k = 0; k < 24; ++k) {
            EventId id = ids[rng() % ids.size()];
            bool removed = q.cancel(id);
            log.cancels.push_back(removed);
            if (removed) {
                auto p = static_cast<std::size_t>(
                    std::find(idOf.begin(), idOf.end(), id) -
                    idOf.begin());
                pending[p] = 0;
            }
        }
        q.runUntil(q.now() +
                   1e-3 * static_cast<double>(rng() % 25));
    }
    q.run();
    log.executed = q.executed();
    log.clamped = q.clamped();
    log.maxDrift = q.maxDrift();
    log.finalNow = q.now();
    return log;
}

TEST(EventQueue, FuzzMatchesReferenceQueue)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        FuzzLog heap = runFuzzScript<EventQueue>(seed, Move::Reschedule);
        FuzzLog pair =
            runFuzzScript<EventQueue>(seed, Move::CancelSchedule);
        FuzzLog ref = runFuzzScript<ReferenceEventQueue>(
            seed, Move::CancelSchedule);
        EXPECT_EQ(heap, ref) << "diverged at seed " << seed;
        EXPECT_EQ(heap, pair) << "diverged at seed " << seed;
        EXPECT_EQ(heap.rescheduled, pair.rescheduled)
            << "reschedule ids differ at seed " << seed;
        EXPECT_GT(heap.executed, 0u);
        // Not vacuous: the script moved events, and besides the
        // phase-7 schedule it clamped moves that backslid.
        EXPECT_GT(heap.rescheduled.size(), 100u);
        EXPECT_GT(heap.clamped, 1u);
    }
}

TEST(ArrivalProcess, HelperIsDeterministicAndIncreasing)
{
    const std::vector<double> a = poissonArrivalTimes(256, 2.0, 9);
    const std::vector<double> b = poissonArrivalTimes(256, 2.0, 9);
    EXPECT_EQ(a, b);
    double last = 0.0;
    double sum = 0.0;
    for (double t : a) {
        EXPECT_GT(t, last);
        sum += t - last;
        last = t;
    }
    // Mean inter-arrival gap within 3 sigma of 1/rate.
    EXPECT_NEAR(sum / 256.0, 0.5, 3.0 * 0.5 / 16.0);
}

TEST(ArrivalProcess, SeedAndPhaseChangesMatter)
{
    const std::vector<double> a = poissonArrivalTimes(32, 2.0, 9);
    const std::vector<double> b = poissonArrivalTimes(32, 2.0, 10);
    EXPECT_NE(a, b);
    ArrivalProcess phased({{2.0, 0.5}, {8.0, 0.5}}, 9, 0.0);
    EXPECT_NE(a, phased.take(32));
}

TEST(ArrivalProcess, RejectsBadPhases)
{
    EXPECT_THROW(ArrivalProcess({}, 1), FatalError);
    EXPECT_THROW(ArrivalProcess({{0.0, 1.0}}, 1), FatalError);
    EXPECT_THROW(ArrivalProcess({{1.0, -1.0}, {2.0, 1.0}}, 1),
                 FatalError);
    EXPECT_THROW(poissonArrivalTimes(4, -2.0, 1), FatalError);
}

} // namespace
} // namespace mobius

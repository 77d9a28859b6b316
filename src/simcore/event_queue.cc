#include "simcore/event_queue.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

namespace
{

/**
 * EventId layout: low 32 bits = handle index + 1 (so kNoEvent = 0 is
 * never a valid id), high 32 bits = the handle's generation at
 * schedule() time. A handle's generation is bumped every time its
 * event fires or is cancelled, which invalidates stale ids held by
 * callers after the slot is recycled.
 */
EventId
makeId(std::uint32_t handle, std::uint32_t gen)
{
    return (static_cast<EventId>(gen) << 32) |
        (static_cast<EventId>(handle) + 1);
}

/** pendingHandle()'s "not pending" answer (never a handle index). */
constexpr std::uint32_t kNotPending = 0xffffffffu;

} // namespace

SimTime
EventQueue::clampToNow(SimTime when)
{
    if (when < now_) {
        // Tolerate tiny floating-point backsliding from the fluid-flow
        // solver; anything larger is a scheduling bug.
        if (when < now_ - 1e-9)
            panic("scheduling event in the past: %.12f < %.12f",
                  when, now_);
        ++clamped_;
        maxDrift_ = std::max(maxDrift_, now_ - when);
        when = now_;
    }
    return when;
}

std::uint32_t
EventQueue::pendingHandle(EventId id) const
{
    std::uint32_t low = static_cast<std::uint32_t>(id);
    if (low == 0 || low - 1 >= handles_.size())
        return kNotPending;
    const Handle &h = handles_[low - 1];
    if (h.gen != static_cast<std::uint32_t>(id >> 32) || h.slot < 0)
        return kNotPending;
    return low - 1;
}

std::uint32_t
EventQueue::allocHandle()
{
    if (!freeHandles_.empty()) {
        std::uint32_t idx = freeHandles_.back();
        freeHandles_.pop_back();
        return idx;
    }
    handles_.push_back(Handle{});
    return static_cast<std::uint32_t>(handles_.size() - 1);
}

void
EventQueue::releaseHandle(std::uint32_t idx)
{
    handles_[idx].slot = -1;
    ++handles_[idx].gen;
    handles_[idx].fn = nullptr;
    freeHandles_.push_back(idx);
}

void
EventQueue::siftUp(std::size_t slot)
{
    Entry e = std::move(heap_[slot]);
    while (slot > 0) {
        std::size_t parent = (slot - 1) / 2;
        if (!before(e, heap_[parent]))
            break;
        heap_[slot] = std::move(heap_[parent]);
        handles_[heap_[slot].handle].slot =
            static_cast<std::int32_t>(slot);
        slot = parent;
    }
    heap_[slot] = std::move(e);
    handles_[heap_[slot].handle].slot =
        static_cast<std::int32_t>(slot);
}

void
EventQueue::siftDown(std::size_t slot)
{
    const std::size_t n = heap_.size();
    Entry e = std::move(heap_[slot]);
    while (true) {
        std::size_t child = slot * 2 + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], e))
            break;
        heap_[slot] = std::move(heap_[child]);
        handles_[heap_[slot].handle].slot =
            static_cast<std::int32_t>(slot);
        slot = child;
    }
    heap_[slot] = std::move(e);
    handles_[heap_[slot].handle].slot =
        static_cast<std::int32_t>(slot);
}

EventId
EventQueue::schedule(SimTime when, std::function<void()> fn)
{
    when = clampToNow(when);
    std::uint32_t handle = allocHandle();
    EventId id = makeId(handle, handles_[handle].gen);
    handles_[handle].fn = std::move(fn);

    Entry e;
    e.when = when;
    e.seq = nextSeq_++;
    e.handle = handle;
    heap_.push_back(e);
    handles_[handle].slot =
        static_cast<std::int32_t>(heap_.size() - 1);
    siftUp(heap_.size() - 1);
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    const std::uint32_t idx = pendingHandle(id);
    if (idx == kNotPending)
        return false;

    std::size_t slot = static_cast<std::size_t>(handles_[idx].slot);
    releaseHandle(idx);
    std::size_t last = heap_.size() - 1;
    if (slot != last) {
        heap_[slot] = std::move(heap_[last]);
        handles_[heap_[slot].handle].slot =
            static_cast<std::int32_t>(slot);
        heap_.pop_back();
        // The relocated entry may order either way against the
        // removed one's neighbours; one of the sifts is a no-op.
        siftDown(slot);
        siftUp(slot);
    } else {
        heap_.pop_back();
    }
    return true;
}

EventId
EventQueue::reschedule(EventId id, SimTime when)
{
    const std::uint32_t idx = pendingHandle(id);
    if (idx == kNotPending)
        panic("reschedule: event %llu is not pending",
              static_cast<unsigned long long>(id));
    when = clampToNow(when);
    // cancel() would bump the generation and free the handle, and
    // schedule() would take the same handle straight back off the
    // free list: only the generation changes.
    Handle &h = handles_[idx];
    ++h.gen;
    const std::size_t slot = static_cast<std::size_t>(h.slot);
    Entry &e = heap_[slot];
    const bool earlier = when < e.when;
    e.when = when;
    e.seq = nextSeq_++;
    // The fresh seq sorts after every pending event's, so at an equal
    // or later time the entry can only sink.
    if (earlier)
        siftUp(slot);
    else
        siftDown(slot);
    return makeId(idx, h.gen);
}

std::function<void()>
EventQueue::popTop()
{
    std::uint32_t handle = heap_.front().handle;
    std::function<void()> fn = std::move(handles_[handle].fn);
    releaseHandle(handle);
    std::size_t last = heap_.size() - 1;
    if (last > 0) {
        heap_[0] = heap_[last];
        handles_[heap_[0].handle].slot = 0;
        heap_.pop_back();
        siftDown(0);
    } else {
        heap_.pop_back();
    }
    return fn;
}

void
EventQueue::run()
{
    MOBIUS_PROF_ZONE("simcore.drain");
    while (!heap_.empty()) {
        now_ = heap_.front().when;
        auto fn = popTop();
        ++executed_;
        fn();
    }
}

void
EventQueue::runUntil(SimTime until)
{
    MOBIUS_PROF_ZONE("simcore.drain");
    while (!heap_.empty() && heap_.front().when <= until) {
        now_ = heap_.front().when;
        auto fn = popTop();
        ++executed_;
        fn();
    }
    if (until > now_)
        now_ = until;
}

} // namespace mobius

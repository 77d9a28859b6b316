#include "event_queue_reference.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mobius
{

EventId
ReferenceEventQueue::schedule(SimTime when, std::function<void()> fn)
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
    Key key{when, nextSeq_++};
    EventId id = key.seq;
    events_.emplace(key, std::move(fn));
    keys_.emplace(id, key);
    return id;
}

bool
ReferenceEventQueue::cancel(EventId id)
{
    auto it = keys_.find(id);
    if (it == keys_.end())
        return false;
    events_.erase(it->second);
    keys_.erase(it);
    return true;
}

void
ReferenceEventQueue::run()
{
    while (!events_.empty()) {
        auto it = events_.begin();
        now_ = it->first.when;
        auto fn = std::move(it->second);
        keys_.erase(it->first.seq);
        events_.erase(it);
        ++executed_;
        fn();
    }
}

void
ReferenceEventQueue::runUntil(SimTime until)
{
    while (!events_.empty() && events_.begin()->first.when <= until) {
        auto it = events_.begin();
        now_ = it->first.when;
        auto fn = std::move(it->second);
        keys_.erase(it->first.seq);
        events_.erase(it);
        ++executed_;
        fn();
    }
    if (until > now_)
        now_ = until;
}

} // namespace mobius

#include "fleet/scheduler.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mobius
{

FleetScheduler::FleetScheduler(
    const std::vector<FleetServerDesc> &servers, Options opts)
    : opts_(opts)
{
    if (servers.empty())
        fatal("fleet scheduler needs at least one server class");
    for (const auto &desc : servers) {
        if (desc.count <= 0)
            fatal("server class '%s' has count %d",
                  desc.klass.c_str(), desc.count);
        if (klassIndex_.count(desc.klass))
            fatal("duplicate server class '%s'",
                  desc.klass.c_str());
        int k = static_cast<int>(klasses_.size());
        klassIndex_.emplace(desc.klass, k);
        Klass klass;
        klass.name = desc.klass;
        for (int i = 0; i < desc.count; ++i) {
            int server = static_cast<int>(serverKlass_.size());
            serverKlass_.push_back(k);
            klass.freeServers.insert(server);
        }
        klasses_.push_back(std::move(klass));
    }
}

bool
FleetScheduler::fits(const std::string &klass) const
{
    return klassIndex_.count(klass) > 0;
}

int
FleetScheduler::klassIndex(const std::string &name) const
{
    auto it = klassIndex_.find(name);
    if (it == klassIndex_.end())
        fatal("unknown server class '%s'", name.c_str());
    return it->second;
}

const std::string &
FleetScheduler::serverClass(int server) const
{
    if (server < 0 ||
        server >= static_cast<int>(serverKlass_.size()))
        fatal("server index %d out of range", server);
    return klasses_[static_cast<std::size_t>(serverKlass_
                        [static_cast<std::size_t>(server)])]
        .name;
}

const std::string &
FleetScheduler::klassName(int klass) const
{
    if (klass < 0 || klass >= static_cast<int>(klasses_.size()))
        fatal("class index %d out of range", klass);
    return klasses_[static_cast<std::size_t>(klass)].name;
}

std::vector<int>
FleetScheduler::freeCounts() const
{
    std::vector<int> free(klasses_.size(), 0);
    for (std::size_t k = 0; k < klasses_.size(); ++k)
        free[k] = static_cast<int>(klasses_[k].freeServers.size());
    return free;
}

void
FleetScheduler::setDecisionHook(DecisionHook hook)
{
    decisionHook_ = std::move(hook);
}

void
FleetScheduler::enqueue(int id, double arrival,
                        const FleetJobReq &req)
{
    Pending p;
    p.arrival = arrival;
    p.id = id;
    p.priority = req.priority;
    p.klass = klassIndex(req.klass);
    pending_.push_back(p);
    std::push_heap(pending_.begin(), pending_.end());
}

FleetScheduler::Pending
FleetScheduler::popPending()
{
    std::pop_heap(pending_.begin(), pending_.end());
    Pending p = pending_.back();
    pending_.pop_back();
    return p;
}

void
FleetScheduler::release(int id)
{
    auto it = running_.find(id);
    if (it == running_.end())
        panic("release of job %d which is not running", id);
    int server = it->second.server;
    klasses_[static_cast<std::size_t>(
                 serverKlass_[static_cast<std::size_t>(server)])]
        .freeServers.insert(server);
    running_.erase(it);
}

int
FleetScheduler::tryPlace(
    double now, const Pending &job, std::uint64_t pending_seen,
    const std::function<void(int victim)> &evict)
{
    Klass &klass = klasses_[static_cast<std::size_t>(job.klass)];
    if (!klass.freeServers.empty()) {
        int server = *klass.freeServers.begin();
        klass.freeServers.erase(klass.freeServers.begin());
        return server;
    }
    if (!opts_.preemption)
        return -1;
    // Deterministic victim choice: the strictly-lower-priority
    // running job on this class that is least worth keeping —
    // largest priority number, then latest start, then largest id.
    int victim = -1;
    const Running *worst = nullptr;
    for (const auto &[id, run] : running_) {
        if (serverKlass_[static_cast<std::size_t>(run.server)] !=
            job.klass)
            continue;
        if (run.priority <= job.priority)
            continue; // equal or higher priority: not evictable
        bool worse = worst == nullptr ||
            run.priority > worst->priority ||
            (run.priority == worst->priority &&
             (run.start > worst->start ||
              (run.start == worst->start && id > victim)));
        if (worse) {
            victim = id;
            worst = &run;
        }
    }
    if (victim < 0)
        return -1;
    int server = worst->server;
    if (decisionHook_) {
        FleetDecision d;
        d.kind = FleetDecision::Kind::Preempt;
        d.time = now;
        d.job = job.id;
        d.priority = job.priority;
        d.server = server;
        d.klass = job.klass;
        d.freeInClass = 0; // by construction: no free server
        d.victim = victim;
        d.victimPriority = worst->priority;
        d.victimStart = worst->start;
        d.pending = pending_seen;
        decisionHook_(d);
    }
    evict(victim);
    running_.erase(victim);
    ++stats_.preemptions;
    return server; // reused immediately, never enters freeServers
}

void
FleetScheduler::schedule(
    double now, const std::function<void(int victim)> &evict,
    const std::function<void(int id, int server)> &admit)
{
    // Pop pending jobs in (arrival, id) order. Without backfill the
    // first unplaceable job blocks everything behind it (strict
    // FIFO); with backfill it blocks only its own class.
    std::vector<Pending> blocked;
    std::vector<bool> blockedKlass(klasses_.size(), false);
    while (!pending_.empty()) {
        if (blockedKlass[static_cast<std::size_t>(
                pending_.front().klass)]) {
            if (!opts_.backfill)
                break;
            blocked.push_back(popPending());
            continue;
        }
        Pending job = popPending();
        std::uint64_t pendingSeen =
            pending_.size() + blocked.size();
        int freeBefore = static_cast<int>(
            klasses_[static_cast<std::size_t>(job.klass)]
                .freeServers.size());
        int server = tryPlace(now, job, pendingSeen, evict);
        if (server < 0) {
            blockedKlass[static_cast<std::size_t>(job.klass)] =
                true;
            blocked.push_back(job);
            if (!opts_.backfill)
                break;
            continue;
        }
        Running run;
        run.server = server;
        run.priority = job.priority;
        run.start = now;
        running_.emplace(job.id, run);
        ++stats_.admissions;
        if (!blocked.empty())
            ++stats_.backfills; // jumped at least one blocked job
        if (decisionHook_) {
            FleetDecision d;
            d.kind = blocked.empty()
                         ? FleetDecision::Kind::Admit
                         : FleetDecision::Kind::Backfill;
            d.time = now;
            d.job = job.id;
            d.priority = job.priority;
            d.server = server;
            d.klass = job.klass;
            d.freeInClass = freeBefore;
            if (!blocked.empty()) {
                // blocked[] fills in pop = (arrival, id) order, so
                // its first entry is the earliest blocked head.
                d.blockedHead = blocked.front().id;
                d.blockedHeadKlass = blocked.front().klass;
            }
            d.pending = pendingSeen;
            decisionHook_(d);
        }
        admit(job.id, server);
    }
    for (const Pending &job : blocked) {
        pending_.push_back(job);
        std::push_heap(pending_.begin(), pending_.end());
    }
}

} // namespace mobius

#include "simcore/replica_runner.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "obs/prof.hh"

namespace mobius
{

ReplicaRunStats
runReplicas(int count, const std::function<void(int)> &body,
            ReplicaRunnerOptions opts)
{
    ReplicaRunStats stats;
    stats.threadsUsed = 1;
    if (count <= 0)
        return stats;

    int threads = opts.threads;
    if (threads <= 0)
        threads = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
    threads = std::min(threads, count);
    stats.threadsUsed = threads;

    // Every replica runs even when another throws; each exception
    // waits in its index's slot until the join.
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(count));
    auto runOne = [&](int i) {
        try {
            MOBIUS_PROF_ZONE("simcore.replica");
            body(i);
        } catch (...) {
            errors[static_cast<std::size_t>(i)] =
                std::current_exception();
        }
    };
    if (threads == 1) {
        for (int i = 0; i < count; ++i)
            runOne(i);
    } else {
        std::atomic<int> ticket{0};
        // jthreads join when the vector goes out of scope, also when
        // a later spawn throws: the running workers finish every
        // ticket before that exception leaves.
        std::vector<std::jthread> workers;
        workers.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t)
            workers.emplace_back([&] {
                for (int i = ticket.fetch_add(1); i < count;
                     i = ticket.fetch_add(1))
                    runOne(i);
            });
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return stats;
}

} // namespace mobius

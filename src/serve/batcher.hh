/**
 * @file
 * Orca-style continuous batching at iteration granularity.
 *
 * Requests join the running batch only at iteration boundaries and
 * leave individually the moment their generation completes; the batch
 * composition therefore changes continuously instead of draining in
 * static waves. Admission is strictly FIFO with head-of-line
 * blocking: the batcher admits from the queue head while (a) the
 * running set is below `maxBatch` and (b) the caller can reserve the
 * head request's KV-cache; it never skips past a request that does
 * not fit, so no request can starve behind later arrivals, and
 * occupancy never exceeds `maxBatch` (test_serve checks both).
 */

#ifndef MOBIUS_SERVE_BATCHER_HH
#define MOBIUS_SERVE_BATCHER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

namespace mobius
{

/** Continuous-batching knobs. */
struct BatchConfig
{
    int maxBatch = 32; //!< hard cap on concurrent requests
};

/** FIFO admission queue with a fixed capacity. */
class ContinuousBatcher
{
  public:
    explicit ContinuousBatcher(BatchConfig cfg);

    /** Queue request @p id (arrival order = admission order). */
    void enqueue(int id);

    /** @return queued (not yet admitted) request count. */
    int
    pendingDepth() const
    {
        return static_cast<int>(pending_.size());
    }

    /**
     * Admit from the queue head while the batch has room and
     * @p try_reserve (the KV-cache reservation) succeeds; stops at
     * the first request that cannot be seated (FIFO, no skipping).
     * @param running current running-batch size
     * @return admitted request ids, in queue order
     */
    std::vector<int>
    admit(int running, const std::function<bool(int)> &try_reserve);

    /** Lifetime counters. */
    struct Stats
    {
        std::uint64_t admissions = 0; //!< requests admitted
    };

    const Stats &stats() const { return stats_; }

  private:
    BatchConfig cfg_;
    std::deque<int> pending_;
    Stats stats_;
};

} // namespace mobius

#endif // MOBIUS_SERVE_BATCHER_HH

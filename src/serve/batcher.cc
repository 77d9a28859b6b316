#include "serve/batcher.hh"

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

ContinuousBatcher::ContinuousBatcher(BatchConfig cfg) : cfg_(cfg)
{
    if (cfg_.maxBatch <= 0)
        fatal("batch capacity must be positive (got %d)",
              cfg_.maxBatch);
}

void
ContinuousBatcher::enqueue(int id)
{
    pending_.push_back(id);
}

std::vector<int>
ContinuousBatcher::admit(
    int running, const std::function<bool(int)> &try_reserve)
{
    MOBIUS_PROF_ZONE("serve.batcher.admit");
    std::vector<int> admitted;
    while (!pending_.empty() &&
           running + static_cast<int>(admitted.size()) <
               cfg_.maxBatch) {
        const int id = pending_.front();
        if (try_reserve && !try_reserve(id))
            break; // head-of-line blocking: FIFO, never skip
        pending_.pop_front();
        admitted.push_back(id);
        ++stats_.admissions;
    }
    return admitted;
}

} // namespace mobius

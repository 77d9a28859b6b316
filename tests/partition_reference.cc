#include "partition_reference.hh"

#include <cmath>
#include <cstdint>
#include <limits>

#include "base/logging.hh"

namespace mobius
{

PartitionResult
bruteForcePartition(const PipelineCostEvaluator &eval, int max_layers)
{
    const int L = eval.cost().numLayers();
    if (L > max_layers)
        fatal("brute-force partition limited to %d layers (model has "
              "%d)", max_layers, L);

    PartitionResult result;
    double best_time = std::numeric_limits<double>::infinity();
    PipelineScratch scratch;

    // Every composition of L corresponds to a subset of the L-1
    // possible boundaries.
    const std::uint64_t masks = 1ULL << (L - 1);
    for (std::uint64_t mask = 0; mask < masks; ++mask) {
        Partition p;
        int lo = 0;
        for (int b = 0; b < L - 1; ++b) {
            if (mask & (1ULL << b)) {
                p.push_back(StageRange{lo, b + 1});
                lo = b + 1;
            }
        }
        p.push_back(StageRange{lo, L});
        ++result.evaluated;
        double t = eval.stepTime(p, scratch);
        if (t < best_time) {
            best_time = t;
            result.partition = std::move(p);
        }
    }

    if (std::isinf(best_time))
        fatal("brute force: no feasible partition");
    result.estimate = eval.evaluate(result.partition);
    return result;
}

} // namespace mobius

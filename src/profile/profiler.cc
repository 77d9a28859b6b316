#include "profile/profiler.hh"

#include <set>

namespace mobius
{

namespace
{

constexpr int kIterations = 3;             //!< timed runs per layer
constexpr double kUploadBandwidth = 13.1e9; //!< weights upload (B/s)

} // namespace

ProfileResult
profileModel(const CostModel &cost, const ProfilerConfig &cfg)
{
    ProfileResult result;
    std::set<int> seen; // similarity classes already measured

    for (int i = 0; i < cost.numLayers(); ++i) {
        if (cfg.useLayerSimilarity &&
            !seen.insert(cost.model().layers[i].similarityClass)
                 .second)
            continue;

        // Cost of measuring this layer: upload its weights once at
        // PCIe speed (prefetch disabled), then time a few fwd+bwd
        // iterations.
        double upload = static_cast<double>(cost.paramBytes(i)) /
            kUploadBandwidth;
        result.profilingTime += upload +
            kIterations * (cost.fwdTime(i) + cost.bwdTime(i));
        ++result.profiledLayers;
    }
    return result;
}

} // namespace mobius

#include "profile/profiler.hh"

#include <map>

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
    result.layers.resize(static_cast<std::size_t>(cost.numLayers()));

    Rng rng(cfg.seed);
    // similarity class -> profiled representative (layer index)
    std::map<int, int> seen;

    for (int i = 0; i < cost.numLayers(); ++i) {
        const LayerDesc &desc = cost.model().layers[i];

        if (cfg.useLayerSimilarity) {
            auto it = seen.find(desc.similarityClass);
            if (it != seen.end()) {
                result.layers[i] = result.layers[it->second];
                // Sizes are exact per layer even when timing is
                // shared (same shapes imply same sizes anyway).
                continue;
            }
            seen.emplace(desc.similarityClass, i);
        }

        double noise_f = 1.0;
        double noise_b = 1.0;
        if (cfg.measurementNoise > 0.0) {
            noise_f += cfg.measurementNoise * rng.gaussian();
            noise_b += cfg.measurementNoise * rng.gaussian();
            noise_f = std::max(noise_f, 0.5);
            noise_b = std::max(noise_b, 0.5);
        }

        LayerProfile p;
        p.fwdTime = cost.fwdTime(i) * noise_f;
        p.bwdTime = cost.bwdTime(i) * noise_b;
        p.paramBytes = cost.paramBytes(i);
        p.gradBytes = cost.gradBytes(i);
        p.actBytes = cost.actBytes(i);
        p.memFwd = cost.stageMemFwd(i, i + 1);
        p.memBwd = cost.stageMemBwd(i, i + 1);
        result.layers[i] = p;

        // Cost of measuring this layer: upload its weights once at
        // PCIe speed (prefetch disabled), then time a few fwd+bwd
        // iterations.
        double upload = static_cast<double>(p.paramBytes) /
            kUploadBandwidth;
        result.profilingTime += upload +
            kIterations * (p.fwdTime + p.bwdTime);
        ++result.profiledLayers;
    }
    return result;
}

} // namespace mobius

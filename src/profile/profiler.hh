/**
 * @file
 * Layer profiler (§3.2 "Profiling").
 *
 * The MIP partition algorithm needs per-layer compute time and memory
 * footprint. The paper measures these by running each layer with
 * prefetching disabled; because large models are stacks of identical
 * transformer blocks, Mobius compresses the model via *layer
 * similarity* and profiles one representative per similarity class,
 * which is what keeps profiling time flat across model sizes
 * (Fig. 12, observation 2).
 *
 * In this reproduction the "hardware measurement" of a layer is a
 * draw from the analytic cost model plus optional deterministic noise;
 * the *cost* of profiling (what Fig. 12 reports) is modelled as a few
 * timed iterations plus the weight upload at PCIe bandwidth.
 */

#ifndef MOBIUS_PROFILE_PROFILER_HH
#define MOBIUS_PROFILE_PROFILER_HH

#include <vector>

#include "base/rng.hh"
#include "model/cost_model.hh"

namespace mobius
{

/** Measured statistics for one layer. */
struct LayerProfile
{
    double fwdTime = 0.0;    //!< seconds per microbatch
    double bwdTime = 0.0;    //!< seconds per microbatch (backward)
    Bytes paramBytes = 0;    //!< FP16 weights
    Bytes gradBytes = 0;     //!< FP16 gradients
    Bytes actBytes = 0;      //!< boundary activation per microbatch
    Bytes memFwd = 0;        //!< forward footprint (weights + live)
    Bytes memBwd = 0;        //!< backward footprint
};

/** Result of a profiling pass. */
struct ProfileResult
{
    std::vector<LayerProfile> layers;  //!< one entry per model layer
    int profiledLayers = 0;            //!< layers actually measured
    double profilingTime = 0.0;        //!< simulated wall time (s)
};

/** Profiler configuration. */
struct ProfilerConfig
{
    bool useLayerSimilarity = true;    //!< measure one per class
    double measurementNoise = 0.0;     //!< relative sigma, 0 = exact
    std::uint64_t seed = 1;            //!< noise generator seed
};

/**
 * Run a (simulated) profiling pass for @p cost.
 *
 * Every layer of the model receives a LayerProfile; when layer
 * similarity is enabled only one representative per similarity class
 * is "measured" and the result is shared across the class.
 */
ProfileResult profileModel(const CostModel &cost,
                           const ProfilerConfig &cfg = {});

} // namespace mobius

#endif // MOBIUS_PROFILE_PROFILER_HH

/**
 * @file
 * Layer profiler (§3.2 "Profiling").
 *
 * The paper measures each layer with prefetching disabled before it
 * solves the MIP partition; because large models are stacks of
 * identical transformer blocks, Mobius compresses the model via
 * *layer similarity* and profiles one representative per similarity
 * class, which is what keeps profiling time flat across model sizes
 * (Fig. 12, observation 2).
 *
 * In this reproduction the partition search reads layer times from
 * the analytic cost model (PipelineCostEvaluator), so profiling is
 * kept only as its cost: what Fig. 12 reports, modelled as a few
 * timed iterations plus the weight upload at PCIe bandwidth for each
 * measured layer.
 */

#ifndef MOBIUS_PROFILE_PROFILER_HH
#define MOBIUS_PROFILE_PROFILER_HH

#include "model/cost_model.hh"

namespace mobius
{

/** Result of a profiling pass. */
struct ProfileResult
{
    int profiledLayers = 0;            //!< layers actually measured
    double profilingTime = 0.0;        //!< simulated wall time (s)
};

/** Profiler configuration. */
struct ProfilerConfig
{
    bool useLayerSimilarity = true;    //!< measure one per class
};

/**
 * Cost a (simulated) profiling pass for @p cost: every layer is
 * measured, or with layer similarity only the first layer of each
 * similarity class.
 */
ProfileResult profileModel(const CostModel &cost,
                           const ProfilerConfig &cfg = {});

} // namespace mobius

#endif // MOBIUS_PROFILE_PROFILER_HH

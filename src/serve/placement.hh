/**
 * @file
 * Serving placement policies and the inference stage plan.
 *
 * Three ways to place FP16 weights for request-driven inference on a
 * commodity multi-GPU box, plus a load-adaptive hybrid:
 *
 *  - MobiusSwap: the paper's mechanism applied to inference. Layers
 *    are cut into S = 4 x N uniform pipeline stages (at most one per
 *    layer), cross-mapped over the GPUs (§3.3) so consecutive stages
 *    live under different root complexes; each GPU keeps only two of
 *    its stages resident and ring-prefetches the next stage H2D while
 *    earlier stages compute. GPU footprint is a small carve-out, so
 *    most of DRAM-sized models fit and most of GPU memory is
 *    available for KV-cache.
 *
 *  - AllInGpu: the same pipeline with every owned stage resident for
 *    the whole run — fastest iterations, but the model must fit in
 *    aggregate GPU memory and the weight carve-out squeezes KV room.
 *
 *  - ZeroGather: the ZeRO-Infinity-style baseline. Requests are
 *    data-parallel over GPUs (each request's KV lives whole on its
 *    home GPU); every iteration each layer chunk is re-gathered on
 *    every GPU — a 1/N shard H2D from DRAM plus pairwise peer
 *    exchange — in lockstep, so each GPU receives the full model per
 *    iteration (N x Mobius's traffic).
 *
 *  - Adaptive: the MOEBIUS move — runtime placement switching on
 *    pending-queue watermarks. Light load runs MobiusSwap (minimal
 *    residency); when backlog crosses `switchHigh` and the full model
 *    fits beside the live KV, it switches to AllInGpu for throughput,
 *    and switches back once the queue holds at most one request,
 *    at least two iterations after the last switch.
 */

#ifndef MOBIUS_SERVE_PLACEMENT_HH
#define MOBIUS_SERVE_PLACEMENT_HH

#include <vector>

#include "base/units.hh"
#include "hw/topology.hh"
#include "model/cost_model.hh"

namespace mobius
{

/** Weight placement policy for serving. */
enum class ServePlacement
{
    MobiusSwap, //!< ring-prefetched stage swapping (the paper)
    AllInGpu,   //!< fully resident pipeline (must fit)
    ZeroGather, //!< per-iteration all-gather baseline
    Adaptive,   //!< MobiusSwap <-> AllInGpu on load watermarks
};

/** @return printable policy name ("mobius-swap", ...). */
const char *servePlacementName(ServePlacement p);

/** Placement knobs. */
struct PlacementConfig
{
    ServePlacement policy = ServePlacement::MobiusSwap;
    int switchHigh = 8; //!< adaptive: backlog to go all-in-GPU
};

/** One contiguous layer range bound to a GPU. */
struct ServeStage
{
    int lo = 0;  //!< first layer (inclusive)
    int hi = 0;  //!< last layer (exclusive)
    int gpu = 0; //!< executing GPU
    Bytes weightBytes = 0;        //!< FP16 weights of the range
    double secondsPerToken = 0.0; //!< forward compute per token
    double floorSeconds = 0.0;    //!< kernel-launch floor

    /** Forward seconds for a batch totalling @p tokens tokens. */
    double
    time(int tokens) const
    {
        if (tokens <= 0)
            return 0.0;
        const double t = secondsPerToken * tokens;
        return t > floorSeconds ? t : floorSeconds;
    }
};

/** The full inference stage plan for one (model, server, config). */
struct ServePlan
{
    std::vector<ServeStage> stages; //!< in execution order
    std::vector<int> gpuOrder;      //!< the mapping permutation used
    /** Per GPU: its stage ids, in execution order. */
    std::vector<std::vector<int>> owned;
    Bytes kvBytesPerToken = 0;  //!< whole-model KV bytes per token
    /** Per GPU: KV bytes/token of the layers it executes. */
    std::vector<Bytes> kvPerTokenGpu;
    Bytes actBytesPerToken = 0; //!< boundary activation per token

    int
    numStages() const
    {
        return static_cast<int>(stages.size());
    }

    /** Total FP16 weight bytes of the stages GPU @p gpu owns. */
    Bytes ownedBytes(int gpu) const;

    /** Largest single stage GPU @p gpu owns (carve-out unit). */
    Bytes maxOwnedStageBytes(int gpu) const;

    /** Largest stage overall (gather-mode chunk scratch unit). */
    Bytes maxStageBytes() const;
};

/**
 * Cut @p cost's model into 4 x N uniform stages (at most one per
 * layer) and cross-map them over @p topo. Every placement policy
 * serves the same stage plan, so the plan does not depend on the
 * PlacementConfig; callers pass the one they serve with.
 */
ServePlan buildServePlan(const CostModel &cost, const Topology &topo,
                         const PlacementConfig &);

} // namespace mobius

#endif // MOBIUS_SERVE_PLACEMENT_HH

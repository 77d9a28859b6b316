#include "serve/placement.hh"

#include <algorithm>

#include "base/logging.hh"
#include "plan/mapping.hh"

namespace mobius
{

namespace
{

constexpr int kStagesPerGpu = 4; //!< pipeline stages per GPU
static_assert(kStagesPerGpu > 0);

} // namespace

const char *
servePlacementName(ServePlacement p)
{
    switch (p) {
    case ServePlacement::MobiusSwap:
        return "mobius-swap";
    case ServePlacement::AllInGpu:
        return "all-in-gpu";
    case ServePlacement::ZeroGather:
        return "zero-gather";
    case ServePlacement::Adaptive:
        return "adaptive";
    }
    return "?";
}

Bytes
ServePlan::ownedBytes(int gpu) const
{
    Bytes total = 0;
    for (int s : owned[static_cast<std::size_t>(gpu)])
        total += stages[static_cast<std::size_t>(s)].weightBytes;
    return total;
}

Bytes
ServePlan::maxOwnedStageBytes(int gpu) const
{
    Bytes best = 0;
    for (int s : owned[static_cast<std::size_t>(gpu)])
        best = std::max(
            best, stages[static_cast<std::size_t>(s)].weightBytes);
    return best;
}

Bytes
ServePlan::maxStageBytes() const
{
    Bytes best = 0;
    for (const ServeStage &s : stages)
        best = std::max(best, s.weightBytes);
    return best;
}

ServePlan
buildServePlan(const CostModel &cost, const Topology &topo,
               const PlacementConfig &)
{
    const ModelDesc &model = cost.model();
    const int gpus = topo.numGpus();
    const int layers = model.numLayers();
    const int num_stages = std::min(layers, kStagesPerGpu * gpus);
    if (num_stages <= 0)
        fatal("model has no layers to place");

    const Mapping mapping = crossMapping(topo, num_stages).mapping;

    // Inference compute is costed per token: the training cost model
    // prices one microbatch of (microbatchSize x seqLen) tokens.
    const double tokens_per_mb =
        static_cast<double>(cost.cfg().microbatchSize) *
        static_cast<double>(model.seqLen);

    // KV-cache: K and V, FP16, per token per transformer block.
    const Bytes kv_per_block =
        4 * static_cast<Bytes>(model.hidden);

    ServePlan plan;
    plan.gpuOrder = mapping.gpuOrder;
    plan.owned.assign(static_cast<std::size_t>(gpus), {});
    plan.actBytesPerToken = 2 * static_cast<Bytes>(model.hidden);
    plan.stages.reserve(static_cast<std::size_t>(num_stages));
    plan.kvPerTokenGpu.assign(static_cast<std::size_t>(gpus), 0);
    for (int s = 0; s < num_stages; ++s) {
        ServeStage st;
        st.lo = static_cast<int>(
            (static_cast<long long>(layers) * s) / num_stages);
        st.hi = static_cast<int>(
            (static_cast<long long>(layers) * (s + 1)) / num_stages);
        st.gpu = mapping.gpuOf(s);
        st.weightBytes = cost.rangeParamBytes(st.lo, st.hi);
        st.secondsPerToken =
            cost.rangeFwdTime(st.lo, st.hi) / tokens_per_mb;
        st.floorSeconds =
            static_cast<double>(st.hi - st.lo) *
            cost.cfg().kernelLatency;
        Bytes kv = 0; // KV bytes/token of the range
        for (int l = st.lo; l < st.hi; ++l) {
            if (model.layers[static_cast<std::size_t>(l)].type ==
                LayerType::TransformerBlock)
                kv += kv_per_block;
        }
        plan.kvBytesPerToken += kv;
        plan.kvPerTokenGpu[static_cast<std::size_t>(st.gpu)] += kv;
        plan.owned[static_cast<std::size_t>(st.gpu)].push_back(s);
        plan.stages.push_back(st);
    }
    return plan;
}

} // namespace mobius

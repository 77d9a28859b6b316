/**
 * @file
 * Unit tests for the layer profiler and layer-similarity compression.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>

#include "model/cost_model.hh"
#include "profile/profiler.hh"

namespace mobius
{
namespace
{

CostModel
makeCost(const GptConfig &cfg)
{
    // A deque: earlier CostModels keep pointing at their ModelDesc.
    static std::deque<ModelDesc> keep;
    keep.push_back(makeGptModel(cfg));
    TrainConfig tc;
    tc.microbatchSize = cfg.microbatchSize;
    return CostModel(keep.back(), rtx3090Ti(), tc);
}

TEST(Profiler, SimilarityMeasuresOncePerClass)
{
    auto cost = makeCost(gpt51b());
    ProfilerConfig cfg;
    cfg.useLayerSimilarity = true;
    auto result = profileModel(cost, cfg);
    // 4 similarity classes -> only 4 layers measured for a 53-layer
    // model.
    EXPECT_EQ(result.profiledLayers, 4);

    cfg.useLayerSimilarity = false;
    auto full = profileModel(cost, cfg);
    EXPECT_EQ(full.profiledLayers, cost.numLayers());
    EXPECT_GT(full.profilingTime, result.profilingTime * 5);
}

TEST(Profiler, SimilarModelsHaveCloseProfilingTime)
{
    // Fig. 12 observation 2: the 8B and 15B models profile in
    // similar time because only distinct layers are measured.
    auto c8 = makeCost(gpt8b());
    auto c15 = makeCost(gpt15b());
    auto p8 = profileModel(c8);
    auto p15 = profileModel(c15);
    EXPECT_LT(p15.profilingTime, p8.profilingTime * 4.0);
    EXPECT_GT(p15.profilingTime, p8.profilingTime * 0.25);
}

TEST(Profiler, PinnedOnTable3Models)
{
    // Measured layers and the exact bits of profilingTime (what
    // planMobius reports as plan.profiling_seconds), layer
    // similarity on then off, per Table 3 model in paper order.
    struct Pin
    {
        int layers;
        std::uint64_t bits;
    };
    const Pin pins[4][2] = {
        {{4, 0x3fbe9a6ed8923178ULL}, {67, 0x4002737c40ee1869ULL}},
        {{4, 0x3fd389a4397c6cf5ULL}, {43, 0x401675f5171de618ULL}},
        {{4, 0x3fd1a1780146e3e4ULL}, {43, 0x401565572354d8fbULL}},
        {{4, 0x3fe5c5ec70e9417cULL}, {53, 0x403537dd35f6e89aULL}},
    };
    const std::vector<GptConfig> models = table3Models();
    ASSERT_EQ(models.size(), 4u);
    for (std::size_t m = 0; m < models.size(); ++m) {
        const CostModel cost = makeCost(models[m]);
        for (int full = 0; full < 2; ++full) {
            ProfilerConfig cfg;
            cfg.useLayerSimilarity = full == 0;
            const ProfileResult r = profileModel(cost, cfg);
            std::uint64_t bits = 0;
            std::memcpy(&bits, &r.profilingTime, sizeof bits);
            EXPECT_EQ(r.profiledLayers, pins[m][full].layers)
                << models[m].name << " full=" << full;
            EXPECT_EQ(bits, pins[m][full].bits)
                << models[m].name << " full=" << full;
        }
    }
}

} // namespace
} // namespace mobius

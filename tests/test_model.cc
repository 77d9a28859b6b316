/**
 * @file
 * Unit tests for model descriptions and the cost model.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "model/cost_model.hh"
#include "model/model.hh"

namespace mobius
{
namespace
{

TEST(Model, Table3Configs)
{
    auto models = table3Models();
    ASSERT_EQ(models.size(), 4u);
    EXPECT_EQ(models[0].hidden, 2048);
    EXPECT_EQ(models[0].numBlocks, 64);
    EXPECT_EQ(models[0].heads, 32);
    EXPECT_EQ(models[0].microbatchSize, 2);
    EXPECT_EQ(models[1].hidden, 4096);
    EXPECT_EQ(models[1].numBlocks, 40);
    EXPECT_EQ(models[2].hidden, 5120);
    EXPECT_EQ(models[2].heads, 64);
    EXPECT_EQ(models[2].microbatchSize, 1);
    EXPECT_EQ(models[3].hidden, 9216);
    EXPECT_EQ(models[3].numBlocks, 50);
    for (const auto &m : models)
        EXPECT_EQ(m.seqLen, 512);
}

TEST(Model, ParameterCountsMatchNominalSizes)
{
    // Nominal sizes are approximate; require right ballpark.
    auto check = [](const GptConfig &cfg, double billions) {
        ModelDesc m = makeGptModel(cfg);
        double params = static_cast<double>(m.totalParams()) / 1e9;
        EXPECT_GT(params, billions * 0.8) << cfg.name;
        EXPECT_LT(params, billions * 1.25) << cfg.name;
    };
    check(gpt3b(), 3.0);
    check(gpt8b(), 8.0);
    check(gpt15b(), 13.0);  // 64x5120 blocks give ~12.9B nominal "15B"
    check(gpt51b(), 51.0);
}

TEST(Model, LayerStackStructure)
{
    ModelDesc m = makeGptModel(gpt8b());
    // embedding + 40 blocks + final norm + lm head.
    ASSERT_EQ(m.numLayers(), 43);
    EXPECT_EQ(m.layers.front().type, LayerType::Embedding);
    EXPECT_EQ(m.layers[1].type, LayerType::TransformerBlock);
    EXPECT_EQ(m.layers[41].type, LayerType::FinalNorm);
    EXPECT_EQ(m.layers.back().type, LayerType::LmHead);
}

TEST(Model, RejectsNonPositiveDimensions)
{
    std::vector<GptConfig> bad(6, gpt3b());
    bad[0].heads = 0;
    bad[1].hidden = 0;
    bad[2].numBlocks = 0;
    bad[3].vocab = -1;
    bad[4].seqLen = 0;
    bad[5].microbatchSize = 0;
    for (const GptConfig &cfg : bad)
        EXPECT_THROW(makeGptModel(cfg), FatalError);
}

TEST(Model, SimilarityClassesCollapseBlocks)
{
    ModelDesc m = makeGptModel(gpt51b());
    // 4 classes regardless of depth: embed, block, norm, head.
    EXPECT_EQ(m.numSimilarityClasses(), 4);
    EXPECT_EQ(m.layers[1].similarityClass,
              m.layers[40].similarityClass);
}

TEST(Model, ByteAccountingConventions)
{
    ModelDesc m = makeGptModel(gpt8b());
    const LayerDesc &block = m.layers[1];
    EXPECT_EQ(block.paramBytesFp16(), 2 * block.paramCount);
    EXPECT_EQ(block.paramBytesFp32(), 4 * block.paramCount);
    EXPECT_EQ(block.gradBytesFp16(), block.paramBytesFp32() / 2);
    EXPECT_EQ(m.totalParamBytesFp32(), 2 * m.totalParamBytesFp16());
}

TEST(Model, BoundaryActivationIsSeqHiddenFp16)
{
    ModelDesc m = makeGptModel(gpt15b());
    EXPECT_EQ(m.layers[1].actBytesPerSample,
              static_cast<Bytes>(2) * 512 * 5120);
}

TEST(CostModel, ForwardTimeScalesWithFlops)
{
    ModelDesc m = makeGptModel(gpt8b());
    TrainConfig cfg;
    cfg.microbatchSize = 2;
    cfg.kernelLatency = 0.0;
    CostModel cost(m, rtx3090Ti(), cfg);
    double t = cost.fwdTime(1);
    double flops = m.layers[1].fwdFlopsPerSample * 2;
    EXPECT_NEAR(t, flops / (rtx3090Ti().fp16Flops * cfg.mfu), 1e-12);
}

TEST(CostModel, BackwardIsThriceForwardWithCheckpointing)
{
    ModelDesc m = makeGptModel(gpt8b());
    TrainConfig cfg;
    cfg.kernelLatency = 0.0;
    cfg.activationCheckpointing = true;
    CostModel cost(m, rtx3090Ti(), cfg);
    EXPECT_NEAR(cost.bwdTime(5), 3.0 * cost.fwdTime(5), 1e-12);

    cfg.activationCheckpointing = false;
    CostModel cost2(m, rtx3090Ti(), cfg);
    EXPECT_NEAR(cost2.bwdTime(5), 2.0 * cost2.fwdTime(5), 1e-12);
}

TEST(CostModel, EveryLayerRunsForwardFasterThanBackward)
{
    // The cost model the planner reads (Workload's: Table 3
    // microbatch, one microbatch per GPU of a 4-GPU commodity box):
    // every layer has 0 < fwdTime < bwdTime.
    for (const GptConfig &g : table3Models()) {
        ModelDesc m = makeGptModel(g);
        TrainConfig cfg;
        cfg.microbatchSize = g.microbatchSize;
        cfg.numMicrobatches = 4;
        CostModel cost(m, rtx3090Ti(), cfg);
        for (int i = 0; i < cost.numLayers(); ++i) {
            EXPECT_GT(cost.fwdTime(i), 0.0) << g.name << " layer " << i;
            EXPECT_GT(cost.bwdTime(i), cost.fwdTime(i))
                << g.name << " layer " << i;
        }
    }
}

TEST(CostModel, RangeAggregatesSum)
{
    ModelDesc m = makeGptModel(gpt3b());
    CostModel cost(m, rtx3090Ti(), TrainConfig{});
    double sum = 0;
    Bytes bytes = 0;
    for (int i = 2; i < 7; ++i) {
        sum += cost.fwdTime(i);
        bytes += cost.paramBytes(i);
    }
    EXPECT_NEAR(cost.rangeFwdTime(2, 7), sum, 1e-12);
    EXPECT_EQ(cost.rangeParamBytes(2, 7), bytes);
}

TEST(CostModel, StageMemoryMonotoneInRange)
{
    ModelDesc m = makeGptModel(gpt15b());
    CostModel cost(m, rtx3090Ti(), TrainConfig{});
    EXPECT_LT(cost.stageMemFwd(1, 3), cost.stageMemFwd(1, 6));
    EXPECT_LT(cost.stageMemFwd(1, 6), cost.stageMemBwd(1, 6));
}

TEST(CostModel, SingleBlockOf51bFitsSingleGpu)
{
    // §4 workloads: "the Transformer block with a 9216 hidden
    // dimension is the largest block a single GPU can hold during
    // training" — one block must fit, with little room to spare.
    ModelDesc m = makeGptModel(gpt51b());
    TrainConfig cfg;
    cfg.microbatchSize = 1;
    CostModel cost(m, rtx3090Ti(), cfg);
    EXPECT_LT(cost.stageMemBwd(1, 2), rtx3090Ti().memBytes);
}

TEST(CostModel, ResidentPipelinesOomBeyond3b)
{
    // Fig. 5: the 3B model is the largest GPipe (all-in-GPU-memory,
    // optimizer states resident) can train on 4x 3090-Ti; 8B+ OOM.
    auto resident = [](const GptConfig &cfg) {
        ModelDesc m = makeGptModel(cfg);
        TrainConfig tc;
        tc.microbatchSize = cfg.microbatchSize;
        tc.numMicrobatches = 4;
        CostModel cost(m, rtx3090Ti(), tc);
        return cost.stageMemResident(0, m.numLayers(), 4);
    };
    EXPECT_LT(resident(gpt3b()), 4 * rtx3090Ti().memBytes);
    EXPECT_GT(resident(gpt8b()), 4 * rtx3090Ti().memBytes);
    EXPECT_GT(resident(gpt15b()), 4 * rtx3090Ti().memBytes);
    EXPECT_GT(resident(gpt51b()), 4 * rtx3090Ti().memBytes);
}

TEST(CostModel, OptimizerBytesConvention)
{
    ModelDesc m = makeGptModel(gpt8b());
    CostModel cost(m, rtx3090Ti(), TrainConfig{});
    EXPECT_EQ(cost.optimizerBytes(1),
              12 * m.layers[1].paramCount);
}

TEST(CostModel, InputActivationChains)
{
    ModelDesc m = makeGptModel(gpt8b());
    TrainConfig cfg;
    cfg.microbatchSize = 2;
    CostModel cost(m, rtx3090Ti(), cfg);
    EXPECT_EQ(cost.inActBytes(3), cost.actBytes(2));
    // Layer 0 consumes token ids (4 B each).
    EXPECT_EQ(cost.inActBytes(0), static_cast<Bytes>(512 * 4 * 2));
}

TEST(CostModel, RejectsBadConfig)
{
    ModelDesc m = makeGptModel(gpt3b());
    TrainConfig bad;
    bad.microbatchSize = 0;
    EXPECT_THROW(CostModel(m, rtx3090Ti(), bad), FatalError);
    TrainConfig bad2;
    bad2.mfu = 1.5;
    EXPECT_THROW(CostModel(m, rtx3090Ti(), bad2), FatalError);
}

} // namespace
} // namespace mobius

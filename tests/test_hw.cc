/**
 * @file
 * Unit tests for GPU specs, topology construction, routing and
 * root-complex queries.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "hw/server.hh"
#include "hw/topology.hh"

namespace mobius
{
namespace
{

TEST(GpuSpec, Table1Values)
{
    // Table 1 of the paper.
    EXPECT_DOUBLE_EQ(rtx3090Ti().priceUsd, 2000.0);
    EXPECT_DOUBLE_EQ(a100().priceUsd, 14000.0);
    EXPECT_DOUBLE_EQ(rtx3090Ti().fp32Flops, 40.0 * TFLOPS);
    EXPECT_DOUBLE_EQ(a100().fp32Flops, 19.0 * TFLOPS);
    EXPECT_EQ(rtx3090Ti().tensorCores, 336);
    EXPECT_EQ(a100().tensorCores, 432);
    EXPECT_FALSE(rtx3090Ti().gpudirectP2p);
    EXPECT_FALSE(rtx3090Ti().nvlink);
    EXPECT_TRUE(a100().gpudirectP2p);
    EXPECT_TRUE(a100().nvlink);
    EXPECT_EQ(rtx3090Ti().memBytes, 24 * GiB);
}

TEST(Topology, CommodityTopo22Structure)
{
    Server s = makeCommodityServer({2, 2});
    const Topology &t = s.topo;
    EXPECT_EQ(t.numGpus(), 4);
    EXPECT_FALSE(t.gpudirectP2p());
    // 2 RCs + 2 switches + 4 GPUs = 8 links.
    EXPECT_EQ(t.numLinks(), 8);
    EXPECT_EQ(t.rootComplexes().size(), 2u);

    // GPUs 0,1 under rc0; GPUs 2,3 under rc1.
    EXPECT_EQ(t.rootComplexOf(0), t.rootComplexOf(1));
    EXPECT_EQ(t.rootComplexOf(2), t.rootComplexOf(3));
    EXPECT_NE(t.rootComplexOf(0), t.rootComplexOf(2));
}

TEST(Topology, Topo13Grouping)
{
    Server s = makeCommodityServer({1, 3});
    const Topology &t = s.topo;
    EXPECT_EQ(t.gpusUnderRootComplex(t.rootComplexOf(0)).size(), 1u);
    EXPECT_EQ(t.gpusUnderRootComplex(t.rootComplexOf(1)).size(), 3u);
}

TEST(Topology, SharedRootComplexDegreeMatchesEq12)
{
    Server s = makeCommodityServer({1, 3});
    const Topology &t = s.topo;
    // shared(i, j) = #GPUs under the common RC, or 0 if separated.
    EXPECT_EQ(t.sharedRootComplexDegree(0, 1), 0);
    EXPECT_EQ(t.sharedRootComplexDegree(1, 2), 3);
    EXPECT_EQ(t.sharedRootComplexDegree(2, 3), 3);
}

TEST(Topology, RouteDramToGpuTraversesThreeHops)
{
    Server s = makeCommodityServer({2, 2});
    auto hops = s.topo.route(Endpoint::dram(), Endpoint::gpuAt(0));
    // dram->rc, rc->switch, switch->gpu.
    ASSERT_EQ(hops.size(), 3u);
    for (const auto &h : hops)
        EXPECT_TRUE(h.forward);

    auto up = s.topo.route(Endpoint::gpuAt(0), Endpoint::dram());
    ASSERT_EQ(up.size(), 3u);
    for (const auto &h : up)
        EXPECT_FALSE(h.forward);

    // Opposite directions use distinct capacity pools.
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_NE(hops[i].poolId(), up[2 - i].poolId());
}

TEST(Topology, GpuToGpuWithoutP2pIsFatal)
{
    Server s = makeCommodityServer({2, 2});
    EXPECT_THROW(
        s.topo.route(Endpoint::gpuAt(0), Endpoint::gpuAt(1)),
        FatalError);
    EXPECT_FALSE(s.topo.routable(Endpoint::gpuAt(0),
                                 Endpoint::gpuAt(1)));
    EXPECT_TRUE(s.topo.routable(Endpoint::gpuAt(0),
                                Endpoint::dram()));
}

TEST(Topology, DataCenterUsesNvlinkPeerRoute)
{
    Server s = makeDataCenterServer(4);
    EXPECT_TRUE(s.topo.gpudirectP2p());
    auto hops = s.topo.route(Endpoint::gpuAt(0), Endpoint::gpuAt(3));
    ASSERT_EQ(hops.size(), 1u);
    EXPECT_TRUE(s.topo.link(hops[0].link).peer);
    EXPECT_DOUBLE_EQ(s.topo.link(hops[0].link).capacity,
                     kNvlinkPairBw);
}

TEST(Topology, P2pFabricRouteWithoutPeerLink)
{
    // P2P-capable GPUs but no NVLink: route over the PCIe fabric.
    Server s = makeCommodityServer({2, 2}, a100());
    EXPECT_TRUE(s.topo.gpudirectP2p());
    // Same switch: up one hop, down one hop.
    auto near = s.topo.route(Endpoint::gpuAt(0), Endpoint::gpuAt(1));
    EXPECT_EQ(near.size(), 2u);
    // Across root complexes: 3 up through DRAM + 3 down.
    auto far = s.topo.route(Endpoint::gpuAt(0), Endpoint::gpuAt(2));
    EXPECT_EQ(far.size(), 6u);
}

TEST(Topology, ParseTopoGroups)
{
    EXPECT_EQ(parseTopoGroups("4"), (std::vector<int>{4}));
    EXPECT_EQ(parseTopoGroups("2+2"), (std::vector<int>{2, 2}));
    EXPECT_EQ(parseTopoGroups("1+3"), (std::vector<int>{1, 3}));
    EXPECT_EQ(parseTopoGroups("4+4"), (std::vector<int>{4, 4}));
    EXPECT_THROW(parseTopoGroups("2+x"), FatalError);
    EXPECT_THROW(parseTopoGroups("2++2"), FatalError);
    EXPECT_THROW(parseTopoGroups("+"), FatalError);
    EXPECT_THROW(parseTopoGroups("2x"), FatalError);
}

TEST(Topology, ServerNamesDescribeTopology)
{
    EXPECT_NE(makeCommodityServer({2, 2}).name.find("Topo 2+2"),
              std::string::npos);
    EXPECT_NE(makeDataCenterServer(4).name.find("V100"),
              std::string::npos);
}

TEST(Topology, LinkCapacitiesAreEffectivePcie)
{
    Server s = makeCommodityServer({4});
    for (int l = 0; l < s.topo.numLinks(); ++l)
        EXPECT_DOUBLE_EQ(s.topo.link(l).capacity, kPcie3x16Bw);
}

} // namespace
} // namespace mobius

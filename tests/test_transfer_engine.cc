/**
 * @file
 * Unit tests for the transfer engine: copy-engine serialisation,
 * priorities, staging through DRAM, contention, stats/usage
 * tracking, seeded random mixes and multi-component re-solves
 * pinned to span fingerprints, and allocation-free rate re-solves.
 */

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "alloc_counter.hh"
#include "base/rng.hh"
#include "hw/server.hh"
#include "simcore/trace.hh"
#include "xfer/compute_engine.hh"
#include "xfer/transfer_engine.hh"

namespace mobius
{
namespace
{

/** Test fixture with a Topo 2+2 commodity box. */
class TransferEngineTest : public ::testing::Test
{
  protected:
    TransferEngineTest()
        : server_(makeCommodityServer({2, 2})),
          usage_(queue_, server_.topo.numGpus()),
          engine_(queue_, server_.topo, &usage_, cfg())
    {}

    static TransferEngineConfig
    cfg()
    {
        TransferEngineConfig c;
        c.setupLatency = 0.0; // exact arithmetic in most tests
        return c;
    }

    EventQueue queue_;
    Server server_;
    UsageTracker usage_;
    TransferEngine engine_;
};

TEST_F(TransferEngineTest, SingleUploadRunsAtLinkBandwidth)
{
    const Bytes bytes = 131 * 100 * MiB / 100; // ~131 MiB
    double done_at = -1.0;
    TransferRequest req;
    req.src = Endpoint::dram();
    req.dst = Endpoint::gpuAt(0);
    req.bytes = bytes;
    req.kind = TrafficKind::Parameter;
    req.onComplete = [&] { done_at = queue_.now(); };
    engine_.submit(req);
    queue_.run();

    double expect = static_cast<double>(bytes) / kPcie3x16Bw;
    EXPECT_NEAR(done_at, expect, expect * 1e-6);
    EXPECT_EQ(engine_.stats().bytesOf(TrafficKind::Parameter), bytes);

    ASSERT_EQ(engine_.stats().samples().size(), 1u);
    EXPECT_NEAR(engine_.stats().samples()[0].bandwidth, kPcie3x16Bw,
                1e3);
}

TEST_F(TransferEngineTest, SameRootComplexContendsHalfBandwidth)
{
    // GPUs 0 and 1 share rc0: simultaneous uploads halve each rate.
    const Bytes bytes = 1 * GiB;
    int done = 0;
    double finish = 0.0;
    for (int g = 0; g < 2; ++g) {
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(g);
        req.bytes = bytes;
        req.onComplete = [&] {
            ++done;
            finish = queue_.now();
        };
        engine_.submit(req);
    }
    queue_.run();
    EXPECT_EQ(done, 2);
    double expect = static_cast<double>(bytes) / (kPcie3x16Bw / 2.0);
    EXPECT_NEAR(finish, expect, expect * 1e-6);
}

TEST_F(TransferEngineTest, DifferentRootComplexesNoContention)
{
    // GPUs 0 and 2 are under different RCs: full bandwidth each —
    // the mechanism behind cross mapping (§3.3).
    const Bytes bytes = 1 * GiB;
    double finish = 0.0;
    for (int g : {0, 2}) {
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(g);
        req.bytes = bytes;
        req.onComplete = [&] { finish = queue_.now(); };
        engine_.submit(req);
    }
    queue_.run();
    double expect = static_cast<double>(bytes) / kPcie3x16Bw;
    EXPECT_NEAR(finish, expect, expect * 1e-6);
}

TEST_F(TransferEngineTest, OppositeDirectionsDoNotContend)
{
    // Full-duplex: an upload to GPU0 and a download from GPU1 (same
    // RC) both run at full rate.
    const Bytes bytes = 1 * GiB;
    double f0 = 0, f1 = 0;
    TransferRequest up;
    up.src = Endpoint::dram();
    up.dst = Endpoint::gpuAt(0);
    up.bytes = bytes;
    up.onComplete = [&] { f0 = queue_.now(); };
    engine_.submit(up);

    TransferRequest down;
    down.src = Endpoint::gpuAt(1);
    down.dst = Endpoint::dram();
    down.bytes = bytes;
    down.onComplete = [&] { f1 = queue_.now(); };
    engine_.submit(down);

    queue_.run();
    double expect = static_cast<double>(bytes) / kPcie3x16Bw;
    EXPECT_NEAR(f0, expect, expect * 1e-6);
    EXPECT_NEAR(f1, expect, expect * 1e-6);
}

TEST_F(TransferEngineTest, CopyEngineSerialisesSameDirection)
{
    // Two uploads to the SAME GPU share its single H2D engine: they
    // run back-to-back, not concurrently.
    const Bytes bytes = 1 * GiB;
    std::vector<double> finishes;
    for (int i = 0; i < 2; ++i) {
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(0);
        req.bytes = bytes;
        req.onComplete = [&] { finishes.push_back(queue_.now()); };
        engine_.submit(req);
    }
    queue_.run();
    double one = static_cast<double>(bytes) / kPcie3x16Bw;
    ASSERT_EQ(finishes.size(), 2u);
    EXPECT_NEAR(finishes[0], one, one * 1e-6);
    EXPECT_NEAR(finishes[1], 2 * one, one * 1e-6);
}

TEST_F(TransferEngineTest, PriorityReordersWaitingTransfers)
{
    // Three queued uploads to GPU0; the last-submitted has the most
    // urgent priority and must run before the earlier low-priority
    // one (cudaStreamCreateWithPriority behaviour, §3.3).
    const Bytes bytes = 100 * MiB;
    std::vector<int> order;
    auto submit = [&](int id, int prio) {
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(0);
        req.bytes = bytes;
        req.priority = prio;
        req.onComplete = [&, id] { order.push_back(id); };
        engine_.submit(req);
    };
    submit(0, 5);  // starts immediately (engine idle)
    submit(1, 5);
    submit(2, 1);  // urgent: jumps ahead of 1
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(TransferEngineTest, SimultaneousStartsFollowLowestEngineId)
{
    // A staged GPU2 -> GPU0 copy holds GPU2's D2H engine (id 5) and
    // GPU0's H2D engine (id 0). A download from GPU2 and an upload
    // to GPU0 queue behind it, one on each engine. Both start when
    // it finishes, run at the same rate on disjoint links and land
    // at the same instant, so equal-time events fire in the order
    // the two were started: by lowest engine id, the upload first,
    // whatever the submission order or the order the staged copy
    // lists its engines in.
    std::vector<std::string> order;
    std::vector<double> landed;
    auto submit = [&](Endpoint src, Endpoint dst, std::string name) {
        TransferRequest req;
        req.src = src;
        req.dst = dst;
        req.bytes = 256 * MiB;
        req.onComplete = [&, name] {
            order.push_back(name);
            landed.push_back(queue_.now());
        };
        engine_.submit(req);
    };
    submit(Endpoint::gpuAt(2), Endpoint::gpuAt(0), "staged");
    submit(Endpoint::gpuAt(2), Endpoint::dram(), "down2");
    submit(Endpoint::dram(), Endpoint::gpuAt(0), "up0");
    queue_.run();
    EXPECT_EQ(order,
              (std::vector<std::string>{"staged", "up0", "down2"}));
    ASSERT_EQ(landed.size(), 3u);
    EXPECT_EQ(landed[1], landed[2]); // a tie: only start order decides
}

TEST_F(TransferEngineTest, TiedCompletionsFireInSubmissionOrder)
{
    // Uploads to GPU0 and GPU1 share rc0's H2D pool, start moving in
    // the same instant and split it evenly, so they land together.
    // The second upload's start walks its component from itself,
    // reaching the first upload after it; completions are still
    // scheduled in ascending FlowId order, so the first submitted
    // lands first.
    std::vector<int> order;
    std::vector<double> landed;
    for (int g : {0, 1}) {
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(g);
        req.bytes = 256 * MiB;
        req.onComplete = [&, g] {
            order.push_back(g);
            landed.push_back(queue_.now());
        };
        engine_.submit(req);
    }
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    ASSERT_EQ(landed.size(), 2u);
    EXPECT_EQ(landed[0], landed[1]); // a tie: only schedule order decides
}

TEST_F(TransferEngineTest, GpuToGpuStagedThroughDram)
{
    // No P2P on the commodity box: GPU0 -> GPU1 is a cut-through
    // staged flow; both GPUs are under rc0 so the up and down legs
    // use opposite directions and the flow runs at link rate.
    const Bytes bytes = 1 * GiB;
    double finish = 0.0;
    TransferRequest req;
    req.src = Endpoint::gpuAt(0);
    req.dst = Endpoint::gpuAt(1);
    req.bytes = bytes;
    req.kind = TrafficKind::Activation;
    req.onComplete = [&] { finish = queue_.now(); };
    engine_.submit(req);
    queue_.run();
    double expect = static_cast<double>(bytes) / kPcie3x16Bw;
    EXPECT_NEAR(finish, expect, expect * 1e-6);
    EXPECT_EQ(engine_.stats().bytesOf(TrafficKind::Activation),
              bytes);
}

TEST_F(TransferEngineTest, StagedTransferContendsWithUpload)
{
    // GPU2 -> GPU3 staging (down-leg into rc1) vs DRAM -> GPU3
    // upload: both use rc1's down direction, halving rates.
    const Bytes bytes = 1 * GiB;
    double f_staged = 0, f_up = 0;
    TransferRequest staged;
    staged.src = Endpoint::gpuAt(2);
    staged.dst = Endpoint::gpuAt(3);
    staged.bytes = bytes;
    staged.onComplete = [&] { f_staged = queue_.now(); };
    engine_.submit(staged);

    TransferRequest up;
    up.src = Endpoint::dram();
    // GPU2's H2D engine is free (staged flow holds GPU2-D2H and
    // GPU3-H2D), so route the upload to GPU2.
    up.dst = Endpoint::gpuAt(2);
    up.bytes = bytes;
    up.onComplete = [&] { f_up = queue_.now(); };
    engine_.submit(up);

    queue_.run();
    // Both cross the rc1 "down" pool concurrently.
    double expect = static_cast<double>(bytes) / (kPcie3x16Bw / 2);
    EXPECT_NEAR(f_staged, expect, expect * 1e-5);
    EXPECT_NEAR(f_up, expect, expect * 1e-5);
}

TEST_F(TransferEngineTest, SetupLatencyDelaysCompletion)
{
    TransferEngineConfig cfg;
    cfg.setupLatency = 1e-3;
    EventQueue q;
    TransferEngine eng(q, server_.topo, nullptr, cfg);
    const Bytes bytes = 131 * MiB;
    double finish = 0.0;
    TransferRequest req;
    req.src = Endpoint::dram();
    req.dst = Endpoint::gpuAt(0);
    req.bytes = bytes;
    req.onComplete = [&] { finish = q.now(); };
    eng.submit(req);
    q.run();
    double data = static_cast<double>(bytes) / kPcie3x16Bw;
    EXPECT_NEAR(finish, data + 1e-3, data * 1e-6);
}

TEST_F(TransferEngineTest, ZeroByteTransferCompletes)
{
    bool done = false;
    TransferRequest req;
    req.src = Endpoint::dram();
    req.dst = Endpoint::gpuAt(0);
    req.bytes = 0;
    req.onComplete = [&] { done = true; };
    engine_.submit(req);
    queue_.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(engine_.idle());
}

TEST_F(TransferEngineTest, UsageTrackerSeparatesOverlap)
{
    // GPU0: 1 s of compute starting at t=0; a 1 GiB upload also at
    // t=0 (~0.082 s). The upload is fully overlapped.
    ComputeEngine compute(queue_, &usage_, 0);
    compute.submit(1.0, nullptr);

    TransferRequest req;
    req.src = Endpoint::dram();
    req.dst = Endpoint::gpuAt(0);
    req.bytes = 1 * GiB;
    engine_.submit(req);
    queue_.run();

    double xfer = static_cast<double>(1 * GiB) / kPcie3x16Bw;
    EXPECT_NEAR(usage_.computeTime(0), 1.0, 1e-9);
    EXPECT_NEAR(usage_.overlappedCommTime(0), xfer, 1e-6);
    EXPECT_NEAR(usage_.exposedCommTime(0), 0.0, 1e-9);
}

TEST_F(TransferEngineTest, UsageTrackerExposedWhenIdle)
{
    TransferRequest req;
    req.src = Endpoint::dram();
    req.dst = Endpoint::gpuAt(1);
    req.bytes = 1 * GiB;
    engine_.submit(req);
    queue_.run();
    double xfer = static_cast<double>(1 * GiB) / kPcie3x16Bw;
    EXPECT_NEAR(usage_.exposedCommTime(1), xfer, 1e-6);
    EXPECT_NEAR(usage_.overlappedCommTime(1), 0.0, 1e-9);
}

TEST_F(TransferEngineTest, NvlinkPeerTransferFast)
{
    Server dc = makeDataCenterServer(4);
    EventQueue q;
    TransferEngine eng(q, dc.topo, nullptr, cfg());
    const Bytes bytes = 1 * GiB;
    double finish = 0.0;
    TransferRequest req;
    req.src = Endpoint::gpuAt(0);
    req.dst = Endpoint::gpuAt(1);
    req.bytes = bytes;
    req.onComplete = [&] { finish = q.now(); };
    eng.submit(req);
    q.run();
    double expect = static_cast<double>(bytes) / kNvlinkPairBw;
    EXPECT_NEAR(finish, expect, expect * 1e-6);
}

TEST_F(TransferEngineTest, IncrementalSkipsDisjointFlows)
{
    // GPUs 0 (rc0) and 2 (rc1) share no pools: starting/finishing
    // one must re-solve only its own component and skip the other.
    int done = 0;
    for (int g : {0, 2}) {
        TransferRequest req;
        req.src = Endpoint::dram();
        req.dst = Endpoint::gpuAt(g);
        req.bytes = 1 * GiB;
        req.onComplete = [&] { ++done; };
        engine_.submit(req);
    }
    queue_.run();
    EXPECT_EQ(done, 2);
    const FairShareActivity &a = engine_.fairShareActivity();
    EXPECT_GE(a.solves, 2u);
    EXPECT_GT(a.flowsSkipped, 0u);
    EXPECT_EQ(a.crossChecks, 0u); // mode off by default
}

/**
 * A contended mix — shared root complex, opposite directions, a
 * staged GPU-to-GPU flow, staggered submissions, and a mid-flight
 * link-capacity change — on one engine. @return every completion
 * time, in order, plus the engine's fair-share telemetry.
 */
std::pair<std::vector<double>, FairShareActivity>
runContendedMix(bool cross_check)
{
    EventQueue q;
    Server server = makeCommodityServer({2, 2});
    UsageTracker usage(q, server.topo.numGpus());
    TransferEngineConfig c;
    c.setupLatency = 0.0;
    c.fairShareCrossCheck = cross_check;
    TransferEngine eng(q, server.topo, &usage, c);

    std::vector<double> done;
    auto submitAt = [&](double at, Endpoint src, Endpoint dst,
                        Bytes bytes) {
        q.schedule(at, [&eng, &q, &done, src, dst, bytes] {
            TransferRequest req;
            req.src = src;
            req.dst = dst;
            req.bytes = bytes;
            req.onComplete = [&] { done.push_back(q.now()); };
            eng.submit(req);
        });
    };
    submitAt(0.0, Endpoint::dram(), Endpoint::gpuAt(0), 2 * GiB);
    submitAt(0.01, Endpoint::dram(), Endpoint::gpuAt(1), 1 * GiB);
    submitAt(0.02, Endpoint::gpuAt(0), Endpoint::dram(), 1 * GiB);
    submitAt(0.03, Endpoint::dram(), Endpoint::gpuAt(2), 2 * GiB);
    submitAt(0.04, Endpoint::gpuAt(1), Endpoint::gpuAt(3),
             1 * GiB / 2);
    // A fault-style bandwidth degradation and its recovery, while
    // flows are in flight.
    q.schedule(0.05, [&eng] { eng.setLinkCapacityFactor(0, 0.5); });
    q.schedule(0.10, [&eng] { eng.setLinkCapacityFactor(0, 1.0); });
    q.run();
    return {done, eng.fairShareActivity()};
}

TEST(TransferEngineCrossCheck, ContendedMixSurvivesAndMatches)
{
    // The cross-checked run re-solves everything from scratch after
    // every incremental update and panics on any divergence — so
    // completing at all is the invariant check. Completion times
    // must also be bit-identical with the unchecked engine.
    auto plain = runContendedMix(false);
    auto checked = runContendedMix(true);
    ASSERT_EQ(plain.first.size(), 5u);
    ASSERT_EQ(checked.first.size(), plain.first.size());
    for (std::size_t i = 0; i < plain.first.size(); ++i)
        EXPECT_EQ(checked.first[i], plain.first[i]) << "flow " << i;
    EXPECT_GT(checked.second.crossChecks, 0u);
    EXPECT_EQ(plain.second.crossChecks, 0u);
    EXPECT_EQ(checked.second.solves, plain.second.solves);
    EXPECT_EQ(checked.second.flowsTouched,
              plain.second.flowsTouched);
}

TEST_F(TransferEngineTest, ComputeEngineFifoAndBusyTime)
{
    ComputeEngine compute(queue_, nullptr, 0);
    std::vector<int> order;
    compute.submit(0.5, [&] { order.push_back(0); });
    compute.submit(0.25, [&] { order.push_back(1); });
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_DOUBLE_EQ(compute.busyTime(), 0.75);
    EXPECT_DOUBLE_EQ(queue_.now(), 0.75);
    EXPECT_TRUE(compute.idle());
}

/** The servers the random mixes run on, by name. */
Server
mixServer(const std::string &name)
{
    if (name == "2+2")
        return makeCommodityServer({2, 2});
    if (name == "4+4")
        return makeCommodityServer({4, 4});
    if (name == "1+3")
        return makeCommodityServer({1, 3});
    return makeDataCenterServer(4);
}

/**
 * A seeded random transfer mix on @p server, traced.
 *
 *  - 48 transfers between DRAM and random GPUs (GPU-to-GPU is staged
 *    through DRAM on commodity servers, NVLink on the P2P server);
 *  - submitted at only 8 distinct instants, so several copy engines
 *    wake in the same event and a finish can free two engines;
 *  - priorities 1, 5 and 9, a rate cap on about one flow in five,
 *    and mixed traffic kinds;
 *  - about one in four completions submits a follow-up that depends
 *    on the finished span;
 *  - one link degraded mid-flight and later restored.
 *
 * All randomness is drawn before the run, so the schedule does not
 * depend on event order. @return spanFingerprint of the trace.
 */
std::uint64_t
randomMixFingerprint(const Server &server, std::uint64_t seed,
                     bool cross_check = false,
                     FairShareActivity *activity = nullptr)
{
    EventQueue q;
    TraceRecorder trace;
    UsageTracker usage(q, server.topo.numGpus());
    TransferEngineConfig c;
    c.fairShareCrossCheck = cross_check;
    TransferEngine eng(q, server.topo, &usage, c, &trace);

    Rng rng(seed);
    const int g = server.topo.numGpus();
    auto request = [&rng, g](const std::string &label) {
        auto endpoint = [](std::uint64_t i) {
            return i == 0 ? Endpoint::dram()
                          : Endpoint::gpuAt(static_cast<int>(i) - 1);
        };
        std::uint64_t s = rng.below(static_cast<std::uint64_t>(g) + 1);
        std::uint64_t d = rng.below(static_cast<std::uint64_t>(g));
        if (d >= s)
            ++d;
        TransferRequest req;
        req.src = endpoint(s);
        req.dst = endpoint(d);
        req.bytes = static_cast<Bytes>(1 + rng.below(64)) * MiB;
        req.priority = 1 + 4 * static_cast<int>(rng.below(3));
        req.kind = static_cast<TrafficKind>(rng.below(
            static_cast<std::uint64_t>(TrafficKind::NumKinds)));
        if (rng.below(5) == 0)
            req.rateCap = rng.uniform(1e9, 8e9);
        req.label = label;
        return req;
    };

    for (int i = 0; i < 48; ++i) {
        double at = 1e-3 * static_cast<double>(rng.below(8));
        TransferRequest req = request("x" + std::to_string(i));
        if (rng.below(4) == 0) {
            TransferRequest next = request("y" + std::to_string(i));
            req.onComplete = [&eng, next]() mutable {
                next.deps = {eng.lastSpanId()};
                eng.submit(std::move(next));
            };
        }
        q.schedule(at, [&eng, req]() mutable {
            eng.submit(std::move(req));
        });
    }
    int link = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(server.topo.numLinks())));
    double factor = rng.uniform(0.2, 0.8);
    q.schedule(2.5e-3, [&eng, link, factor] {
        eng.setLinkCapacityFactor(link, factor);
    });
    q.schedule(6e-3, [&eng, link] {
        eng.setLinkCapacityFactor(link, 1.0);
    });
    q.run();
    EXPECT_TRUE(eng.idle());
    if (activity)
        *activity = eng.fairShareActivity();
    return spanFingerprint(trace);
}

/** One mix and the span fingerprint it must reproduce. */
struct PinnedMix
{
    const char *server;
    std::uint64_t seed;
    std::uint64_t fingerprint;
};

/**
 * Fingerprints recorded with the engine that rescanned every copy
 * engine and kept flows in a hash map: the slot table, route table
 * and targeted wake-up must reproduce them bit for bit. Seeds 4 and
 * 5 were recorded with the engine that solved the union of the
 * touched components in one call: waterfilling each component on its
 * own must reproduce them too.
 */
constexpr PinnedMix kPinnedMixes[] = {
    {"2+2", 1, 0xdda2998409bb35d5ull},
    {"2+2", 2, 0x095b889baf582cffull},
    {"2+2", 3, 0x6452135bd96e5879ull},
    {"4+4", 1, 0xf4b6ec1a58eb57ebull},
    {"4+4", 2, 0x827dd1d092ea29c7ull},
    {"4+4", 3, 0xc4e2367241526e41ull},
    {"1+3", 1, 0x205e07a2dc65aa45ull},
    {"1+3", 2, 0xf6b170ca9db0cedfull},
    {"1+3", 3, 0x63ef5e37a21a6150ull},
    {"nvlink", 1, 0x3b5001e760d5b1d2ull},
    {"nvlink", 2, 0x8accdf6f6ce49ce4ull},
    {"nvlink", 3, 0x6890af4377a7556eull},
    {"2+2", 4, 0xf46a938b9f96cbedull},
    {"2+2", 5, 0x26e055c0bb9c3958ull},
    {"4+4", 4, 0xf117f373a952fb5bull},
    {"4+4", 5, 0x10c8baf3bd6c049eull},
    {"nvlink", 4, 0x9cb8126cb9527156ull},
    {"nvlink", 5, 0x929ff0cf890d6e4bull},
};

TEST(TransferEngineMix, SpanFingerprintsMatchPinned)
{
    for (const PinnedMix &m : kPinnedMixes) {
        std::uint64_t got =
            randomMixFingerprint(mixServer(m.server), m.seed);
        EXPECT_EQ(got, m.fingerprint)
            << m.server << " seed " << m.seed << ": got 0x" << std::hex
            << got;
    }
}

TEST(TransferEngineMix, CrossCheckedRunsMatch)
{
    // Every incremental re-solve in the mixes equals a full solve,
    // and checking changes nothing the trace records. Not vacuous:
    // some updates re-solve two or more components.
    std::uint64_t multi = 0;
    for (const PinnedMix &m : kPinnedMixes) {
        Server server = mixServer(m.server);
        FairShareActivity a;
        EXPECT_EQ(randomMixFingerprint(server, m.seed, true, &a),
                  randomMixFingerprint(server, m.seed))
            << m.server << " seed " << m.seed;
        multi += a.multiComponentSolves;
    }
    EXPECT_GT(multi, 0u);
}

/** A cross-checked, traced engine on a Topo 2+2 box. */
struct CheckedEngine
{
    EventQueue q;
    Server server = makeCommodityServer({2, 2});
    TraceRecorder trace;
    TransferEngine eng{q, server.topo, nullptr, config(), &trace};

    static TransferEngineConfig
    config()
    {
        TransferEngineConfig c;
        c.fairShareCrossCheck = true;
        return c;
    }

    /** Submit @p bytes from @p src to @p dst now. */
    void
    submit(Endpoint src, Endpoint dst, Bytes bytes,
           std::function<void()> done = {})
    {
        TransferRequest req;
        req.src = src;
        req.dst = dst;
        req.bytes = bytes;
        req.onComplete = std::move(done);
        eng.submit(std::move(req));
    }
};

TEST(TransferEngineComponents, FinishSplittingAComponentResolvesBoth)
{
    // A staged gpu0 -> gpu3 copy shares rc0's D2H pool with a
    // download from gpu1 and rc1's H2D pool with an upload to gpu2,
    // joining all three in one component. It is the smallest, so its
    // finish leaves the other two in two disjoint components, and
    // one update waterfills both.
    CheckedEngine e;
    e.submit(Endpoint::gpuAt(1), Endpoint::dram(), 256 * MiB);
    e.submit(Endpoint::dram(), Endpoint::gpuAt(2), 192 * MiB);
    FairShareActivity joined;
    FairShareActivity split;
    e.q.schedule(1e-3, [&] { joined = e.eng.fairShareActivity(); });
    e.submit(Endpoint::gpuAt(0), Endpoint::gpuAt(3), 32 * MiB,
             [&] { split = e.eng.fairShareActivity(); });
    e.q.run();
    EXPECT_EQ(split.solves - joined.solves, 1u);
    EXPECT_EQ(split.multiComponentSolves - joined.multiComponentSolves,
              1u);
    EXPECT_EQ(split.flowsTouched - joined.flowsTouched, 2u);
    EXPECT_GT(split.crossChecks, 0u);
    EXPECT_EQ(e.trace.spanCount(), 3u);
    // Recorded with the engine that solved the union in one call.
    EXPECT_EQ(spanFingerprint(e.trace), 0x25c626ab387b617full);
}

TEST(TransferEngineComponents, RescaleOfLinkCarryingTwoComponents)
{
    // rc0's uplink carries an upload to gpu0 in its H2D direction
    // and a download from gpu1 in its D2H direction: two components
    // that one setLinkCapacityFactor re-solves in one update. An
    // upload under rc1 is skipped.
    CheckedEngine e;
    e.submit(Endpoint::dram(), Endpoint::gpuAt(0), 256 * MiB);
    e.submit(Endpoint::gpuAt(1), Endpoint::dram(), 128 * MiB);
    e.submit(Endpoint::dram(), Endpoint::gpuAt(2), 64 * MiB);
    const int rc0 = e.server.topo.findLinkByName("dram<->rc0");
    FairShareActivity before;
    FairShareActivity after;
    e.q.schedule(1e-3, [&] {
        before = e.eng.fairShareActivity();
        e.eng.setLinkCapacityFactor(rc0, 0.5);
        after = e.eng.fairShareActivity();
    });
    e.q.schedule(4e-3, [&] { e.eng.setLinkCapacityFactor(rc0, 1.0); });
    e.q.run();
    EXPECT_EQ(after.solves - before.solves, 1u);
    EXPECT_EQ(after.multiComponentSolves - before.multiComponentSolves,
              1u);
    EXPECT_EQ(after.flowsTouched - before.flowsTouched, 2u);
    EXPECT_EQ(after.flowsSkipped - before.flowsSkipped, 1u);
    EXPECT_EQ(e.trace.spanCount(), 3u);
    // Recorded with the engine that solved the union in one call.
    EXPECT_EQ(spanFingerprint(e.trace), 0x3346f61864a5fd55ull);
}

TEST(TransferEngineAlloc, CapacityRescaleResolvesWithoutAllocating)
{
    EventQueue q;
    Server server = makeCommodityServer({2, 2});
    TransferEngine eng(q, server.topo);
    // Uploads to every GPU, two downloads and a staged copy: the
    // root-complex links carry several flows in both directions.
    for (int g = 0; g < 4; ++g) {
        TransferRequest up;
        up.src = Endpoint::dram();
        up.dst = Endpoint::gpuAt(g);
        up.bytes = 1 * GiB;
        eng.submit(up);
    }
    for (int g : {1, 2}) {
        TransferRequest down;
        down.src = Endpoint::gpuAt(g);
        down.dst = Endpoint::dram();
        down.bytes = 1 * GiB;
        eng.submit(down);
    }
    TransferRequest staged;
    staged.src = Endpoint::gpuAt(0);
    staged.dst = Endpoint::gpuAt(3);
    staged.bytes = 1 * GiB;
    eng.submit(staged);
    q.runUntil(1e-3);
    ASSERT_GE(eng.dataActiveFlows(), 6);

    const int links = server.topo.numLinks();
    auto rescale = [&](int i) {
        eng.setLinkCapacityFactor(i % links, i % 2 ? 1.0 : 0.5);
    };
    // Warm-up: the scratch grows to the largest component once.
    for (int i = 0; i < 2 * links; ++i)
        rescale(i);

    const FairShareActivity start = eng.fairShareActivity();
    const std::size_t before = g_new_calls.load();
    for (int i = 0; i < 100; ++i)
        rescale(i);
    const std::size_t allocs = g_new_calls.load() - before;
    EXPECT_EQ(allocs, 0u);
    // Not vacuous: the rescales re-solved moving flows, and some
    // re-solved two components at once (the root-complex uplinks
    // carry one component each way).
    const FairShareActivity &end = eng.fairShareActivity();
    EXPECT_GE(end.flowsTouched - start.flowsTouched, 100u);
    EXPECT_GT(end.multiComponentSolves - start.multiComponentSolves,
              0u);
    q.run();
    EXPECT_TRUE(eng.idle());
}

} // namespace
} // namespace mobius

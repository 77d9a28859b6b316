/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths: the
 * event queue, the max-min fairness solver, the transfer engine's
 * rate updates, a full Mobius step, the MIP partition search, the
 * cross-mapping search and the tensor matmul kernel.
 */

#include <benchmark/benchmark.h>

#include "plan/partition_algos.hh"
#include "runtime/api.hh"
#include "tensor/tensor.hh"
#include "xfer/fair_share.hh"
#include "xfer/transfer_engine.hh"

namespace mobius
{
namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        int fired = 0;
        for (int i = 0; i < n; ++i)
            q.schedule(static_cast<double>(i % 97), [&] { ++fired; });
        q.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void
BM_MaxMinFairness(benchmark::State &state)
{
    const int flows = static_cast<int>(state.range(0));
    std::vector<int> pools(static_cast<std::size_t>(flows) * 2);
    std::vector<FairShareFlowView> fs(flows);
    std::vector<double> cap(8, 13.1e9);
    for (int f = 0; f < flows; ++f) {
        pools[2 * f] = f % 8;
        pools[2 * f + 1] = (f + 3) % 8;
        fs[f].pools = {&pools[2 * f], 2};
    }
    std::vector<double> rates(flows);
    FairShareWorkspace ws;
    for (auto _ : state) {
        maxMinFairRates(fs, cap, rates, ws);
        benchmark::DoNotOptimize(rates.data());
    }
}
BENCHMARK(BM_MaxMinFairness)->Arg(4)->Arg(16)->Arg(64);

/**
 * Submit/finish churn shaped like the simulator's traffic: small
 * components over the 16 pools of a Topo 2+2 box. Two uploads share
 * rc0's H2D pool; a download from gpu3 is alone on rc1's D2H pool;
 * a staged gpu0 -> gpu3 copy joins a download from gpu1 (rc0 D2H)
 * and an upload to gpu2 (rc1 H2D), and finishes first, splitting
 * them into two components. Each iteration submits the six and
 * drains the queue; an item is one rate update.
 */
void
BM_TransferEngineChurn(benchmark::State &state)
{
    Server server = makeCommodityServer({2, 2});
    EventQueue q;
    TransferEngine eng(q, server.topo);
    struct Xfer
    {
        Endpoint src;
        Endpoint dst;
        Bytes bytes;
    };
    const Xfer mix[] = {
        {Endpoint::dram(), Endpoint::gpuAt(0), 64 * MiB},
        {Endpoint::dram(), Endpoint::gpuAt(1), 48 * MiB},
        {Endpoint::gpuAt(1), Endpoint::dram(), 64 * MiB},
        {Endpoint::gpuAt(0), Endpoint::gpuAt(3), 8 * MiB},
        {Endpoint::dram(), Endpoint::gpuAt(2), 48 * MiB},
        {Endpoint::gpuAt(3), Endpoint::dram(), 32 * MiB},
    };
    for (auto _ : state) {
        for (const Xfer &x : mix) {
            TransferRequest req;
            req.src = x.src;
            req.dst = x.dst;
            req.bytes = x.bytes;
            eng.submit(std::move(req));
        }
        q.run();
    }
    benchmark::DoNotOptimize(q.now());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(eng.fairShareActivity().solves));
}
BENCHMARK(BM_TransferEngineChurn);

void
BM_MobiusStep15B(benchmark::State &state)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    for (auto _ : state) {
        StepStats s =
            runStep(System::Mobius, server, work.cost(), &plan).stats;
        benchmark::DoNotOptimize(s.stepTime);
    }
}
BENCHMARK(BM_MobiusStep15B);

void
BM_ZeroStep15B(benchmark::State &state)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    for (auto _ : state) {
        StepStats s =
            runStep(System::DeepSpeed, server, work.cost()).stats;
        benchmark::DoNotOptimize(s.stepTime);
    }
}
BENCHMARK(BM_ZeroStep15B);

void
BM_MipPartitionSolve(benchmark::State &state)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server);
    PipelineEnv env{4, rtx3090Ti().memBytes, 13.1e9, true};
    PipelineCostEvaluator eval(work.cost(), env);
    for (auto _ : state) {
        auto r = mipPartition(eval);
        benchmark::DoNotOptimize(r.estimate.stepTime);
    }
}
BENCHMARK(BM_MipPartitionSolve);

void
BM_CrossMappingSearch(benchmark::State &state)
{
    Server server = makeCommodityServer(
        {static_cast<int>(state.range(0)) / 2,
         static_cast<int>(state.range(0)) -
             static_cast<int>(state.range(0)) / 2});
    for (auto _ : state) {
        auto r = crossMapping(server.topo, 40);
        benchmark::DoNotOptimize(r.mapping.contention);
    }
}
BENCHMARK(BM_CrossMappingSearch)->Arg(4)->Arg(8)->Arg(16);

void
BM_TensorMatmul(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Tensor a(Shape{n, n}, true);
    Tensor b(Shape{n, n}, true);
    for (auto &v : a.data())
        v = 0.5f;
    for (auto &v : b.data())
        v = 0.25f;
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(64)->Arg(128);

} // namespace
} // namespace mobius

BENCHMARK_MAIN();

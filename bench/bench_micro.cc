/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths: the
 * event queue, the max-min fairness solver, a full Mobius step, the
 * MIP partition search, the cross-mapping search and the tensor
 * matmul kernel.
 */

#include <benchmark/benchmark.h>

#include "plan/partition_algos.hh"
#include "runtime/api.hh"
#include "tensor/tensor.hh"
#include "xfer/fair_share.hh"

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
    std::vector<FairShareFlow> fs(flows);
    std::vector<double> cap(8, 13.1e9);
    for (int f = 0; f < flows; ++f)
        fs[f].pools = {f % 8, (f + 3) % 8};
    for (auto _ : state) {
        auto rates = maxMinFairRates(fs, cap);
        benchmark::DoNotOptimize(rates);
    }
}
BENCHMARK(BM_MaxMinFairness)->Arg(4)->Arg(16)->Arg(64);

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

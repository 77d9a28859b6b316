#include "plan/mapping.hh"

#include <chrono>
#include <limits>
#include <numeric>

#include "base/logging.hh"

namespace mobius
{

namespace
{

/** shared(g1, g2) table: common root-complex group size or 0. */
std::vector<std::vector<int>>
sharedTable(const Topology &topo)
{
    int n = topo.numGpus();
    std::vector<std::vector<int>> shared(
        static_cast<std::size_t>(n),
        std::vector<int>(static_cast<std::size_t>(n), 0));
    for (int a = 0; a < n; ++a) {
        for (int b = 0; b < n; ++b)
            shared[a][b] = topo.sharedRootComplexDegree(a, b);
    }
    return shared;
}

double
degree(const std::vector<std::vector<int>> &shared,
       const std::vector<int> &order, int num_stages)
{
    const int n = static_cast<int>(order.size());
    double total = 0.0;
    for (int i = 0; i < num_stages; ++i) {
        int gi = order[i % n];
        for (int j = i + 1; j < num_stages; ++j) {
            int gj = order[j % n];
            int s = shared[gi][gj];
            if (s > 0)
                total += static_cast<double>(s) / (j - i);
        }
    }
    return total;
}

} // namespace

double
contentionDegree(const Topology &topo,
                 const std::vector<int> &gpu_order, int num_stages)
{
    if (gpu_order.empty())
        panic("contentionDegree: empty GPU order");
    return degree(sharedTable(topo), gpu_order, num_stages);
}

Mapping
sequentialMapping(const Topology &topo, int num_stages)
{
    Mapping m;
    m.gpuOrder.resize(static_cast<std::size_t>(topo.numGpus()));
    std::iota(m.gpuOrder.begin(), m.gpuOrder.end(), 0);
    m.contention = contentionDegree(topo, m.gpuOrder, num_stages);
    return m;
}

MappingResult
crossMapping(const Topology &topo, int num_stages)
{
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();

    const int n = topo.numGpus();
    if (n == 0)
        panic("crossMapping: topology has no GPUs");
    auto shared = sharedTable(topo);

    // shared() is the root-complex group size or 0, so Eq. 13 depends
    // only on the sequence of group labels along the order: two orders
    // with one label sequence add the same terms in the same order and
    // score bit-identically. Each sequence is scored once, as its
    // canonical order: the lexicographically smallest one, which takes
    // each group's GPUs in ascending order.
    //
    // group[g] is the lowest GPU sharing g's root complex and rank[g]
    // the number of GPUs of that group below g.
    std::vector<int> group(static_cast<std::size_t>(n), 0);
    std::vector<int> rank(group.size());
    std::vector<int> placed(group.size(), 0);
    for (int g = 0; g < n; ++g) {
        while (shared[group[g]][g] == 0)
            ++group[g];
        rank[g] = placed[group[g]]++;
    }
    placed.assign(placed.size(), 0);

    MappingResult result;
    std::vector<int> order(static_cast<std::size_t>(n));
    double best = std::numeric_limits<double>::infinity();
    // Depth first, each position tries the groups' lowest unused GPUs
    // in ascending order, so canonical orders come out in
    // lexicographic order. Any other order repeats the score of a
    // lexicographically smaller canonical one and so could never pass
    // the strict test below: the result equals that of scoring all n!
    // orders, with ties going to the lexicographically smallest.
    auto visit = [&](auto &self, int pos) -> void {
        if (pos == n) {
            ++result.evaluated;
            double d = degree(shared, order, num_stages);
            if (d < best - 1e-12) {
                best = d;
                result.mapping.gpuOrder = order;
            }
            return;
        }
        for (int g = 0; g < n; ++g) {
            // Only a group's lowest unused GPU may come next.
            if (placed[group[g]] != rank[g])
                continue;
            order[pos] = g;
            ++placed[group[g]];
            self(self, pos + 1);
            --placed[group[g]];
        }
    };
    visit(visit, 0);

    result.mapping.contention = best;
    result.searchSeconds =
        std::chrono::duration<double>(clock::now() - t0).count();
    return result;
}

} // namespace mobius

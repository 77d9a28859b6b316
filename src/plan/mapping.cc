#include "plan/mapping.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>

#include "base/logging.hh"

namespace mobius
{

namespace
{

/**
 * Eq. 13 over one topology and stage count S, on precomputed terms.
 * shared() is a root-complex group size or 0, so the term of stages
 * i < j is terms_[shared * S + (j - i)]: row s of the term table holds
 * s / d at column d, and row 0, the unshared one, is +0.0 throughout.
 * rowOf_ is shared() as a flat n x n table of those row offsets.
 */
class ContentionSum
{
  public:
    ContentionSum(const Topology &topo, int num_stages)
        : n_(topo.numGpus()), stages_(std::max(num_stages, 0)),
          rowOf_(static_cast<std::size_t>(n_) * n_),
          gpuAt_(static_cast<std::size_t>(stages_))
    {
        int widest = 0;
        for (int a = 0; a < n_; ++a) {
            for (int b = 0; b < n_; ++b) {
                const int s = topo.sharedRootComplexDegree(a, b);
                widest = std::max(widest, s);
                rowOf_[static_cast<std::size_t>(a) * n_ + b] =
                    static_cast<std::size_t>(s) * stages_;
            }
        }
        // The same int-to-double division Eq. 13 performs per pair.
        terms_.assign(static_cast<std::size_t>(widest + 1) * stages_,
                      0.0);
        for (int s = 0; s <= widest; ++s) {
            for (int d = 1; d < stages_; ++d)
                terms_[static_cast<std::size_t>(s) * stages_ + d] =
                    static_cast<double>(s) / d;
        }
    }

    /**
     * Eq. 13 for @p order: the terms of every stage pair i < j,
     * summed row by row. Every pair adds its term, +0.0 when
     * unshared, with no data-dependent branch. That is exact: the
     * sum starts at +0.0 and only grows, so adding +0.0 leaves its
     * bits as they were, and the shared terms arrive in the order a
     * loop skipping unshared pairs would add them.
     */
    double
    degree(const std::vector<int> &order)
    {
        // Round-robin: stage k runs on order[k mod |order|].
        const std::size_t len = order.size();
        for (std::size_t k = 0, pos = 0; k < gpuAt_.size(); ++k) {
            gpuAt_[k] = order[pos];
            if (++pos == len)
                pos = 0;
        }
        const int *gpu = gpuAt_.data();
        const double *terms = terms_.data();
        double total = 0.0;
        for (int i = 0; i < stages_; ++i) {
            const std::size_t *row =
                rowOf_.data() + static_cast<std::size_t>(gpu[i]) * n_;
            for (int j = i + 1; j < stages_; ++j)
                total += terms[row[gpu[j]] + (j - i)];
        }
        return total;
    }

  private:
    int n_;
    int stages_;
    std::vector<std::size_t> rowOf_; //!< a * n + b -> term-row offset
    std::vector<double> terms_;      //!< row s at s * stages_
    std::vector<int> gpuAt_;         //!< stage -> GPU of the order
};

} // namespace

double
contentionDegree(const Topology &topo,
                 const std::vector<int> &gpu_order, int num_stages)
{
    if (gpu_order.empty())
        panic("contentionDegree: empty GPU order");
    return ContentionSum(topo, num_stages).degree(gpu_order);
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
    ContentionSum sum(topo, num_stages);

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
        while (topo.sharedRootComplexDegree(group[g], g) == 0)
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
            double d = sum.degree(order);
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

#include "plan/partition_algos.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace mobius
{

namespace
{

double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Score a partition: step time, +inf if infeasible. */
double
score(const PipelineCostEvaluator &eval, const Partition &p,
      PipelineScratch &scratch, int *evaluated)
{
    ++*evaluated;
    return eval.stepTime(p, scratch);
}

/**
 * Hill-climb on stage boundaries: repeatedly move each boundary by
 * one layer in either direction while it improves the step time.
 * Each move is made in place and undone when it does not help.
 */
void
hillClimb(const PipelineCostEvaluator &eval, Partition &best,
          double &best_time, PipelineScratch &scratch, int *evaluated)
{
    bool improved = true;
    while (improved) {
        improved = false;
        for (std::size_t b = 0; b + 1 < best.size(); ++b) {
            for (int delta : {-1, +1}) {
                StageRange &left = best[b];
                StageRange &right = best[b + 1];
                const int old_boundary = left.hi;
                int boundary = old_boundary + delta;
                if (boundary <= left.lo || boundary >= right.hi)
                    continue;
                left.hi = boundary;
                right.lo = boundary;
                double t = score(eval, best, scratch, evaluated);
                if (t < best_time - 1e-12) {
                    best_time = t;
                    improved = true;
                } else {
                    left.hi = old_boundary;
                    right.lo = old_boundary;
                }
            }
        }
    }
}

/** heuristicPartitionForStages() over the caller's scratch. */
Partition
climbFromUniform(const PipelineCostEvaluator &eval, int num_stages,
                 PipelineScratch &scratch, int *evaluated)
{
    const int L = eval.cost().numLayers();
    Partition p = uniformPartition(L, num_stages);
    double t = score(eval, p, scratch, evaluated);
    if (!std::isinf(t))
        hillClimb(eval, p, t, scratch, evaluated);
    return p;
}

} // namespace

Partition
heuristicPartitionForStages(const PipelineCostEvaluator &eval,
                            int num_stages, int *evaluated)
{
    int ignored = 0;
    PipelineScratch scratch;
    return climbFromUniform(eval, num_stages, scratch,
                            evaluated ? evaluated : &ignored);
}

PartitionResult
mipPartition(const PipelineCostEvaluator &eval)
{
    const double t0 = wallSeconds();
    const CostModel &cm = eval.cost();
    const int L = cm.numLayers();
    const int N = eval.env().numGpus;

    PartitionResult result;
    double best_time = std::numeric_limits<double>::infinity();
    PipelineScratch scratch;

    // Seed candidates: a near-uniform partition for every feasible
    // stage count (the balanced shapes the MIP gravitates to thanks
    // to layer similarity), hill-climbed to repair edge effects from
    // the embedding / head layers.
    for (int s = std::min(N, L); s <= L; ++s) {
        Partition cand =
            climbFromUniform(eval, s, scratch, &result.evaluated);
        double t = score(eval, cand, scratch, &result.evaluated);
        if (t < best_time) {
            best_time = t;
            result.partition = std::move(cand);
        }
    }

    if (std::isinf(best_time)) {
        fatal("MIP partition: no feasible partition of %s on %d GPUs "
              "with %s per GPU",
              cm.model().name.c_str(), N,
              formatBytes(eval.env().gpuMemBytes).c_str());
    }

    result.estimate = eval.evaluate(result.partition);
    result.solveSeconds = wallSeconds() - t0;
    return result;
}

PartitionResult
maxStagePartition(const PipelineCostEvaluator &eval)
{
    const double t0 = wallSeconds();
    const CostModel &cm = eval.cost();
    const Bytes g = eval.env().gpuMemBytes;
    const int L = cm.numLayers();

    Partition p;
    int lo = 0;
    while (lo < L) {
        int hi = lo + 1;
        if (cm.stageMemFwd(lo, hi) > g || cm.stageMemBwd(lo, hi) > g) {
            fatal("maximum-stage partition: layer %d alone exceeds "
                  "GPU memory", lo);
        }
        while (hi < L && cm.stageMemFwd(lo, hi + 1) <= g &&
               cm.stageMemBwd(lo, hi + 1) <= g) {
            ++hi;
        }
        p.push_back(StageRange{lo, hi});
        lo = hi;
    }

    PartitionResult result;
    result.partition = std::move(p);
    result.evaluated = 1;
    result.estimate = eval.evaluate(result.partition);
    result.solveSeconds = wallSeconds() - t0;
    return result;
}

PartitionResult
minStagePartition(const PipelineCostEvaluator &eval)
{
    const double t0 = wallSeconds();
    const CostModel &cm = eval.cost();
    const auto &layers = cm.model().layers;
    const int L = cm.numLayers();

    // One transformer block per stage; non-block layers attach to the
    // neighbouring block's stage (embedding joins the first block,
    // norm/head join the last).
    Partition p;
    int lo = 0;
    bool current_has_block = false;
    for (int i = 0; i < L; ++i) {
        bool is_block = layers[i].type == LayerType::TransformerBlock;
        if (is_block && current_has_block) {
            p.push_back(StageRange{lo, i});
            lo = i;
        }
        current_has_block = current_has_block || is_block;
    }
    p.push_back(StageRange{lo, L});

    PartitionResult result;
    result.partition = std::move(p);
    result.evaluated = 1;
    result.estimate = eval.evaluate(result.partition);
    result.solveSeconds = wallSeconds() - t0;
    return result;
}

PartitionResult
bruteForcePartition(const PipelineCostEvaluator &eval, int max_layers)
{
    const double t0 = wallSeconds();
    const int L = eval.cost().numLayers();
    if (L > max_layers)
        fatal("brute-force partition limited to %d layers (model has "
              "%d)", max_layers, L);

    PartitionResult result;
    double best_time = std::numeric_limits<double>::infinity();
    PipelineScratch scratch;

    // Every composition of L corresponds to a subset of the L-1
    // possible boundaries.
    const std::uint64_t masks = 1ULL << (L - 1);
    for (std::uint64_t mask = 0; mask < masks; ++mask) {
        Partition p;
        int lo = 0;
        for (int b = 0; b < L - 1; ++b) {
            if (mask & (1ULL << b)) {
                p.push_back(StageRange{lo, b + 1});
                lo = b + 1;
            }
        }
        p.push_back(StageRange{lo, L});
        double t = score(eval, p, scratch, &result.evaluated);
        if (t < best_time) {
            best_time = t;
            result.partition = std::move(p);
        }
    }

    if (std::isinf(best_time))
        fatal("brute force: no feasible partition");
    result.estimate = eval.evaluate(result.partition);
    result.solveSeconds = wallSeconds() - t0;
    return result;
}

Partition
balancedComputePartition(const CostModel &cost, int num_stages)
{
    const int L = cost.numLayers();
    const int S = num_stages;
    if (S < 1 || S > L)
        fatal("cannot split %d layers into %d stages", L, S);

    // Prefix sums of per-layer compute time.
    std::vector<double> prefix(static_cast<std::size_t>(L) + 1, 0.0);
    for (int i = 0; i < L; ++i) {
        prefix[i + 1] =
            prefix[i] + cost.fwdTime(i) + cost.bwdTime(i);
    }
    auto range_time = [&](int lo, int hi) {
        return prefix[hi] - prefix[lo];
    };

    // dp[s][i]: minimal max-stage-time splitting the first i layers
    // into s stages; cut[s][i] records the final boundary.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> dp(
        static_cast<std::size_t>(S) + 1,
        std::vector<double>(static_cast<std::size_t>(L) + 1, kInf));
    std::vector<std::vector<int>> cut(
        static_cast<std::size_t>(S) + 1,
        std::vector<int>(static_cast<std::size_t>(L) + 1, -1));
    dp[0][0] = 0.0;
    for (int s = 1; s <= S; ++s) {
        for (int i = s; i <= L - (S - s); ++i) {
            for (int k = s - 1; k < i; ++k) {
                if (std::isinf(dp[s - 1][k]))
                    continue;
                double v =
                    std::max(dp[s - 1][k], range_time(k, i));
                if (v < dp[s][i]) {
                    dp[s][i] = v;
                    cut[s][i] = k;
                }
            }
        }
    }

    Partition p(static_cast<std::size_t>(S));
    int hi = L;
    for (int s = S; s >= 1; --s) {
        int lo = cut[s][hi];
        p[s - 1] = StageRange{lo, hi};
        hi = lo;
    }
    checkPartition(p, L);
    return p;
}

} // namespace mobius

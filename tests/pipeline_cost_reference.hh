/**
 * @file
 * Frozen reference for the MIP partition search (test-only).
 *
 * This is PipelineCostEvaluator::evaluate() and the heuristic search
 * (score, hillClimb, heuristicPartitionForStages, mipPartition) as
 * they shipped before the evaluator became table-driven: every
 * evaluation re-sums each stage's layers through CostModel::range*
 * and allocates its per-stage vectors and start-time rows, and the
 * hill climb copies the partition for every candidate. The class
 * below shadows the production PipelineCostEvaluator inside
 * mobius::reference, so the frozen bodies are the shipped ones word
 * for word. The production evaluator must return memcmp-equal
 * estimates, and the production searches the same partitions,
 * estimates and evaluation counts. Keep this file as it is: it is
 * the oracle, not an implementation to tune.
 */

#ifndef MOBIUS_TESTS_PIPELINE_COST_REFERENCE_HH
#define MOBIUS_TESTS_PIPELINE_COST_REFERENCE_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "plan/partition_algos.hh"
#include "plan/pipeline_cost.hh"

namespace mobius::reference
{

/** The evaluator without its table: one allocating pass per call. */
class PipelineCostEvaluator
{
  public:
    PipelineCostEvaluator(const CostModel &cost, PipelineEnv env)
        : cost_(&cost), env_(env)
    {}

    /** Evaluate one partition (Eq. 3-11). */
    PipelineEstimate evaluate(const Partition &partition) const;

    const PipelineEnv &env() const { return env_; }
    const CostModel &cost() const { return *cost_; }

  private:
    const CostModel *cost_;
    PipelineEnv env_;
};

inline PipelineEstimate
PipelineCostEvaluator::evaluate(const Partition &partition) const
{
    const CostModel &cm = *cost_;
    checkPartition(partition, cm.numLayers());

    const int S = static_cast<int>(partition.size());
    const int N = env_.numGpus;
    const int M = cm.cfg().numMicrobatches;
    const double B = env_.avgBandwidth;
    const Bytes G = env_.gpuMemBytes;

    PipelineEstimate est;
    est.stages.resize(static_cast<std::size_t>(S));

    // Per-stage constants.
    std::vector<Bytes> w(S), memF(S), memB(S), aOut(S), aIn(S),
        grad(S);
    std::vector<double> tf(S), tb(S);
    for (int j = 0; j < S; ++j) {
        const auto &st = partition[j];
        w[j] = cm.rangeParamBytes(st.lo, st.hi);
        grad[j] = cm.rangeGradBytes(st.lo, st.hi);
        memF[j] = cm.stageMemFwd(st.lo, st.hi);
        memB[j] = cm.stageMemBwd(st.lo, st.hi);
        aOut[j] = cm.actBytes(st.hi - 1);
        aIn[j] = cm.inActBytes(st.lo);
        tf[j] = cm.rangeFwdTime(st.lo, st.hi);
        tb[j] = cm.rangeBwdTime(st.lo, st.hi);

        // Eq. 4: S_j^e <= G.
        if (memF[j] > G || memB[j] > G) {
            est.feasible = false;
            est.infeasibleReason = strfmt(
                "stage %d needs %s fwd / %s bwd, GPU has %s", j,
                formatBytes(memF[j]).c_str(),
                formatBytes(memB[j]).c_str(),
                formatBytes(G).c_str());
            return est;
        }
    }

    auto &stages = est.stages;

    // ---------------- Forward ---------------------------------------
    // start[j][m] recurrences; only the previous microbatch row is
    // needed, kept per stage.
    std::vector<std::vector<double>> fstart(
        static_cast<std::size_t>(S),
        std::vector<double>(static_cast<std::size_t>(M), 0.0));

    for (int j = 0; j < S; ++j) {
        // Weight readiness (Eq. 9 with prefetch Eq. 5-6).
        double ready;
        if (j < N) {
            // First stage on this GPU: blocking initial upload.
            ready = static_cast<double>(w[j]) / B;
        } else {
            double window_start = fstart[j - N][0];
            double window_end =
                fstart[j - N][M - 1] + tf[j - N];
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - memF[j - N]; // Eq. 5 (memF <= G)
            Bytes by_time =
                static_cast<Bytes>(window * B); // Eq. 6
            Bytes prefetched =
                std::min({w[j], reserve, by_time});
            stages[j].prefetchedFwd = prefetched;
            ready = window_end +
                static_cast<double>(w[j] - prefetched) / B;
        }
        stages[j].fwdReady = ready;

        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (m > 0) // Eq. 10
                t = std::max(t, fstart[j][m - 1] + tf[j]);
            if (j > 0) { // Eq. 8: activation arrival
                t = std::max(t, fstart[j - 1][m] + tf[j - 1] +
                                    static_cast<double>(aOut[j - 1]) /
                                        B);
            }
            fstart[j][m] = t;
        }
        stages[j].fwdStart = fstart[j][0];
        stages[j].fwdEnd = fstart[j][M - 1] + tf[j];
    }

    // ---------------- Backward --------------------------------------
    std::vector<std::vector<double>> bstart(
        static_cast<std::size_t>(S),
        std::vector<double>(static_cast<std::size_t>(M), 0.0));

    for (int j = S - 1; j >= 0; --j) {
        bool resident = env_.keepResidentTail && j >= S - N &&
            memB[j] <= G;
        stages[j].residentForBwd = resident;

        double ready;
        if (resident) {
            ready = stages[j].fwdEnd;
        } else if (j >= S - N) {
            // Last-round stage that cannot stay resident: blocking
            // reload right after its own forward.
            ready = stages[j].fwdEnd + static_cast<double>(w[j]) / B;
        } else {
            double window_start = bstart[j + N][0];
            double window_end = bstart[j + N][M - 1] + tb[j + N];
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - memB[j + N];
            Bytes by_time = static_cast<Bytes>(window * B);
            Bytes prefetched = std::min({w[j], reserve, by_time});
            stages[j].prefetchedBwd = prefetched;
            ready = window_end +
                static_cast<double>(w[j] - prefetched) / B;
        }
        stages[j].bwdReady = ready;

        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (j == S - 1) {
                // Eq. 11: backward begins once forward is complete.
                t = std::max(t, stages[j].fwdEnd);
            }
            if (m > 0)
                t = std::max(t, bstart[j][m - 1] + tb[j]);
            if (j < S - 1) { // Eq. 8 backward direction
                t = std::max(t, bstart[j + 1][m] + tb[j + 1] +
                                    static_cast<double>(aOut[j]) / B);
            }
            bstart[j][m] = t;
        }
        stages[j].bwdStart = bstart[j][0];
        stages[j].bwdEnd = bstart[j][M - 1] + tb[j];
    }

    // Step ends when the last gradient flush lands in DRAM.
    double step = 0.0;
    for (int j = 0; j < S; ++j) {
        step = std::max(step, stages[j].bwdEnd +
                                  static_cast<double>(grad[j]) / B);
    }
    est.stepTime = step;
    est.feasible = true;

    // Implied traffic (Eq. 1): weights down (twice minus resident
    // tail), checkpoints both ways, boundary activations between
    // stages, gradients up.
    Bytes comm = 0;
    for (int j = 0; j < S; ++j) {
        comm += w[j];                     // forward upload
        if (!stages[j].residentForBwd)
            comm += w[j];                 // backward re-upload
        comm += grad[j];                  // gradient flush
        comm += 2 * aIn[j] * static_cast<Bytes>(M); // checkpoints
        if (j + 1 < S)
            comm += 2 * aOut[j] * static_cast<Bytes>(M); // act + grad
    }
    est.commBytes = comm;
    return est;
}

inline double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Score a partition: step time, +inf if infeasible. */
inline double
score(const PipelineCostEvaluator &eval, const Partition &p,
      PipelineEstimate *out, int *evaluated)
{
    ++*evaluated;
    PipelineEstimate est = eval.evaluate(p);
    double s = est.feasible ? est.stepTime
                            : std::numeric_limits<double>::infinity();
    if (out)
        *out = std::move(est);
    return s;
}

/**
 * Hill-climb on stage boundaries: repeatedly move each boundary by
 * one layer in either direction while it improves the step time.
 */
inline void
hillClimb(const PipelineCostEvaluator &eval, Partition &best,
          double &best_time, int *evaluated)
{
    bool improved = true;
    while (improved) {
        improved = false;
        for (std::size_t b = 0; b + 1 < best.size(); ++b) {
            for (int delta : {-1, +1}) {
                Partition cand = best;
                StageRange &left = cand[b];
                StageRange &right = cand[b + 1];
                int boundary = left.hi + delta;
                if (boundary <= left.lo || boundary >= right.hi)
                    continue;
                left.hi = boundary;
                right.lo = boundary;
                PipelineEstimate est;
                double t = score(eval, cand, &est, evaluated);
                if (t < best_time - 1e-12) {
                    best = std::move(cand);
                    best_time = t;
                    improved = true;
                }
            }
        }
    }
}

inline Partition
heuristicPartitionForStages(const PipelineCostEvaluator &eval,
                            int num_stages, int *evaluated)
{
    int scratch = 0;
    if (!evaluated)
        evaluated = &scratch;
    const int L = eval.cost().numLayers();
    Partition p = uniformPartition(L, num_stages);
    PipelineEstimate est;
    double t = score(eval, p, &est, evaluated);
    if (!std::isinf(t))
        hillClimb(eval, p, t, evaluated);
    return p;
}

inline PartitionResult
mipPartition(const PipelineCostEvaluator &eval)
{
    const double t0 = wallSeconds();
    const CostModel &cm = eval.cost();
    const int L = cm.numLayers();
    const int N = eval.env().numGpus;

    PartitionResult result;
    double best_time = std::numeric_limits<double>::infinity();

    // Seed candidates: a near-uniform partition for every feasible
    // stage count (the balanced shapes the MIP gravitates to thanks
    // to layer similarity), hill-climbed to repair edge effects from
    // the embedding / head layers.
    for (int s = std::min(N, L); s <= L; ++s) {
        Partition cand =
            heuristicPartitionForStages(eval, s, &result.evaluated);
        PipelineEstimate est;
        double t = score(eval, cand, &est, &result.evaluated);
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

} // namespace mobius::reference

#endif // MOBIUS_TESTS_PIPELINE_COST_REFERENCE_HH

#include "plan/partition_mip.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/logging.hh"
#include "plan/partition_algos.hh"
#include "simcore/replica_runner.hh"

namespace mobius
{

MipProblem
buildPartitionMip(const PipelineCostEvaluator &eval, int num_stages,
                  std::vector<std::vector<int>> *b_var)
{
    const CostModel &cm = eval.cost();
    const PipelineEnv &env = eval.env();
    const int L = cm.numLayers();
    const int S = num_stages;
    const int N = env.numGpus;
    const int M = cm.cfg().numMicrobatches;
    // All byte quantities are expressed in GB (and bandwidth in
    // GB/s) so the constraint matrix stays well-conditioned for the
    // simplex tolerances; times remain in seconds.
    constexpr double kScale = 1e-9;
    const double Bw = env.avgBandwidth * kScale;
    const double G = static_cast<double>(env.gpuMemBytes) * kScale;

    // Uniform boundary activation and per-layer live sets (see file
    // comment): a stage's footprint is then Sum_i w_i B_ij + live,
    // exactly matching the evaluator's "weights + peak live" model.
    const double act = static_cast<double>(cm.actBytes(0)) * kScale;
    Bytes live_f = 0;
    Bytes live_b = 0;
    for (int i = 0; i < L; ++i) {
        live_f = std::max(live_f,
                          cm.stageMemFwd(i, i + 1) -
                              cm.paramBytes(i));
        live_b = std::max(live_b,
                          cm.stageMemBwd(i, i + 1) -
                              cm.paramBytes(i) - cm.gradBytes(i));
    }
    // Interior layers must be uniform; the first layer may only be
    // smaller (its input is token ids) — the max above then over-
    // approximates it harmlessly.
    for (int i = 2; i < L; ++i) {
        if (cm.actBytes(i) != cm.actBytes(1) ||
            cm.stageMemFwd(i, i + 1) - cm.paramBytes(i) !=
                cm.stageMemFwd(1, 2) - cm.paramBytes(1)) {
            fatal("faithful MIP requires uniform layer shapes "
                  "(layer %d differs)", i);
        }
    }

    MipProblem p;

    // B_{i,j} booleans.
    std::vector<std::vector<int>> b(
        static_cast<std::size_t>(L),
        std::vector<int>(static_cast<std::size_t>(S)));
    for (int i = 0; i < L; ++i) {
        for (int j = 0; j < S; ++j)
            b[i][j] = p.addBoolVar(0.0);
    }
    if (b_var)
        *b_var = b;

    // Start times t^e_{j,m} and prefetch volumes P^e_j.
    auto make_times = [&] {
        std::vector<std::vector<int>> t(
            static_cast<std::size_t>(S),
            std::vector<int>(static_cast<std::size_t>(M)));
        for (int j = 0; j < S; ++j) {
            for (int m = 0; m < M; ++m)
                t[j][m] = p.addVar(0.0);
        }
        return t;
    };
    auto tf = make_times();
    auto tb = make_times();
    std::vector<int> pf(static_cast<std::size_t>(S), -1);
    std::vector<int> pb(static_cast<std::size_t>(S), -1);
    for (int j = N; j < S; ++j)
        pf[j] = p.addVar(0.0);
    for (int j = 0; j < S - N; ++j)
        pb[j] = p.addVar(0.0);
    int z = p.addVar(1.0); // makespan: the only objective term

    // Helpers to splice stage-sum expressions Sum_i coeff_i * B_ij
    // into a row.
    auto add_stage_sum = [&](std::vector<std::pair<int, double>> &row,
                             int j, double scale,
                             auto per_layer) {
        for (int i = 0; i < L; ++i)
            row.push_back({b[i][j], scale * per_layer(i)});
    };
    auto fwd_t = [&](int i) { return cm.fwdTime(i); };
    auto bwd_t = [&](int i) { return cm.bwdTime(i); };
    auto w_bytes = [&](int i) {
        return static_cast<double>(cm.paramBytes(i)) * kScale;
    };
    auto grad_bytes = [&](int i) {
        return static_cast<double>(cm.gradBytes(i)) * kScale;
    };
    // Stage footprint = per-layer weight (+ gradient) bytes summed,
    // plus the uniform live-set constant folded into the rhs below.
    auto memf = [&](int i) { return w_bytes(i); };
    auto memb = [&](int i) { return w_bytes(i) + grad_bytes(i); };
    const double g_f = G - static_cast<double>(live_f) * kScale;
    const double g_b = G - static_cast<double>(live_b) * kScale;

    // --- Assignment ----------------------------------------------------
    for (int i = 0; i < L; ++i) {
        std::vector<std::pair<int, double>> row;
        for (int j = 0; j < S; ++j)
            row.push_back({b[i][j], 1.0});
        p.lp.addRow(row, Sense::Eq, 1.0);
    }
    // Non-empty stages.
    for (int j = 0; j < S; ++j) {
        std::vector<std::pair<int, double>> row;
        for (int i = 0; i < L; ++i)
            row.push_back({b[i][j], 1.0});
        p.lp.addRow(row, Sense::Ge, 1.0);
    }
    // Monotone stage index => contiguous stages.
    for (int i = 0; i + 1 < L; ++i) {
        std::vector<std::pair<int, double>> row;
        for (int j = 0; j < S; ++j) {
            row.push_back({b[i][j], static_cast<double>(j)});
            row.push_back({b[i + 1][j], -static_cast<double>(j)});
        }
        p.lp.addRow(row, Sense::Le, 0.0);
    }

    // --- Memory constraints (Eq. 4) ------------------------------------
    for (int j = 0; j < S; ++j) {
        std::vector<std::pair<int, double>> rf, rb;
        add_stage_sum(rf, j, 1.0, memf);
        add_stage_sum(rb, j, 1.0, memb);
        p.lp.addRow(rf, Sense::Le, g_f);
        p.lp.addRow(rb, Sense::Le, g_b);
    }

    // --- Prefetch constraints (Eq. 5-7), forward -----------------------
    for (int j = N; j < S; ++j) {
        // Eq. 5: P^f_j <= G - S^f_{j-N}.
        std::vector<std::pair<int, double>> r5{{pf[j], 1.0}};
        add_stage_sum(r5, j - N, 1.0, memf);
        p.lp.addRow(r5, Sense::Le, g_f);
        // Eq. 6 with Eq. 7: P^f_j <= B * (T^f_{j-N} + t_{j-N,M-1}
        //                                  - t_{j-N,0}).
        std::vector<std::pair<int, double>> r6{{pf[j], 1.0}};
        r6.push_back({tf[j - N][M - 1], -Bw});
        r6.push_back({tf[j - N][0], Bw});
        add_stage_sum(r6, j - N, -Bw, fwd_t);
        p.lp.addRow(r6, Sense::Le, 0.0);
        // P^f_j <= W_j (cannot prefetch more than the stage).
        std::vector<std::pair<int, double>> r7{{pf[j], 1.0}};
        add_stage_sum(r7, j, -1.0, w_bytes);
        p.lp.addRow(r7, Sense::Le, 0.0);
    }
    // Backward prefetch mirrors forward with window j+N.
    for (int j = 0; j < S - N; ++j) {
        std::vector<std::pair<int, double>> r5{{pb[j], 1.0}};
        add_stage_sum(r5, j + N, 1.0, memb);
        p.lp.addRow(r5, Sense::Le, g_b);
        std::vector<std::pair<int, double>> r6{{pb[j], 1.0}};
        r6.push_back({tb[j + N][M - 1], -Bw});
        r6.push_back({tb[j + N][0], Bw});
        add_stage_sum(r6, j + N, -Bw, bwd_t);
        p.lp.addRow(r6, Sense::Le, 0.0);
        std::vector<std::pair<int, double>> r7{{pb[j], 1.0}};
        add_stage_sum(r7, j, -1.0, w_bytes);
        p.lp.addRow(r7, Sense::Le, 0.0);
    }

    // --- Pipeline order (Eq. 8) ----------------------------------------
    for (int m = 0; m < M; ++m) {
        for (int j = 1; j < S; ++j) {
            // t^f_{j,m} >= t^f_{j-1,m} + T^f_{j-1} + a/B.
            std::vector<std::pair<int, double>> row{
                {tf[j][m], 1.0}, {tf[j - 1][m], -1.0}};
            add_stage_sum(row, j - 1, -1.0, fwd_t);
            p.lp.addRow(row, Sense::Ge, act / Bw);
        }
        for (int j = 0; j + 1 < S; ++j) {
            std::vector<std::pair<int, double>> row{
                {tb[j][m], 1.0}, {tb[j + 1][m], -1.0}};
            add_stage_sum(row, j + 1, -1.0, bwd_t);
            p.lp.addRow(row, Sense::Ge, act / Bw);
        }
    }

    // --- Weight availability (Eq. 9) -----------------------------------
    for (int j = 0; j < S; ++j) {
        if (j < N) {
            // Initial blocking upload: t^f_{j,0} >= W_j / B.
            std::vector<std::pair<int, double>> row{{tf[j][0], 1.0}};
            add_stage_sum(row, j, -1.0 / Bw, w_bytes);
            p.lp.addRow(row, Sense::Ge, 0.0);
        } else {
            // t^f_{j,0} >= t^f_{j-N,M-1} + T^f_{j-N}
            //              + (W_j - P^f_j)/B.
            std::vector<std::pair<int, double>> row{
                {tf[j][0], 1.0},
                {tf[j - N][M - 1], -1.0},
                {pf[j], 1.0 / Bw}};
            add_stage_sum(row, j - N, -1.0, fwd_t);
            add_stage_sum(row, j, -1.0 / Bw, w_bytes);
            p.lp.addRow(row, Sense::Ge, 0.0);
        }
    }
    for (int j = S - 1; j >= 0; --j) {
        if (j >= S - N) {
            // Blocking reload after the stage's own forward.
            std::vector<std::pair<int, double>> row{
                {tb[j][0], 1.0}, {tf[j][M - 1], -1.0}};
            add_stage_sum(row, j, -1.0, fwd_t);
            add_stage_sum(row, j, -1.0 / Bw, w_bytes);
            p.lp.addRow(row, Sense::Ge, 0.0);
        } else {
            std::vector<std::pair<int, double>> row{
                {tb[j][0], 1.0},
                {tb[j + N][M - 1], -1.0},
                {pb[j], 1.0 / Bw}};
            add_stage_sum(row, j + N, -1.0, bwd_t);
            add_stage_sum(row, j, -1.0 / Bw, w_bytes);
            p.lp.addRow(row, Sense::Ge, 0.0);
        }
    }

    // --- Serial microbatches (Eq. 10) ----------------------------------
    for (int j = 0; j < S; ++j) {
        for (int m = 1; m < M; ++m) {
            std::vector<std::pair<int, double>> rf{
                {tf[j][m], 1.0}, {tf[j][m - 1], -1.0}};
            add_stage_sum(rf, j, -1.0, fwd_t);
            p.lp.addRow(rf, Sense::Ge, 0.0);
            std::vector<std::pair<int, double>> rb{
                {tb[j][m], 1.0}, {tb[j][m - 1], -1.0}};
            add_stage_sum(rb, j, -1.0, bwd_t);
            p.lp.addRow(rb, Sense::Ge, 0.0);
        }
    }

    // --- Forward/backward barrier (Eq. 11) ------------------------------
    {
        std::vector<std::pair<int, double>> row{
            {tb[S - 1][0], 1.0}, {tf[S - 1][M - 1], -1.0}};
        add_stage_sum(row, S - 1, -1.0, fwd_t);
        p.lp.addRow(row, Sense::Ge, 0.0);
    }

    // --- Objective (Eq. 3 + gradient flush) ------------------------------
    for (int j = 0; j < S; ++j) {
        std::vector<std::pair<int, double>> row{
            {z, 1.0}, {tb[j][M - 1], -1.0}};
        add_stage_sum(row, j, -1.0, bwd_t);
        add_stage_sum(row, j, -1.0 / Bw, grad_bytes);
        p.lp.addRow(row, Sense::Ge, 0.0);
    }

    return p;
}

namespace
{

/** What one stage count's solve produced. */
struct StageSolve
{
    bool solved = false;
    double objective = 0.0;
    Partition partition;
    std::uint64_t nodes = 0, pivots = 0, warm = 0, cold = 0;
    double seconds = 0.0;
};

/** Build, seed, and solve the faithful MIP for one stage count. */
void
solveOneStageCount(const PipelineCostEvaluator &eval, int s,
                   const MipOptions &opts, StageSolve &out)
{
    const int L = eval.cost().numLayers();
    std::vector<std::vector<int>> b;
    MipProblem p = buildPartitionMip(eval, s, &b);

    // Incumbent seed: the heuristic partitioner's pick for this
    // stage count, encoded into the B_{i,j} booleans. If it is
    // memory-infeasible the seed LP simply fails and
    // branch-and-bound starts without an incumbent.
    MipOptions mo = opts;
    Partition seed = heuristicPartitionForStages(eval, s);
    mo.start.assign(static_cast<std::size_t>(p.lp.numVars), 0.0);
    for (int j = 0; j < s; ++j) {
        for (int i = seed[j].lo; i < seed[j].hi; ++i)
            mo.start[b[i][j]] = 1.0;
    }

    const auto t0 = std::chrono::steady_clock::now();
    MipSolution sol = solveMip(p, mo);
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.nodes = sol.nodesExplored;
    out.pivots = sol.lpPivots;
    out.warm = sol.lpWarmSolves;
    out.cold = sol.lpColdSolves;
    if (!sol.ok())
        return;
    out.solved = true;
    out.objective = sol.objective;
    // Decode B_{i,j} into stage sizes.
    std::vector<int> sizes(static_cast<std::size_t>(s), 0);
    for (int i = 0; i < L; ++i) {
        for (int j = 0; j < s; ++j) {
            if (sol.x[b[i][j]] > 0.5)
                ++sizes[j];
        }
    }
    out.partition = partitionFromSizes(sizes);
}

} // namespace

ExactMipResult
exactMipPartition(const PipelineCostEvaluator &eval, int max_stages,
                  const MipOptions &opts, MetricsRegistry *metrics)
{
    const CostModel &cm = eval.cost();
    const int L = cm.numLayers();
    const int N = eval.env().numGpus;

    ExactMipResult best;
    const int s_lo = std::min(N, L);
    const int s_hi = std::min(max_stages, L);
    if (s_hi < s_lo)
        return best;
    const int count = s_hi - s_lo + 1;

    // Each stage count is an independent MIP with its own output
    // slot, and the reduction below scans slots in stage-count
    // order, which keeps the chosen partition bit-identical for any
    // thread count. runReplicas() rethrows a fatal() (e.g. a
    // non-uniform layer stack) to the caller after the join.
    std::vector<StageSolve> solves(static_cast<std::size_t>(count));
    const ReplicaRunStats run = runReplicas(
        count,
        [&](int k) {
            solveOneStageCount(eval, s_lo + k, opts,
                               solves[static_cast<std::size_t>(k)]);
        },
        {.threads = opts.threads});

    // MetricsRegistry is not thread-safe: record everything here,
    // after the join, in stage-count order.
    best.threadsUsed = run.threadsUsed;
    for (const StageSolve &out : solves) {
        best.nodes += out.nodes;
        best.lpPivots += out.pivots;
        best.lpWarmSolves += out.warm;
        best.lpColdSolves += out.cold;
        best.wallSeconds += out.seconds;
        if (metrics) {
            metrics->counter("plan.mip.solves").add();
            metrics->counter("plan.mip.nodes")
                .add(static_cast<double>(out.nodes));
            metrics->counter("plan.mip.lp_pivots")
                .add(static_cast<double>(out.pivots));
            metrics->counter("solver.lp.warm_solves")
                .add(static_cast<double>(out.warm));
            metrics->counter("solver.lp.cold_solves")
                .add(static_cast<double>(out.cold));
            metrics->histogram("plan.mip.solve_seconds")
                .record(out.seconds);
        }
        if (out.solved &&
            (!best.solved || out.objective < best.objective)) {
            best.solved = true;
            best.objective = out.objective;
            best.partition = out.partition;
        }
    }
    if (metrics) {
        metrics->gauge("plan.mip.threads")
            .set(static_cast<double>(run.threadsUsed));
    }
    return best;
}

} // namespace mobius

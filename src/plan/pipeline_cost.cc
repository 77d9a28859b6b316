#include "plan/pipeline_cost.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"

namespace mobius
{

PipelineCostEvaluator::PipelineCostEvaluator(const CostModel &cost,
                                             PipelineEnv env)
    : cost_(&cost), env_(env)
{
    if (env_.numGpus < 1)
        fatal("pipeline needs at least one GPU");
    if (env_.gpuMemBytes == 0)
        fatal("pipeline env needs a GPU memory capacity");

    // Per-layer inputs of the table.
    const int L = cost.numLayers();
    std::vector<Bytes> param(L), grad(L), live_f(L), live_b(L);
    std::vector<double> tf(L), tb(L);
    for (int i = 0; i < L; ++i) {
        param[i] = cost.paramBytes(i);
        grad[i] = cost.gradBytes(i);
        const Bytes io = cost.inActBytes(i) + cost.actBytes(i);
        live_f[i] = io + cost.workBytes(i);
        live_b[i] = 2 * io + cost.workBytes(i);
        tf[i] = cost.fwdTime(i);
        tb[i] = cost.bwdTime(i);
    }

    // Row lo extends [lo, hi) one layer at a time: the same
    // left-to-right sums and running maxima as CostModel's range
    // aggregates, hence the same bits.
    table_.reserve(static_cast<std::size_t>(L) * (L + 1) / 2);
    for (int lo = 0; lo < L; ++lo) {
        StageCosts c;
        Bytes peak_f = 0, peak_b = 0;
        for (int i = lo; i < L; ++i) {
            c.w += param[i];
            c.grad += grad[i];
            c.tf += tf[i];
            c.tb += tb[i];
            peak_f = std::max(peak_f, live_f[i]);
            peak_b = std::max(peak_b, live_b[i]);
            c.memF = c.w + peak_f;
            c.memB = c.w + c.grad + peak_b;
            table_.push_back(c);
        }
    }
}

int
PipelineCostEvaluator::loadStages(const Partition &partition,
                                  PipelineScratch &scratch) const
{
    checkPartition(partition, cost_->numLayers());
    const std::size_t S = partition.size();
    scratch.entry.resize(S);
    scratch.actTime.resize(S);
    for (std::size_t j = 0; j < S; ++j) {
        const StageRange &st = partition[j];
        const std::size_t e = entryOf(st.lo, st.hi);
        // Eq. 4: S_j^e <= G.
        if (table_[e].memF > env_.gpuMemBytes ||
            table_[e].memB > env_.gpuMemBytes)
            return static_cast<int>(j);
        scratch.entry[j] = e;
        scratch.actTime[j] =
            static_cast<double>(cost_->actBytes(st.hi - 1)) /
            env_.avgBandwidth;
    }
    return -1;
}

double
PipelineCostEvaluator::schedule(PipelineScratch &scratch,
                                StageSchedule *detail) const
{
    const int S = static_cast<int>(scratch.entry.size());
    const int N = env_.numGpus;
    const int M = cost_->cfg().numMicrobatches;
    const double B = env_.avgBandwidth;
    const Bytes G = env_.gpuMemBytes;
    const std::size_t *entry = scratch.entry.data();
    const double *act = scratch.actTime.data();
    auto stage = [&](int j) -> const StageCosts & {
        return table_[entry[j]];
    };

    scratch.fstart.resize(static_cast<std::size_t>(S) * M);
    scratch.bstart.resize(static_cast<std::size_t>(S) * M);
    double *fstart = scratch.fstart.data();
    double *bstart = scratch.bstart.data();

    // ---------------- Forward ---------------------------------------
    for (int j = 0; j < S; ++j) {
        const StageCosts &c = stage(j);
        double *row = fstart + j * M;

        // Weight readiness (Eq. 9 with prefetch Eq. 5-6).
        double ready;
        if (j < N) {
            // First stage on this GPU: blocking initial upload.
            ready = static_cast<double>(c.w) / B;
        } else {
            const StageCosts &prev = stage(j - N);
            const double *prev_row = fstart + (j - N) * M;
            double window_start = prev_row[0];
            double window_end = prev_row[M - 1] + prev.tf;
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - prev.memF; // Eq. 5 (memF <= G)
            Bytes by_time = static_cast<Bytes>(window * B); // Eq. 6
            Bytes prefetched = std::min({c.w, reserve, by_time});
            if (detail)
                detail[j].prefetchedFwd = prefetched;
            ready = window_end +
                static_cast<double>(c.w - prefetched) / B;
        }

        // Eq. 8 inputs: the upstream stage's starts and time.
        const double *up = j > 0 ? fstart + (j - 1) * M : nullptr;
        const double up_tf = j > 0 ? stage(j - 1).tf : 0.0;
        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (m > 0) // Eq. 10
                t = std::max(t, row[m - 1] + c.tf);
            if (j > 0) // Eq. 8: activation arrival
                t = std::max(t, up[m] + up_tf + act[j - 1]);
            row[m] = t;
        }
        if (detail) {
            detail[j].fwdReady = ready;
            detail[j].fwdStart = row[0];
            detail[j].fwdEnd = row[M - 1] + c.tf;
        }
    }

    // ---------------- Backward --------------------------------------
    // The step ends when the last gradient flush lands in DRAM.
    double step = 0.0;
    for (int j = S - 1; j >= 0; --j) {
        const StageCosts &c = stage(j);
        double *row = bstart + j * M;
        const double fwd_end = fstart[j * M + M - 1] + c.tf;
        bool resident = env_.keepResidentTail && j >= S - N &&
            c.memB <= G;

        double ready;
        if (resident) {
            ready = fwd_end;
        } else if (j >= S - N) {
            // Last-round stage that cannot stay resident: blocking
            // reload right after its own forward.
            ready = fwd_end + static_cast<double>(c.w) / B;
        } else {
            const StageCosts &next = stage(j + N);
            const double *next_row = bstart + (j + N) * M;
            double window_start = next_row[0];
            double window_end = next_row[M - 1] + next.tb;
            double window = std::max(0.0, window_end - window_start);
            Bytes reserve = G - next.memB;
            Bytes by_time = static_cast<Bytes>(window * B);
            Bytes prefetched = std::min({c.w, reserve, by_time});
            if (detail)
                detail[j].prefetchedBwd = prefetched;
            ready = window_end +
                static_cast<double>(c.w - prefetched) / B;
        }

        const double *down = j < S - 1 ? bstart + (j + 1) * M : nullptr;
        const double down_tb = j < S - 1 ? stage(j + 1).tb : 0.0;
        for (int m = 0; m < M; ++m) {
            double t = ready;
            if (j == S - 1) {
                // Eq. 11: backward begins once forward is complete.
                t = std::max(t, fwd_end);
            }
            if (m > 0)
                t = std::max(t, row[m - 1] + c.tb);
            if (j < S - 1) // Eq. 8 backward direction
                t = std::max(t, down[m] + down_tb + act[j]);
            row[m] = t;
        }
        const double bwd_end = row[M - 1] + c.tb;
        if (detail) {
            detail[j].residentForBwd = resident;
            detail[j].bwdReady = ready;
            detail[j].bwdStart = row[0];
            detail[j].bwdEnd = bwd_end;
        }
        step = std::max(step,
                        bwd_end + static_cast<double>(c.grad) / B);
    }
    return step;
}

double
PipelineCostEvaluator::stepTime(const Partition &partition,
                                PipelineScratch &scratch) const
{
    if (loadStages(partition, scratch) >= 0)
        return std::numeric_limits<double>::infinity();
    return schedule(scratch, nullptr);
}

PipelineEstimate
PipelineCostEvaluator::evaluate(const Partition &partition) const
{
    PipelineScratch scratch;
    PipelineEstimate est;
    const int bad = loadStages(partition, scratch);
    est.stages.resize(partition.size());
    if (bad >= 0) {
        const StageRange &st =
            partition[static_cast<std::size_t>(bad)];
        const StageCosts &c = table_[entryOf(st.lo, st.hi)];
        est.infeasibleReason = strfmt(
            "stage %d needs %s fwd / %s bwd, GPU has %s", bad,
            formatBytes(c.memF).c_str(), formatBytes(c.memB).c_str(),
            formatBytes(env_.gpuMemBytes).c_str());
        return est;
    }
    est.stepTime = schedule(scratch, est.stages.data());
    est.feasible = true;

    // Implied traffic (Eq. 1): weights down (twice minus resident
    // tail), checkpoints both ways, boundary activations between
    // stages, gradients up.
    const CostModel &cm = *cost_;
    const Bytes M = static_cast<Bytes>(cm.cfg().numMicrobatches);
    const std::size_t S = partition.size();
    Bytes comm = 0;
    for (std::size_t j = 0; j < S; ++j) {
        const StageCosts &c = table_[scratch.entry[j]];
        comm += c.w;                      // forward upload
        if (!est.stages[j].residentForBwd)
            comm += c.w;                  // backward re-upload
        comm += c.grad;                   // gradient flush
        // Checkpoints, then activations + their gradients.
        comm += 2 * cm.inActBytes(partition[j].lo) * M;
        if (j + 1 < S)
            comm += 2 * cm.actBytes(partition[j].hi - 1) * M;
    }
    est.commBytes = comm;
    return est;
}

} // namespace mobius

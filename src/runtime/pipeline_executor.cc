#include "runtime/pipeline_executor.hh"

#include "base/logging.hh"

namespace mobius
{

const char *
pipelineScheduleName(PipelineSchedule schedule)
{
    switch (schedule) {
      case PipelineSchedule::GPipe:    return "GPipe";
      case PipelineSchedule::OneFOneB: return "DeepSpeed-pipeline";
    }
    return "?";
}

PipelineExecutor::PipelineExecutor(RunContext &ctx,
                                   const CostModel &cost,
                                   Partition partition,
                                   Mapping mapping,
                                   PipelineSchedule schedule)
    : ctx_(ctx), cost_(cost), partition_(std::move(partition)),
      mapping_(std::move(mapping)), schedule_(schedule)
{
    checkPartition(partition_, cost_.numLayers());
    S_ = static_cast<int>(partition_.size());
    M_ = cost_.cfg().numMicrobatches;
    const int N = ctx_.numGpus();
    if (S_ != N) {
        fatal("%s maps one stage per GPU: %d stages vs %d GPUs",
              pipelineScheduleName(schedule_), S_, N);
    }

    stages_.resize(static_cast<std::size_t>(S_));
    gpuBusy_.assign(static_cast<std::size_t>(N), false);
    stageOfGpu_.assign(static_cast<std::size_t>(N), -1);

    if (MetricsRegistry *m = ctx_.metrics()) {
        mFwdMicrobatches_ = &m->counter("pipe.fwd.microbatches");
        mBwdMicrobatches_ = &m->counter("pipe.bwd.microbatches");
    }

    for (int j = 0; j < S_; ++j) {
        const StageRange &r = partition_[j];
        StageState &s = stages_[j];
        s.tFwd = cost_.rangeFwdTime(r.lo, r.hi);
        s.tBwd = cost_.rangeBwdTime(r.lo, r.hi);
        s.aOutBytes = cost_.actBytes(r.hi - 1);
        s.gpu = mapping_.gpuOf(j);
        if (stageOfGpu_[s.gpu] >= 0)
            fatal("two stages mapped to GPU %d", s.gpu);
        stageOfGpu_[s.gpu] = j;
        s.actReady.assign(static_cast<std::size_t>(M_), j == 0);
        s.gradReady.assign(static_cast<std::size_t>(M_), false);
        s.actReadySpan.assign(static_cast<std::size_t>(M_), kNoSpan);
        s.gradReadySpan.assign(static_cast<std::size_t>(M_),
                               kNoSpan);
        s.fwdSpan.assign(static_cast<std::size_t>(M_), kNoSpan);

        // Memory check: everything resident (OOM rows of Fig. 5).
        // 1F1B caps in-flight microbatches at pipeline-depth-minus-
        // rank; GPipe keeps all M.
        int in_flight = schedule_ == PipelineSchedule::GPipe
            ? M_
            : std::min(M_, S_ - j);
        Bytes need = cost_.stageMemResident(r.lo, r.hi, in_flight);
        Bytes cap = ctx_.memory(s.gpu).capacity();
        if (need > cap) {
            fatal("%s out of memory: stage %d needs %s, GPU %d has "
                  "%s",
                  pipelineScheduleName(schedule_), j,
                  formatBytes(need).c_str(), s.gpu,
                  formatBytes(cap).c_str());
        }
        ctx_.memory(s.gpu).alloc(need);
    }
}

bool
PipelineExecutor::fwdReady(int stage) const
{
    const StageState &s = stages_[stage];
    return s.nextFwdMb < M_ && s.actReady[s.nextFwdMb];
}

bool
PipelineExecutor::bwdReady(int stage) const
{
    const StageState &s = stages_[stage];
    if (s.nextBwdMb >= M_)
        return false;
    if (stage == S_ - 1) {
        if (schedule_ == PipelineSchedule::GPipe)
            return s.fwdDone == M_ && s.nextBwdMb < s.fwdDone;
        return s.nextBwdMb < s.fwdDone; // 1F1B: own fwd suffices
    }
    return s.gradReady[s.nextBwdMb];
}

void
PipelineExecutor::schedule(int gpu)
{
    if (gpuBusy_[gpu])
        return;
    int stage = stageOfGpu_[gpu];
    StageState &s = stages_[stage];

    // 1F1B prefers backward work when both are ready; GPipe has no
    // choice (backward only unblocks after every forward is done).
    bool do_bwd;
    if (bwdReady(stage) && fwdReady(stage))
        do_bwd = schedule_ == PipelineSchedule::OneFOneB;
    else if (bwdReady(stage))
        do_bwd = true;
    else if (fwdReady(stage))
        do_bwd = false;
    else
        return;

    gpuBusy_[gpu] = true;
    if (do_bwd) {
        int mb = s.nextBwdMb++;
        // Gated by the gradient from downstream (or, on the last
        // stage, its own forward — Eq. 11) and the previous compute
        // on this GPU (Eq. 9).
        SpanId gate = stage == S_ - 1
            ? s.fwdSpan[static_cast<std::size_t>(mb)]
            : s.gradReadySpan[static_cast<std::size_t>(mb)];
        ctx_.compute(gpu).submit(
            s.tBwd, [this, stage, mb] { onBwdCompute(stage, mb); },
            strfmt("B%d,%d", stage, mb), {gate, s.lastSpan}, stage);
    } else {
        int mb = s.nextFwdMb++;
        ctx_.compute(gpu).submit(
            s.tFwd, [this, stage, mb] { onFwdCompute(stage, mb); },
            strfmt("F%d,%d", stage, mb),
            {s.actReadySpan[static_cast<std::size_t>(mb)],
             s.lastSpan},
            stage);
    }
}

void
PipelineExecutor::onFwdCompute(int stage, int mb)
{
    StageState &s = stages_[stage];
    gpuBusy_[s.gpu] = false;
    ++s.fwdDone;
    s.lastSpan = ctx_.compute(s.gpu).lastSpanId();
    s.fwdSpan[static_cast<std::size_t>(mb)] = s.lastSpan;
    if (mFwdMicrobatches_)
        mFwdMicrobatches_->add();

    if (stage + 1 < S_) {
        StageState &next = stages_[stage + 1];
        TransferRequest act;
        act.src = Endpoint::gpuAt(s.gpu);
        act.dst = Endpoint::gpuAt(next.gpu);
        act.bytes = s.aOutBytes;
        act.kind = TrafficKind::Activation;
        act.priority = 1;
        act.label = strfmt("a%d,%d", stage, mb);
        act.deps = {s.lastSpan};
        act.stage = stage + 1;
        int nstage = stage + 1;
        act.onComplete = [this, nstage, mb] {
            stages_[nstage].actReady[mb] = true;
            stages_[nstage]
                .actReadySpan[static_cast<std::size_t>(mb)] =
                ctx_.xfer().lastSpanId();
            schedule(stages_[nstage].gpu);
        };
        ctx_.submitXfer(std::move(act));
    }
    schedule(s.gpu);
}

void
PipelineExecutor::onBwdCompute(int stage, int mb)
{
    StageState &s = stages_[stage];
    gpuBusy_[s.gpu] = false;
    ++s.bwdDone;
    s.lastSpan = ctx_.compute(s.gpu).lastSpanId();
    if (mBwdMicrobatches_)
        mBwdMicrobatches_->add();

    if (stage > 0) {
        StageState &prev = stages_[stage - 1];
        TransferRequest g;
        g.src = Endpoint::gpuAt(s.gpu);
        g.dst = Endpoint::gpuAt(prev.gpu);
        g.bytes = prev.aOutBytes;
        g.kind = TrafficKind::ActivationGrad;
        g.priority = 1;
        g.label = strfmt("g%d,%d", stage, mb);
        g.deps = {s.lastSpan};
        g.stage = stage - 1;
        int pstage = stage - 1;
        g.onComplete = [this, pstage, mb] {
            stages_[pstage].gradReady[mb] = true;
            stages_[pstage]
                .gradReadySpan[static_cast<std::size_t>(mb)] =
                ctx_.xfer().lastSpanId();
            schedule(stages_[pstage].gpu);
        };
        ctx_.submitXfer(std::move(g));
    }
    schedule(s.gpu);
}

StepStats
PipelineExecutor::run()
{
    for (int g = 0; g < ctx_.numGpus(); ++g)
        schedule(g);
    StepStats stats = ctx_.finish(pipelineScheduleName(schedule_));
    for (int j = 0; j < S_; ++j) {
        if (stages_[j].bwdDone != M_)
            panic("%s deadlocked: stage %d at %d/%d bwd",
                  pipelineScheduleName(schedule_), j,
                  stages_[j].bwdDone, M_);
    }
    return stats;
}

} // namespace mobius

/**
 * @file
 * bench_simcore — throughput of the simulator core after the hot-path
 * rewrite, measured against the frozen pre-rewrite implementations
 * (see EXPERIMENTS.md "BENCH_simcore.json").
 *
 * Three sections:
 *
 *  1. Event-queue microbenchmark. A deterministic schedule/cancel/
 *     fire churn — the transfer engine's reschedule pattern — runs
 *     on the indexed-heap EventQueue and on ReferenceEventQueue (the
 *     std::map original, frozen in event_queue_reference.hh). Both
 *     drain the identical RNG-driven workload; a hash of the firing
 *     sequence (time and payload of every executed event, in order)
 *     must match exactly, which checks the tie-break contract while
 *     timing it.
 *
 *  2. Incremental fair-share accounting. One real Mobius GPT-8B step
 *     on the 2+2 server, reading the engine's FairShareActivity
 *     counters: how many moving flows each active-set change
 *     actually re-solved (the connected component) versus how many a
 *     full recomputation would have redone. A second run with
 *     TransferEngineConfig::fairShareCrossCheck re-solves everything
 *     from scratch after every update and panics on any divergence,
 *     so its completion — with a bit-identical step time — is the
 *     correctness gate.
 *
 *  3. Replica throughput. A batch of independent faulted replicas
 *     (distinct fault seeds) dispatched through runReplicas() at 1,
 *     4, and hardware-concurrency threads, reporting sims/sec at
 *     each width. Every replica's (step time, span count, failure
 *     count) triple must be bit-identical across thread counts.
 *
 * Usage: bench_simcore [--quick] [--out FILE]
 *
 *   --quick   smaller churn budget and replica batch (this is the
 *             tier-1 ctest smoke). Exits nonzero when the queue
 *             speedup falls below 3x or its absolute throughput
 *             below 200k events/sec, when the firing-order hashes
 *             diverge, when the fair-share cross-check fails, or
 *             when replica results differ across thread counts.
 *   --out     JSON output path (default BENCH_simcore.json in the
 *             working directory). Top-level scalars are folded into
 *             BENCH_index.json by tools/bench_index.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/args.hh"
#include "bench_util.hh"
#include "event_queue_reference.hh"
#include "fault/fault_plan.hh"
#include "simcore/replica_runner.hh"

using namespace mobius;

namespace
{

/** Quick-tier gates (the acceptance bar for the rewrite). */
constexpr double kMinSpeedup = 3.0;
constexpr double kMinEventsPerSec = 200e3;
/** Host-profiler gate: relative CPU overhead a fully profiled step
 *  may add, plus an absolute slack so micro-noise on a sub-second
 *  baseline cannot trip it (the timeline-tracing gate's shape). */
constexpr double kMaxProfOverhead = 0.05;
constexpr double kProfOverheadSlack = 0.02;
/** |sum(zone self times) - total(root zones)| bound, wall seconds. */
constexpr double kMaxProfSelfDrift = 1e-9;

double
wallSeconds(std::chrono::steady_clock::time_point t0,
            std::chrono::steady_clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * xorshift64* — a tiny deterministic generator so the churn workload
 * is identical across queue implementations, platforms, and library
 * versions (std::mt19937_64 would do, but costs more per draw than a
 * heap operation, which would dilute what we are measuring).
 */
struct Rng
{
    std::uint64_t s;

    explicit Rng(std::uint64_t seed) : s(seed | 1) {}

    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    }
};

/** One timed churn drain: counts, firing-order hash, wall seconds. */
struct ChurnResult
{
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t hash = 0;
    double seconds = 0.0;
};

/**
 * The transfer-engine churn, templated over the queue type so both
 * implementations run byte-for-byte the same driver: `slots`
 * conceptual flows each own at most one pending completion event;
 * every firing reschedules two random flows, cancelling whatever was
 * pending there first (a fair-share rate change moving completion
 * times). RNG draws happen only on the firing path, so as long as
 * both queues honour the (time, schedule order) contract they
 * consume the generator identically — any divergence shows up as a
 * different firing-sequence hash.
 */
template <typename Queue>
class Churn
{
  public:
    Churn(int slots, long long budget, std::uint64_t seed)
        : rng_(seed),
          slot_(static_cast<std::size_t>(slots), kNoEvent),
          remaining_(budget)
    {
    }

    ChurnResult
    run()
    {
        // CPU rather than wall clock so the speedup gate is
        // insensitive to whatever else a parallel ctest is running.
        double t0 = bench::cpuNow();
        scheduleSome(static_cast<int>(slot_.size()));
        q_.run();
        double t1 = bench::cpuNow();
        ChurnResult r;
        r.executed = q_.executed();
        r.cancelled = cancelled_;
        r.hash = hash_;
        r.seconds = t1 - t0;
        return r;
    }

  private:
    void
    fired(int s)
    {
        slot_[static_cast<std::size_t>(s)] = kNoEvent;
        mix(static_cast<std::uint64_t>(s));
        std::uint64_t bits;
        SimTime t = q_.now();
        std::memcpy(&bits, &t, sizeof bits);
        mix(bits);
        scheduleSome(2);
    }

    void
    scheduleSome(int k)
    {
        while (k-- > 0 && remaining_ > 0) {
            --remaining_;
            int s = static_cast<int>(rng_.next() % slot_.size());
            EventId &pending = slot_[static_cast<std::size_t>(s)];
            if (pending != kNoEvent) {
                q_.cancel(pending);
                ++cancelled_;
            }
            SimTime when = q_.now() +
                1e-6 * static_cast<double>(1 + rng_.next() % 1000);
            pending = q_.schedule(when, [this, s] { fired(s); });
        }
    }

    void
    mix(std::uint64_t v)
    {
        hash_ = (hash_ ^ v) * 1099511628211ull;
    }

    Queue q_;
    Rng rng_;
    std::vector<EventId> slot_;
    long long remaining_;
    std::uint64_t cancelled_ = 0;
    std::uint64_t hash_ = 1469598103934665603ull;
};

/** Best-of-@p repeats churn timing for one queue type. */
template <typename Queue>
ChurnResult
bestChurn(int slots, long long budget, std::uint64_t seed,
          int repeats)
{
    ChurnResult best;
    for (int r = 0; r < repeats; ++r) {
        ChurnResult c = Churn<Queue>(slots, budget, seed).run();
        if (r == 0 || c.seconds < best.seconds)
            best = c;
    }
    return best;
}

/** One Mobius GPT-8B 2+2 step's fair-share work accounting. */
struct FairShareRun
{
    double stepTime = 0.0;
    FairShareActivity activity;
};

FairShareRun
runFairShare(bool cross_check)
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    RunContextOptions opts;
    opts.xfer.fairShareCrossCheck = cross_check;
    RunContext ctx(server, opts);
    FairShareRun r;
    r.stepTime =
        runStep(ctx, System::Mobius, work.cost(), &plan).stepTime;
    r.activity = ctx.xfer().fairShareActivity();
    return r;
}

/**
 * One full Mobius GPT-8B 2+2 step (plan + execute) for the host
 * self-profiler gate — it crosses every instrumented layer (solver,
 * fair share, event drain, span arena).
 * @return the span fingerprint, so the gate can assert profiling
 *         perturbs nothing the simulation does.
 */
std::uint64_t
profStep()
{
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt8b(), server);
    MobiusPlan plan = planMobius(server, work.cost());
    return runStep(System::Mobius, server, work.cost(), &plan)
        .spanHash;
}

/** Per-replica fingerprint compared across thread counts. */
struct ReplicaOut
{
    double stepTime = 0.0;
    std::uint64_t spans = 0;
    std::uint64_t failures = 0;

    bool
    operator==(const ReplicaOut &o) const
    {
        return stepTime == o.stepTime && spans == o.spans &&
            failures == o.failures;
    }
};

/** One timed replica batch at a fixed thread count. */
struct BatchResult
{
    int threadsUsed = 0;
    double seconds = 0.0;
    std::vector<ReplicaOut> outs;
};

BatchResult
runBatch(int replicas, int threads, const MobiusPlan &plan)
{
    BatchResult b;
    b.outs.resize(static_cast<std::size_t>(replicas));
    ReplicaRunnerOptions opts;
    opts.threads = threads;
    auto t0 = std::chrono::steady_clock::now();
    ReplicaRunStats rs = runReplicas(
        replicas,
        [&](int i) {
            // Each replica owns its whole simulation stack; only the
            // plan (computed once, const) is shared. Distinct fault
            // seeds make the replicas genuinely different runs.
            Server server = makeCommodityServer({2, 2});
            Workload work(gpt8b(), server);
            FaultPlan fp;
            fp.xfailProb = 0.01;
            fp.retryBudget = 10;
            fp.retryBackoff = 1e-4;
            RunContext ctx(
                server,
                {.faults = &fp,
                 .faultSeed = 1000 + static_cast<std::uint64_t>(i)});
            ReplicaOut &out =
                b.outs[static_cast<std::size_t>(i)];
            out.stepTime =
                runStep(ctx, System::Mobius, work.cost(), &plan)
                    .stepTime;
            out.spans = ctx.trace().spanCount();
            out.failures = ctx.faults()->counters().failures;
        },
        opts);
    auto t1 = std::chrono::steady_clock::now();
    b.threadsUsed = rs.threadsUsed;
    b.seconds = wallSeconds(t0, t1);
    return b;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args(argc, argv);
        bench::ProfScope prof_scope(args);
        const bool quick = args.has("quick");
        const std::string out = args.get("out", "BENCH_simcore.json");
        args.rejectUnused();

        // --- Section 1: event-queue throughput vs the frozen core.
        bench::section("Simcore: indexed-heap event queue vs "
                       "std::map reference");
        const int slots = 1024;
        const long long budget = quick ? 300000 : 3000000;
        const int repeats = 5;
        const std::uint64_t seed = 0x5eed5eed;

        ChurnResult heap =
            bestChurn<EventQueue>(slots, budget, seed, repeats);
        ChurnResult ref = bestChurn<ReferenceEventQueue>(
            slots, budget, seed, repeats);

        bool oracle_ok = heap.hash == ref.hash &&
            heap.executed == ref.executed &&
            heap.cancelled == ref.cancelled;
        double heap_eps =
            static_cast<double>(heap.executed) / heap.seconds;
        double ref_eps =
            static_cast<double>(ref.executed) / ref.seconds;
        double speedup = heap_eps / ref_eps;

        std::printf("\n  churn: %lld schedules over %d slots, "
                    "%llu fired, %llu cancelled (best of %d)\n",
                    budget, slots,
                    (unsigned long long)heap.executed,
                    (unsigned long long)heap.cancelled, repeats);
        std::printf("  indexed heap : %8.0fk events/sec (%.3fs)\n",
                    heap_eps / 1e3, heap.seconds);
        std::printf("  map reference: %8.0fk events/sec (%.3fs)\n",
                    ref_eps / 1e3, ref.seconds);
        std::printf("  speedup %.2fx (>= %.1fx), firing order %s\n",
                    speedup, kMinSpeedup,
                    oracle_ok ? "identical" : "DIVERGED");

        // --- Section 2: incremental fair-share work avoided.
        bench::section("Simcore: incremental fair-share on a real "
                       "step (GPT-8B, 2+2)");
        FairShareRun fs = runFairShare(false);
        FairShareRun fsx = runFairShare(true);
        double fs_total = static_cast<double>(
            fs.activity.flowsTouched + fs.activity.flowsSkipped);
        double skip_frac = fs_total > 0.0
            ? static_cast<double>(fs.activity.flowsSkipped) /
                fs_total
            : 0.0;
        bool crosscheck_ok = fsx.activity.crossChecks > 0 &&
            fsx.stepTime == fs.stepTime;

        std::printf("\n  %llu solves: %llu flow-rates recomputed, "
                    "%llu kept (%.1f%% of full-recompute work "
                    "avoided)\n",
                    (unsigned long long)fs.activity.solves,
                    (unsigned long long)fs.activity.flowsTouched,
                    (unsigned long long)fs.activity.flowsSkipped,
                    100 * skip_frac);
        std::printf("  cross-check run: %llu full solves, step "
                    "%.6fs vs %.6fs — %s\n",
                    (unsigned long long)fsx.activity.crossChecks,
                    fsx.stepTime, fs.stepTime,
                    crosscheck_ok ? "bit-identical" : "FAIL");

        // --- Section 3: parallel replica throughput.
        bench::section("Simcore: faulted-replica batch via "
                       "runReplicas()");
        const int replicas = quick ? 8 : 24;
        int hw = static_cast<int>(std::thread::hardware_concurrency());
        if (hw <= 0)
            hw = 4;

        Server plan_server = makeCommodityServer({2, 2});
        Workload plan_work(gpt8b(), plan_server);
        MobiusPlan plan = planMobius(plan_server, plan_work.cost());

        // Width 4 runs even on fewer cores: oversubscribed workers
        // still interleave, which is exactly what the determinism
        // gate needs to bite on single-core CI.
        std::vector<int> widths = {1, 4};
        if (hw > 4)
            widths.push_back(hw);
        std::vector<BatchResult> batches;
        for (int w : widths)
            batches.push_back(runBatch(replicas, w, plan));

        bool determinism_ok = true;
        for (const BatchResult &b : batches)
            determinism_ok =
                determinism_ok && b.outs == batches.front().outs;

        std::printf("\n  %d replicas (distinct fault seeds):\n",
                    replicas);
        for (const BatchResult &b : batches)
            std::printf("    %2d threads: %6.2f sims/sec (%.2fs)\n",
                        b.threadsUsed,
                        replicas / b.seconds, b.seconds);
        double sims_1 = replicas / batches.front().seconds;
        double sims_n = replicas / batches.back().seconds;
        std::printf("  parallel speedup %.2fx at %d threads, "
                    "replica results %s across widths\n",
                    sims_n / sims_1, batches.back().threadsUsed,
                    determinism_ok ? "bit-identical"
                                   : "NONDETERMINISTIC");

        // --- Section 4: host self-profiler overhead + identity.
        bench::section("Simcore: host self-profiler overhead "
                       "(GPT-8B step, min CPU of 2)");
        const bool prof_was_on = prof::enabled();
        prof::setEnabled(false);
        std::uint64_t fp_off = 0, fp_on = 0;
        double prof_cpu_off =
            bench::minCpuOf(2, [&] { fp_off = profStep(); });
        prof::reset();
        prof::setEnabled(true);
        double prof_cpu_on =
            bench::minCpuOf(2, [&] { fp_on = profStep(); });
        prof::setEnabled(false);
        prof::Snapshot snap = prof::snapshot();
        if (prof_was_on)
            prof::setEnabled(true);

        double prof_overhead =
            prof_cpu_on / std::max(prof_cpu_off, 1e-9) - 1.0;
        bool prof_overhead_ok = prof_cpu_on <=
            prof_cpu_off * (1.0 + kMaxProfOverhead) +
                kProfOverheadSlack;
        bool prof_perturb_ok = fp_on == fp_off;
        double prof_drift = snap.selfSumDrift();
        bool prof_sum_ok =
            !snap.zones.empty() && prof_drift <= kMaxProfSelfDrift;
        bool prof_ok =
            prof_overhead_ok && prof_perturb_ok && prof_sum_ok;

        std::printf("\n%s", prof::table(snap).c_str());
        std::printf("\n  profiler overhead %+.1f%% (cpu %.3fs -> "
                    "%.3fs, <= %.0f%% + %.2fs): %s\n",
                    100 * prof_overhead, prof_cpu_off, prof_cpu_on,
                    100 * kMaxProfOverhead, kProfOverheadSlack,
                    prof_overhead_ok ? "ok" : "FAIL");
        std::printf("  span fingerprint unperturbed: %s\n",
                    prof_perturb_ok ? "ok" : "FAIL");
        std::printf("  self-times sum to root total (drift %.3g "
                    "<= %g): %s\n",
                    prof_drift, kMaxProfSelfDrift,
                    prof_sum_ok ? "ok" : "FAIL");

        // --- Gates and JSON.
        bool speedup_ok = speedup >= kMinSpeedup;
        bool floor_ok = heap_eps >= kMinEventsPerSec;
        bool ok = speedup_ok && floor_ok && oracle_ok &&
            crosscheck_ok && determinism_ok && prof_ok;

        std::printf("\n  queue speedup >= %.1fx: %s\n", kMinSpeedup,
                    speedup_ok ? "ok" : "FAIL");
        std::printf("  queue throughput >= %.0fk events/sec: %s\n",
                    kMinEventsPerSec / 1e3,
                    floor_ok ? "ok" : "FAIL");
        std::printf("  firing-order oracle: %s\n",
                    oracle_ok ? "ok" : "FAIL");
        std::printf("  fair-share cross-check: %s\n",
                    crosscheck_ok ? "ok" : "FAIL");
        std::printf("  replica determinism: %s\n",
                    determinism_ok ? "ok" : "FAIL");
        std::printf("  profiler overhead/identity/self-sum: %s\n",
                    prof_ok ? "ok" : "FAIL");

        std::string json = "{\n  \"schema\": \"mobius-bench/1\",\n  \"quick\": ";
        json += quick ? "true" : "false";
        json += strfmt(",\n  \"queue_events_per_sec\": %.17g",
                       heap_eps);
        json += strfmt(",\n  \"reference_events_per_sec\": %.17g",
                       ref_eps);
        json += strfmt(",\n  \"queue_speedup\": %.17g", speedup);
        json += strfmt(",\n  \"queue_speedup_floor\": %g",
                       kMinSpeedup);
        json += strfmt(",\n  \"queue_events_per_sec_floor\": %g",
                       kMinEventsPerSec);
        json += strfmt(",\n  \"churn_schedules\": %lld", budget);
        json += strfmt(",\n  \"churn_executed\": %llu",
                       (unsigned long long)heap.executed);
        json += strfmt(",\n  \"churn_cancelled\": %llu",
                       (unsigned long long)heap.cancelled);
        json += ",\n  \"oracle_ok\": ";
        json += oracle_ok ? "true" : "false";
        json += strfmt(",\n  \"fair_share_solves\": %llu",
                       (unsigned long long)fs.activity.solves);
        json += strfmt(",\n  \"fair_share_flows_touched\": %llu",
                       (unsigned long long)fs.activity.flowsTouched);
        json += strfmt(",\n  \"fair_share_flows_skipped\": %llu",
                       (unsigned long long)fs.activity.flowsSkipped);
        json += strfmt(",\n  \"fair_share_skip_fraction\": %.17g",
                       skip_frac);
        json += strfmt(",\n  \"fair_share_cross_checks\": %llu",
                       (unsigned long long)fsx.activity.crossChecks);
        json += ",\n  \"crosscheck_ok\": ";
        json += crosscheck_ok ? "true" : "false";
        json += strfmt(",\n  \"replicas\": %d", replicas);
        json += strfmt(",\n  \"sims_per_sec_1t\": %.17g", sims_1);
        json += strfmt(",\n  \"sims_per_sec_nt\": %.17g", sims_n);
        json += strfmt(",\n  \"replica_threads_n\": %d",
                       batches.back().threadsUsed);
        json += strfmt(",\n  \"parallel_speedup\": %.17g",
                       sims_n / sims_1);
        json += ",\n  \"determinism_ok\": ";
        json += determinism_ok ? "true" : "false";
        json += strfmt(",\n  \"prof_overhead_fraction\": %.17g",
                       prof_overhead);
        json += strfmt(",\n  \"prof_cpu_base_seconds\": %.17g",
                       prof_cpu_off);
        json += strfmt(",\n  \"prof_cpu_on_seconds\": %.17g",
                       prof_cpu_on);
        json += strfmt(",\n  \"prof_zone_count\": %zu",
                       snap.zones.size());
        json += strfmt(",\n  \"prof_self_sum_drift\": %.17g",
                       prof_drift);
        json += ",\n  \"prof_ok\": ";
        json += prof_ok ? "true" : "false";
        json += ",\n  \"batches\": [";
        for (std::size_t i = 0; i < batches.size(); ++i) {
            const BatchResult &b = batches[i];
            json += i ? ",\n    " : "\n    ";
            json += strfmt("{\"threads\":%d,\"seconds\":%.17g,"
                           "\"sims_per_sec\":%.17g}",
                           b.threadsUsed, b.seconds,
                           replicas / b.seconds);
        }
        json += "\n  ]\n}\n";

        std::ofstream os(out);
        os << json;
        if (!os)
            fatal("cannot write '%s'", out.c_str());
        std::printf("\n  wrote %s\n", out.c_str());

        return ok ? 0 : 1;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

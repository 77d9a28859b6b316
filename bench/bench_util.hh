/**
 * @file
 * Shared helpers for the harnesses in bench/: bench_paper, which
 * prints every table and figure of the paper (see EXPERIMENTS.md for
 * the mapping and expected shapes), and the BENCH_*.json trackers.
 */

#ifndef MOBIUS_BENCH_BENCH_UTIL_HH
#define MOBIUS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <ctime>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/args.hh"
#include "obs/prof.hh"
#include "runtime/api.hh"
#include "simcore/replica_runner.hh"

namespace mobius::bench
{

/**
 * Process CPU seconds (std::clock). The min-of-N gates below use it
 * because process CPU time is immune to the machine being busy, so
 * the quick smokes stay stable under a parallel ctest.
 */
inline double
cpuNow()
{
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/** Monotonic wall-clock seconds. */
inline double
wallNow()
{
    return prof::wallNow();
}

/**
 * Minimum process-CPU seconds of @p body over @p repeats runs — the
 * standard load-immune measurement for every overhead gate (timeline
 * recording, host profiler): the min discards scheduling noise,
 * which only ever inflates a run.
 */
template <typename Fn>
inline double
minCpuOf(int repeats, Fn &&body)
{
    double best = -1.0;
    for (int r = 0; r < repeats; ++r) {
        const double t0 = cpuNow();
        body();
        const double dt = cpuNow() - t0;
        if (best < 0.0 || dt < best)
            best = dt;
    }
    return best < 0.0 ? 0.0 : best;
}

/**
 * The shared `--prof` flag: construct one at the top of main() and
 * the host self-profiler is enabled for the whole run, with the
 * self-time table printed on destruction (stdout, after the bench's
 * own output):
 *
 *   bench::ProfScope prof(args);
 */
class ProfScope
{
  public:
    /** Enable profiling when @p args has `--prof`. */
    explicit ProfScope(const Args &args)
        : on_(args.has("prof"))
    {
        if (on_)
            prof::setEnabled(true);
    }

    /** Print the self-time table if profiling was enabled. */
    ~ProfScope()
    {
        if (!on_)
            return;
        prof::setEnabled(false);
        std::printf("\n--- host self-profile ---\n%s",
                    prof::table(prof::snapshot()).c_str());
    }

    /** @return true when `--prof` was given. */
    bool enabled() const { return on_; }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    bool on_ = false;
};

/**
 * The shared `--threads N` flag (0 = hardware concurrency),
 * identical across every parallel bench harness.
 */
inline int
threadsArg(const Args &args)
{
    return static_cast<int>(args.getInt("threads", 0));
}

/**
 * Fan @p body over [0, count) on a runReplicas() pool of
 * @p threads workers and print the standard one-line width report
 * ("(N curves on T threads)"). Callers keep results in per-index
 * slots and reduce after this returns, in index order — the
 * runReplicas() determinism contract.
 * @return the worker count actually used.
 */
inline int
runParallel(std::size_t count, int threads, const char *what,
            const std::function<void(int)> &body)
{
    ReplicaRunnerOptions ropts;
    ropts.threads = threads;
    ReplicaRunStats rstats =
        runReplicas(static_cast<int>(count), body, ropts);
    std::printf("  (%zu %s on %d threads)\n", count, what,
                rstats.threadsUsed);
    return rstats.threadsUsed;
}

/** Print a figure/table banner. */
inline void
section(const std::string &title)
{
    std::printf("\n================================================="
                "=============\n%s\n"
                "=================================================="
                "============\n",
                title.c_str());
}

} // namespace mobius::bench

#endif // MOBIUS_BENCH_BENCH_UTIL_HH

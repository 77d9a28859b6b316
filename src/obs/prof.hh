/**
 * @file
 * Host self-profiler: scoped wall/CPU-time zones over the
 * *simulator's own* hot paths.
 *
 * Everything else in src/obs observes the simulated workload; this
 * profiler observes the process running the simulation, answering
 * "where does the host CPU time of a run actually go" — the Fig. 12
 * question (Mobius's own machinery overhead) asked of this
 * reproduction itself. It is the data source behind
 * `mobius_sim --prof`, the shared bench `--prof` flag, and the
 * `prof_*` scalars that tools/perf_gate trends across runs.
 *
 * Model: a **zone** is a lexical scope opened with
 * MOBIUS_PROF_ZONE("name"). Zones nest, forming a per-thread calling
 * -context tree; each tree node accumulates call count, total wall
 * seconds, total thread-CPU seconds, and the maximum wall seconds of
 * any single call. *Self* time (total minus the totals of nested
 * child zones) is derived at snapshot time, so for every snapshot
 * the self times of all zones sum exactly (same-order floating-point
 * arithmetic, drift ~1e-15 relative) to the total of the root zones
 * — the invariant bench_simcore's prof smoke gates at 1e-9.
 *
 * Threading: each thread owns a private tree (no locks or atomics on
 * the zone path beyond one relaxed flag load). Thread trees are kept
 * alive after the thread exits and merged by snapshot() in thread
 * *registration order*, aggregating by zone path with name-sorted
 * siblings — so the merged output is deterministic for a
 * deterministic workload, and byte-identical across runReplicas()
 * widths when durations are (tests install a deterministic clock via
 * setClocksForTest()).
 *
 * Cost: when disabled (the default), a zone entry is one relaxed
 * atomic load and no allocation — cheap enough to leave compiled
 * into the EventQueue drain, the fair-share solver, the span arena,
 * and the LP/MIP solvers permanently. When enabled, a zone pair
 * costs two wall + two thread-CPU clock reads (~0.5us on commodity
 * hosts); instrumentation sites are chosen so a fully profiled
 * simulation stays within the <= 5% CPU overhead budget gated by
 * bench_simcore (per-pivot and per-event granularity is deliberately
 * avoided; those counts are already in solver.lp.* / queue metrics).
 *
 * Renderers: table() (self-time table), folded() (flamegraph.pl
 * folded-stack lines), and exportProfSnapshot() in obs/metrics.hh
 * (folds a snapshot into a MetricsRegistry as prof.* gauges and
 * counters, so --metrics JSON carries the host profile).
 *
 * Library note: this header and prof.cc build as `mobius_prof`,
 * which depends only on mobius_base — so mobius_simcore and
 * mobius_solver (which mobius_obs itself depends on) can be
 * instrumented without a dependency cycle.
 */

#ifndef MOBIUS_OBS_PROF_HH
#define MOBIUS_OBS_PROF_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mobius::prof
{

/** @return monotonic wall-clock seconds (CLOCK_MONOTONIC). */
double wallNow();

/** @return this thread's CPU seconds (CLOCK_THREAD_CPUTIME_ID). */
double cpuNow();

/** Enable or disable zone collection process-wide. */
void setEnabled(bool on);

/** @return true when zones are being collected. */
bool enabled();

/**
 * Zero every thread's accumulated zone data (registered threads and
 * sites are kept). No zone may be open on any thread.
 */
void reset();

/** One zone path's merged statistics. */
struct ZoneStats
{
    std::string path;  //!< "root;child;leaf" (unique per row)
    std::string name;  //!< leaf zone name
    int depth = 0;     //!< 0 for root zones
    std::uint64_t count = 0; //!< completed calls
    double wallTotal = 0.0;  //!< inclusive wall seconds
    double wallSelf = 0.0;   //!< wallTotal minus children's totals
    double cpuTotal = 0.0;   //!< inclusive thread-CPU seconds
    double cpuSelf = 0.0;    //!< cpuTotal minus children's totals
    double wallMax = 0.0;    //!< slowest single call, wall seconds
};

/** A merged, deterministic view of every thread's zone tree. */
struct Snapshot
{
    /** Depth-first, siblings in name order. */
    std::vector<ZoneStats> zones;
    /** Threads merged (registration order). */
    int threads = 0;

    /** @return sum of root zones' inclusive wall seconds. */
    double wallTotalRoots() const;

    /** @return sum of every zone's self wall seconds. */
    double wallSelfSum() const;

    /**
     * @return |wallSelfSum() - wallTotalRoots()| — pure floating
     *         point noise by construction; gated at 1e-9.
     */
    double selfSumDrift() const;
};

/**
 * Merge every registered thread's tree (registration order,
 * aggregated by zone path, siblings name-sorted). Call only while
 * no zone is open on any other thread — e.g. after a run completes
 * and worker pools have drained.
 */
Snapshot snapshot();

/**
 * Render the self-time table: one row per zone path (tree-indented),
 * columns calls / total / self / cpu / cpu-self / max, sorted
 * depth-first with name-sorted siblings, footer with the root total
 * and the self-sum drift. Deterministic for deterministic inputs.
 */
std::string table(const Snapshot &snap);

/**
 * Render flamegraph-compatible folded stacks: one line per zone
 * path, "root;child;leaf <self-microseconds>\n", rows whose
 * rounded self time is zero skipped. Feed to flamegraph.pl.
 */
std::string folded(const Snapshot &snap);

/** Clock override used by determinism tests. */
using ClockFn = double (*)();

/**
 * Replace the wall and CPU clocks (nullptr restores the real
 * clocks). Tests install deterministic thread-local counters so
 * zone durations — and therefore the whole merged table — are
 * byte-identical at any thread width.
 */
void setClocksForTest(ClockFn wall, ClockFn cpu);

namespace detail
{

/** The hot-path flag: one relaxed load per zone entry. */
extern std::atomic<bool> g_enabled;

struct ThreadState;

/** @return this thread's state, registering it on first use. */
ThreadState &threadState();

/** Open a zone for @p site_id on @p ts (clocks stamped last). */
void enter(ThreadState &ts, int site_id);

/** Close the innermost zone on @p ts (clocks stamped first). */
void leave(ThreadState &ts);

/** Intern @p name into the global site table. */
int registerSite(const char *name);

} // namespace detail

/**
 * A static per-call-site zone identity. Function-local
 * `static Site` registration is thread-safe (magic statics) and
 * happens once, even while profiling is disabled.
 */
class Site
{
  public:
    /** Register the site named @p name. */
    explicit Site(const char *name)
        : id(detail::registerSite(name))
    {}

    /** Global site index. */
    const int id;
};

/**
 * RAII zone: opens on construction when profiling is enabled,
 * closes on destruction. Disabled cost: one relaxed atomic load.
 */
class Zone
{
  public:
    /** Open a zone for @p site if profiling is enabled. */
    explicit Zone(const Site &site)
    {
        if (!detail::g_enabled.load(std::memory_order_relaxed))
            return;
        ts_ = &detail::threadState();
        detail::enter(*ts_, site.id);
    }

    /** Close the zone (no-op when it never opened). */
    ~Zone()
    {
        if (ts_)
            detail::leave(*ts_);
    }

    Zone(const Zone &) = delete;
    Zone &operator=(const Zone &) = delete;

  private:
    detail::ThreadState *ts_ = nullptr;
};

} // namespace mobius::prof

#define MOBIUS_PROF_CONCAT2(a, b) a##b
#define MOBIUS_PROF_CONCAT(a, b) MOBIUS_PROF_CONCAT2(a, b)

/**
 * Open a profiler zone named @p name for the rest of the enclosing
 * scope. @p name must be a string literal (or have static storage).
 */
#define MOBIUS_PROF_ZONE(name)                                        \
    static ::mobius::prof::Site MOBIUS_PROF_CONCAT(                   \
        mobius_prof_site_, __LINE__){name};                           \
    ::mobius::prof::Zone MOBIUS_PROF_CONCAT(mobius_prof_zone_,        \
                                            __LINE__){                \
        MOBIUS_PROF_CONCAT(mobius_prof_site_, __LINE__)}

#endif // MOBIUS_OBS_PROF_HH

#include "obs/prof.hh"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>

#include "base/logging.hh"

namespace mobius::prof
{

namespace
{

double
realWallNow()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

double
realCpuNow()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

// Test-injectable clocks; nullptr means "real clock". Plain pointers
// behind the registry mutex for writes, read on the hot path without
// synchronisation — tests only swap them while no zone is running.
ClockFn g_wall_fn = nullptr;
ClockFn g_cpu_fn = nullptr;

double
wallClock()
{
    ClockFn fn = g_wall_fn;
    return fn ? fn() : realWallNow();
}

double
cpuClock()
{
    ClockFn fn = g_cpu_fn;
    return fn ? fn() : realCpuNow();
}

} // namespace

double
wallNow()
{
    return realWallNow();
}

double
cpuNow()
{
    return realCpuNow();
}

namespace detail
{

std::atomic<bool> g_enabled{false};

// One calling-context-tree node. Children form a singly linked list
// (firstChild/nextSibling); trees are tiny (tens of nodes), so the
// linear sibling scan on entry is cheaper than any map.
struct Node
{
    int site;
    int parent;            // index into nodes, -1 for roots
    int firstChild = -1;
    int nextSibling = -1;
    std::uint64_t count = 0;
    double wall = 0.0;
    double cpu = 0.0;
    double wallMax = 0.0;
};

struct Frame
{
    int node;
    double wall0;
    double cpu0;
};

struct ThreadState
{
    std::vector<Node> nodes;
    std::vector<Frame> stack;
    int current = -1; // innermost open node, -1 at top level
    int roots = -1;   // head of the root sibling list
};

namespace
{

// Global registry: site names interned once, thread states owned
// here (in registration order) so snapshot() can merge trees after
// their threads have exited.
struct Registry
{
    std::mutex mu;
    std::vector<std::string> sites;
    std::vector<std::unique_ptr<ThreadState>> threads;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked: outlives TLS dtors
    return *r;
}

} // namespace

int
registerSite(const char *name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.sites.emplace_back(name);
    return int(r.sites.size()) - 1;
}

ThreadState &
threadState()
{
    thread_local ThreadState *ts = [] {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        r.threads.push_back(std::make_unique<ThreadState>());
        return r.threads.back().get();
    }();
    return *ts;
}

void
enter(ThreadState &ts, int site_id)
{
    // Find (or create) the child of the current node for this site.
    int node = -1;
    int *head = ts.current < 0 ? &ts.roots
                               : &ts.nodes[ts.current].firstChild;
    for (int i = *head; i >= 0; i = ts.nodes[i].nextSibling) {
        if (ts.nodes[i].site == site_id) {
            node = i;
            break;
        }
    }
    if (node < 0) {
        node = int(ts.nodes.size());
        Node n;
        n.site = site_id;
        n.parent = ts.current;
        n.nextSibling = *head;
        ts.nodes.push_back(n);
        // nodes.push_back may reallocate; re-derive the head slot.
        if (ts.current < 0)
            ts.roots = node;
        else
            ts.nodes[ts.current].firstChild = node;
    }
    ts.current = node;
    // Stamp clocks last so bookkeeping above is excluded from the
    // zone's own measured time.
    ts.stack.push_back({node, 0.0, 0.0});
    Frame &f = ts.stack.back();
    f.cpu0 = cpuClock();
    f.wall0 = wallClock();
}

void
leave(ThreadState &ts)
{
    // Stamp clocks first: everything below is merge bookkeeping.
    const double wall1 = wallClock();
    const double cpu1 = cpuClock();
    const Frame f = ts.stack.back();
    ts.stack.pop_back();
    Node &n = ts.nodes[f.node];
    const double dw = wall1 - f.wall0;
    n.count += 1;
    n.wall += dw;
    n.cpu += cpu1 - f.cpu0;
    n.wallMax = std::max(n.wallMax, dw);
    ts.current = n.parent;
}

} // namespace detail

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

void
reset()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &ts : r.threads) {
        if (!ts->stack.empty())
            panic("prof::reset() with a zone still open");
        ts->nodes.clear();
        ts->current = -1;
        ts->roots = -1;
    }
}

void
setClocksForTest(ClockFn wall, ClockFn cpu)
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    g_wall_fn = wall;
    g_cpu_fn = cpu;
}

namespace
{

// Merge tree: zone trees from all threads aggregated by site name.
// std::map keys give the name-sorted sibling order that makes the
// rendered output independent of site registration or thread order.
struct MergeNode
{
    std::uint64_t count = 0;
    double wall = 0.0;
    double cpu = 0.0;
    double wallMax = 0.0;
    std::map<std::string, MergeNode> children;
};

void
mergeThreadNodes(const detail::ThreadState &ts,
                 const std::vector<std::string> &sites, int head,
                 std::map<std::string, MergeNode> &out)
{
    // The sibling list is push-front ordered; aggregation by name
    // into the map makes the traversal order irrelevant.
    for (int i = head; i >= 0; i = ts.nodes[i].nextSibling) {
        const detail::Node &n = ts.nodes[i];
        MergeNode &m = out[sites[size_t(n.site)]];
        m.count += n.count;
        m.wall += n.wall;
        m.cpu += n.cpu;
        m.wallMax = std::max(m.wallMax, n.wallMax);
        mergeThreadNodes(ts, sites, n.firstChild, m.children);
    }
}

void
flatten(const std::map<std::string, MergeNode> &level,
        const std::string &prefix, int depth,
        std::vector<ZoneStats> &out)
{
    for (const auto &[name, m] : level) {
        ZoneStats z;
        z.path = prefix.empty() ? name : prefix + ";" + name;
        z.name = name;
        z.depth = depth;
        z.count = m.count;
        z.wallTotal = m.wall;
        z.cpuTotal = m.cpu;
        z.wallMax = m.wallMax;
        double child_wall = 0.0;
        double child_cpu = 0.0;
        for (const auto &[cn, cm] : m.children) {
            (void)cn;
            child_wall += cm.wall;
            child_cpu += cm.cpu;
        }
        z.wallSelf = m.wall - child_wall;
        z.cpuSelf = m.cpu - child_cpu;
        // Keep a copy: the recursion grows `out`, which would leave
        // a reference into the vector dangling on reallocation.
        std::string child_prefix = z.path;
        out.push_back(std::move(z));
        flatten(m.children, child_prefix, depth + 1, out);
    }
}

} // namespace

Snapshot
snapshot()
{
    detail::Registry &r = detail::registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::map<std::string, MergeNode> roots;
    Snapshot snap;
    for (const auto &ts : r.threads) {
        if (ts->nodes.empty())
            continue;
        if (!ts->stack.empty())
            panic("prof::snapshot() with a zone still open");
        snap.threads++;
        mergeThreadNodes(*ts, r.sites, ts->roots, roots);
    }
    flatten(roots, "", 0, snap.zones);
    return snap;
}

double
Snapshot::wallTotalRoots() const
{
    double t = 0.0;
    for (const ZoneStats &z : zones)
        if (z.depth == 0)
            t += z.wallTotal;
    return t;
}

double
Snapshot::wallSelfSum() const
{
    double t = 0.0;
    for (const ZoneStats &z : zones)
        t += z.wallSelf;
    return t;
}

double
Snapshot::selfSumDrift() const
{
    return std::abs(wallSelfSum() - wallTotalRoots());
}

std::string
table(const Snapshot &snap)
{
    std::string out;
    if (snap.zones.empty())
        return "prof: no zones recorded (run with profiling "
               "enabled?)\n";
    out += strfmt("%-34s %10s %12s %12s %12s %12s\n", "zone",
                  "calls", "wall ms", "self ms", "cpu-self ms",
                  "max us");
    for (const ZoneStats &z : snap.zones) {
        std::string label(size_t(2 * z.depth), ' ');
        label += z.name;
        out += strfmt("%-34s %10llu %12.3f %12.3f %12.3f %12.1f\n",
                      label.c_str(),
                      (unsigned long long)z.count,
                      z.wallTotal * 1e3, z.wallSelf * 1e3,
                      z.cpuSelf * 1e3, z.wallMax * 1e6);
    }
    // No thread count here: the merged table stays byte-identical
    // across runReplicas() widths (prof.threads carries the count).
    out += strfmt("total (roots) %.6f ms, self-sum drift %.3g s\n",
                  snap.wallTotalRoots() * 1e3, snap.selfSumDrift());
    return out;
}

std::string
folded(const Snapshot &snap)
{
    std::string out;
    for (const ZoneStats &z : snap.zones) {
        const long long us = llround(z.wallSelf * 1e6);
        if (us <= 0)
            continue;
        out += strfmt("%s %lld\n", z.path.c_str(), us);
    }
    return out;
}

} // namespace mobius::prof

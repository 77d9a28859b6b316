#include "solver/mip.hh"

#include <chrono>
#include <cmath>
#include <vector>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

namespace
{

constexpr double kIntegralityTol = 1e-6; //!< "is integer" tolerance
constexpr double kGapTol = 1e-9;         //!< absolute pruning slack

/** One branch-and-bound node: bound overrides for the LP. */
struct Node
{
    std::vector<double> lower;
    std::vector<double> upper;
};

} // namespace

std::string
mipStatusName(MipSolution::Status status)
{
    switch (status) {
      case MipSolution::Status::Optimal:    return "optimal";
      case MipSolution::Status::Feasible:   return "feasible";
      case MipSolution::Status::Infeasible: return "infeasible";
      case MipSolution::Status::Unbounded:  return "unbounded";
      case MipSolution::Status::NodeLimit:  return "node_limit";
    }
    return "?";
}

MipSolution
solveMip(const MipProblem &problem, const MipOptions &options)
{
    MipSolution best;
    const int nv = problem.lp.numVars;
    if (static_cast<int>(problem.integer.size()) != nv)
        panic("MIP integrality marks inconsistent with numVars");

    const auto t0 = std::chrono::steady_clock::now();
    auto out_of_time = [&] {
        if (options.timeLimitSeconds <= 0.0)
            return false;
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        return dt.count() >= options.timeLimitSeconds;
    };

    BoundedSimplex simplex(problem.lp);
    bool have_incumbent = false;
    bool exhausted = true;

    auto accept = [&](const LpSolution &lp) {
        if (have_incumbent &&
            lp.objective >= best.objective - kGapTol) {
            return;
        }
        have_incumbent = true;
        best.objective = lp.objective;
        best.x = lp.x;
        for (int j = 0; j < nv; ++j) {
            if (problem.integer[j])
                best.x[j] = std::round(best.x[j]);
        }
    };

    // Incumbent seeding: fix the integer variables to the caller's
    // start point and let an LP fill in the continuous ones. If that
    // LP is feasible we have an incumbent before the first node, so
    // the bound test prunes from the start. The solve also leaves an
    // optimal basis behind for the root node to warm-start from.
    if (!options.start.empty()) {
        if (static_cast<int>(options.start.size()) != nv)
            panic("MIP start point inconsistent with numVars");
        std::vector<double> lo = problem.lp.lower;
        std::vector<double> up = problem.lp.upper;
        bool in_box = true;
        for (int j = 0; j < nv; ++j) {
            if (!problem.integer[j])
                continue;
            const double v = std::round(options.start[j]);
            if (v < lo[j] - kIntegralityTol ||
                v > up[j] + kIntegralityTol) {
                in_box = false;
                break;
            }
            lo[j] = v;
            up[j] = v;
        }
        if (in_box) {
            simplex.setBounds(lo, up);
            LpSolution seed = simplex.solveCold();
            best.lpPivots += seed.pivots;
            ++best.lpColdSolves;
            if (seed.ok())
                accept(seed);
        }
    }

    std::vector<Node> stack;
    stack.push_back(Node{problem.lp.lower, problem.lp.upper});

    while (!stack.empty()) {
        MOBIUS_PROF_ZONE("solver.mip_node");
        if (best.nodesExplored >= options.maxNodes || out_of_time()) {
            exhausted = false;
            break;
        }
        Node node = std::move(stack.back());
        stack.pop_back();
        ++best.nodesExplored;

        simplex.setBounds(node.lower, node.upper);
        LpSolution lp;
        if (options.warmStart && simplex.hasBasis()) {
            const std::uint64_t before = simplex.coldFallbacks();
            lp = simplex.solveWarm();
            if (simplex.coldFallbacks() > before)
                ++best.lpColdSolves;
            else
                ++best.lpWarmSolves;
        } else {
            lp = simplex.solveCold();
            ++best.lpColdSolves;
        }
        best.lpPivots += lp.pivots;

        if (lp.status == LpSolution::Status::Infeasible)
            continue;
        if (lp.status == LpSolution::Status::Unbounded) {
            // An unbounded relaxation at the root means the MIP is
            // unbounded (or needs bounds we don't have).
            best.status = MipSolution::Status::Unbounded;
            return best;
        }
        if (have_incumbent &&
            lp.objective >= best.objective - kGapTol) {
            continue; // bound: cannot beat the incumbent
        }

        // Find the most fractional integer variable.
        int branch_var = -1;
        double branch_frac = 0.0;
        for (int j = 0; j < nv; ++j) {
            if (!problem.integer[j])
                continue;
            double v = lp.x[j];
            double frac = v - std::floor(v);
            double dist = std::min(frac, 1.0 - frac);
            if (dist > kIntegralityTol && dist > branch_frac) {
                branch_var = j;
                branch_frac = dist;
            }
        }

        if (branch_var < 0) {
            // Integral: candidate incumbent.
            accept(lp);
            continue;
        }

        double v = lp.x[branch_var];
        double fl = std::floor(v);

        // Push the "up" branch first so the "down" branch (often the
        // cheaper one for minimisation) is explored first (LIFO).
        Node up = node;
        up.lower[branch_var] = fl + 1.0;
        if (up.lower[branch_var] <= up.upper[branch_var] + 1e-12)
            stack.push_back(std::move(up));

        Node down = std::move(node);
        down.upper[branch_var] = fl;
        if (down.lower[branch_var] <= down.upper[branch_var] + 1e-12)
            stack.push_back(std::move(down));
    }

    if (!have_incumbent) {
        best.status = exhausted ? MipSolution::Status::Infeasible
                                : MipSolution::Status::NodeLimit;
        return best;
    }
    best.status = exhausted ? MipSolution::Status::Optimal
                            : MipSolution::Status::Feasible;
    return best;
}

} // namespace mobius

/**
 * @file
 * Branch-and-bound mixed-integer programming on top of the simplex LP
 * solver — the in-tree replacement for the Gurobi dependency of the
 * paper's §3.2.
 *
 * Any subset of variables can be marked integer; branching is on the
 * most fractional integer variable; nodes are explored depth-first
 * (smaller branch first) and pruned against the incumbent.
 *
 * The search keeps one BoundedSimplex alive across all nodes: a child
 * node differs from its parent only in variable bounds, so each node
 * re-enters the solver warm from the previous basis (dual-simplex
 * repair) instead of re-running phase 1 with artificial variables.
 * Callers may also seed the incumbent from a known-good integer point
 * (see MipOptions::start) so pruning bites from the first node.
 */

#ifndef MOBIUS_SOLVER_MIP_HH
#define MOBIUS_SOLVER_MIP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "solver/lp.hh"

namespace mobius
{

/** A MIP: an LP plus integrality marks. */
struct MipProblem
{
    LpProblem lp;               //!< the relaxation
    std::vector<bool> integer;  //!< size lp.numVars

    /** @return index of a fresh integer variable. */
    int
    addIntVar(double coeff, double lb, double ub)
    {
        int idx = lp.addVar(coeff, lb, ub);
        integer.resize(static_cast<std::size_t>(lp.numVars), false);
        integer[idx] = true;
        return idx;
    }

    /** @return index of a fresh binary variable. */
    int addBoolVar(double coeff) { return addIntVar(coeff, 0.0, 1.0); }

    /** @return index of a fresh continuous variable. */
    int
    addVar(double coeff, double lb = 0.0, double ub = kLpInf)
    {
        int idx = lp.addVar(coeff, lb, ub);
        integer.resize(static_cast<std::size_t>(lp.numVars), false);
        return idx;
    }
};

/** Branch-and-bound options. */
struct MipOptions
{
    std::uint64_t maxNodes = 200000;  //!< search budget
    /** Wall-clock budget in seconds; 0 = unlimited. When it expires
     * the best incumbent so far is returned (Status::Feasible), or
     * Status::NodeLimit if none was found. */
    double timeLimitSeconds = 0.0;
    /** Worker threads for callers that sweep independent solves
     * (e.g. exactMipPartition's stage-count loop); 0 = one per
     * hardware core. solveMip() itself is single-threaded. */
    int threads = 1;
    /** Re-enter each node's LP warm from the previous basis. Off is
     * only useful for A/B testing; results are identical. */
    bool warmStart = true;
    /** Optional incumbent seed: values for the *integer* variables
     * of a known feasible point (continuous entries are ignored and
     * recomputed by an LP). Empty = no seed. */
    std::vector<double> start;
};

/** Outcome of a MIP solve. */
struct MipSolution
{
    enum class Status
    {
        Optimal,      //!< proven optimal
        Feasible,     //!< budget hit; best incumbent returned
        Infeasible,   //!< no integral point exists
        Unbounded,    //!< relaxation unbounded at the root
        NodeLimit,    //!< budget exhausted before any incumbent
    };

    Status status = Status::Infeasible; //!< solve outcome
    double objective = 0.0;          //!< incumbent objective
    std::vector<double> x;           //!< incumbent point
    std::uint64_t nodesExplored = 0; //!< B&B nodes expanded
    std::uint64_t lpPivots = 0;  //!< simplex pivots over all nodes
    std::uint64_t lpWarmSolves = 0; //!< nodes solved warm
    std::uint64_t lpColdSolves = 0; //!< cold solves incl. fallbacks

    /** @return true when a feasible integral point was found. */
    bool
    ok() const
    {
        return status == Status::Optimal ||
            status == Status::Feasible;
    }
};

/** Solve @p problem by branch and bound. */
MipSolution solveMip(const MipProblem &problem,
                     const MipOptions &options = {});

/** @return printable name of a MIP solution status. */
std::string mipStatusName(MipSolution::Status status);

} // namespace mobius

#endif // MOBIUS_SOLVER_MIP_HH

/**
 * @file
 * A dense bounded-variable simplex LP solver.
 *
 * The paper solves its partition MIP with Gurobi (§3.2). This module
 * is the from-scratch replacement: an LP solver used as the
 * relaxation engine of the branch-and-bound MIP in solver/mip.hh.
 *
 * Problems are given in the general form
 *     minimize    c^T x
 *     subject to  a_i^T x (<= | = | >=) b_i      for each row i
 *                 lb_j <= x_j <= ub_j            for each variable j
 * with lb defaulting to 0 and ub to +infinity.
 *
 * Unlike the original two-phase implementation (kept as the oracle in
 * lp_reference.hh), variable bounds are handled natively: a nonbasic
 * variable rests at its lower or upper bound and may "flip" across
 * its box without a basis change, so finite upper bounds cost zero
 * extra rows. Pricing is Dantzig (most negative reduced cost) with an
 * automatic switch to Bland's rule after a degeneracy stall, which
 * keeps the common case fast and termination guaranteed. Artificial
 * columns are excluded from pricing after phase 1 (no big-M penalty).
 *
 * BoundedSimplex additionally supports warm re-solves after bound
 * changes — the branch-and-bound workhorse: the previous optimal
 * basis stays dual feasible when only bounds move, so a short dual
 * simplex repair reaches the new optimum in a handful of pivots
 * instead of a full phase-1/phase-2 solve.
 */

#ifndef MOBIUS_SOLVER_LP_HH
#define MOBIUS_SOLVER_LP_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace mobius
{

/** Unbounded-variable sentinel for LP bounds. */
constexpr double kLpInf = std::numeric_limits<double>::infinity();

/** Constraint sense. */
enum class Sense { Le, Ge, Eq };

/** One linear constraint: sparse coefficients, sense, rhs. */
struct LpRow
{
    std::vector<std::pair<int, double>> coeffs; //!< (var, coeff) pairs
    Sense sense = Sense::Le; //!< constraint sense
    double rhs = 0.0;        //!< right-hand side
};

/** An LP in general form. */
struct LpProblem
{
    int numVars = 0;                //!< number of variables
    std::vector<double> objective;  //!< c, size numVars
    std::vector<LpRow> rows;        //!< the constraints
    std::vector<double> lower;      //!< size numVars (default 0)
    std::vector<double> upper;      //!< size numVars (default +inf)

    /** @return index of a fresh variable with bounds [lb, ub]. */
    int addVar(double coeff, double lb = 0.0, double ub = kLpInf);

    /** Append a constraint. */
    void addRow(std::vector<std::pair<int, double>> coeffs,
                Sense sense, double rhs);
};

/** Outcome of an LP solve. */
struct LpSolution
{
    /** Solve outcome kinds. */
    enum class Status { Optimal, Infeasible, Unbounded };

    Status status = Status::Infeasible; //!< solve outcome
    double objective = 0.0;    //!< optimal objective when ok()
    std::vector<double> x;     //!< optimal point when ok()
    std::uint64_t pivots = 0;  //!< simplex pivots performed

    /** @return true when an optimal point was found. */
    bool ok() const { return status == Status::Optimal; }
};

/**
 * A reusable bounded-variable simplex over one constraint matrix.
 *
 * The matrix (rows + slack columns + artificial slots) is
 * standardised once at construction; variable bounds may then be
 * changed between solves. solveCold() runs phase 1 (artificials) +
 * phase 2 from scratch; solveWarm() re-enters from the previous
 * final basis with a dual-simplex repair, falling back to a cold
 * solve when the repair stalls. This is what makes branch-and-bound
 * cheap: a child node differs from its parent by one bound.
 */
class BoundedSimplex
{
  public:
    /** Standardise @p problem (coefficients and rhs are copied). */
    explicit BoundedSimplex(const LpProblem &problem);
    ~BoundedSimplex();

    BoundedSimplex(const BoundedSimplex &) = delete;
    BoundedSimplex &operator=(const BoundedSimplex &) = delete;

    /** Replace the structural variable bounds (size numVars). */
    void setBounds(const std::vector<double> &lower,
                   const std::vector<double> &upper);

    /** Solve from scratch (phase 1 + phase 2). */
    LpSolution solveCold();

    /**
     * Re-solve after a bounds change, starting from the last basis.
     * Falls back to solveCold() when no basis exists yet or the
     * dual repair exceeds its pivot budget.
     */
    LpSolution solveWarm();

    /** @return true once any solve has established a basis. */
    bool hasBasis() const;

    /** @return warm solves that had to restart cold. */
    std::uint64_t coldFallbacks() const;

  private:
    struct Impl;
    Impl *impl_;
};

/** Solve @p problem with the bounded-variable simplex. */
LpSolution solveLp(const LpProblem &problem);

} // namespace mobius

#endif // MOBIUS_SOLVER_LP_HH

/**
 * @file
 * The original dense two-phase tableau simplex, kept as a slow
 * reference oracle (test-only).
 *
 * This is the pre-optimisation LP solver: Bland's rule throughout,
 * every finite upper bound lowered into an explicit Le row, free
 * variables split into positive/negative parts, and artificial
 * columns suppressed after phase 1 with a big-M objective penalty.
 * The production solver (solver/lp.hh) replaced all of that with a
 * bounded-variable simplex; this copy exists so that
 *
 *  - randomized tests can cross-check the new solver's objectives
 *    against an independent implementation, and
 *  - bench_solver can measure the pivot/wall-clock gap between the
 *    pre-change and current solvers on the same instances.
 *
 * Do not use it on a hot path, and do not "fix" its known slowness
 * (that is the point of keeping it).
 */

#ifndef MOBIUS_TESTS_LP_REFERENCE_HH
#define MOBIUS_TESTS_LP_REFERENCE_HH

#include "solver/lp.hh"

namespace mobius
{

/**
 * Solve @p problem with the historical two-phase Bland simplex.
 *
 * @param maxPivots optional pivot budget, 0 = unlimited (the
 *     historical behaviour). Bland's rule on large degenerate
 *     instances can need hours, so bench_solver bounds its legacy
 *     runs; an exhausted budget aborts the solve with
 *     Status::Infeasible (i.e. !ok()) and pivots >= maxPivots, which
 *     is how a budgeted caller tells "unresolved" from a genuine
 *     infeasibility proof.
 */
LpSolution solveLpReference(const LpProblem &problem,
                            std::uint64_t maxPivots = 0);

} // namespace mobius

#endif // MOBIUS_TESTS_LP_REFERENCE_HH

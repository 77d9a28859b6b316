#include "solver/lp.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "obs/prof.hh"

namespace mobius
{

int
LpProblem::addVar(double coeff, double lb, double ub)
{
    objective.push_back(coeff);
    lower.push_back(lb);
    upper.push_back(ub);
    return numVars++;
}

void
LpProblem::addRow(std::vector<std::pair<int, double>> coeffs,
                  Sense sense, double rhs)
{
    rows.push_back(LpRow{std::move(coeffs), sense, rhs});
}

namespace
{

constexpr double kEps = 1e-9;      //!< pivot / eligibility tolerance
constexpr double kRatioEps = 1e-9; //!< ratio-test tie tolerance
constexpr double kFeasTol = 1e-7;  //!< primal bound-violation tolerance
constexpr double kDualTol = 1e-7;  //!< dual-feasibility check tolerance
/** Consecutive degenerate pivots before Dantzig pricing yields to
 * Bland's rule (reset on any strict improvement). */
constexpr int kStallThreshold = 64;

/** Where a variable currently lives. */
enum class VStat : std::int8_t { AtLower, AtUpper, Free, Basic };

/** Internal iteration outcome. */
enum class Iter { Optimal, Unbounded, Infeasible, PivotLimit };

} // namespace

/**
 * The dense tableau state. Column layout:
 *     [0, nv)            structural variables
 *     [nv, nv+ns)        slack/surplus (one per Le/Ge row)
 *     [nv+ns, nv+ns+m)   artificial slots (row i owns column
 *                        nv+ns+i; bounds [0,0] outside phase 1)
 * plus a trailing B^{-1}b column at index ncols. Nonbasic variables
 * rest at a bound (VStat); basic values are tracked in xb_ and
 * updated incrementally, so bounds can change without rebuilding.
 */
struct BoundedSimplex::Impl
{
    int nv_ = 0, ns_ = 0, m_ = 0, ncols_ = 0;

    std::vector<double> orig_;     //!< m x nv pristine structural A
    std::vector<double> b_;        //!< pristine rhs
    std::vector<Sense> sense_;     //!< per-row sense
    std::vector<int> slackCol_;    //!< per-row slack column or -1
    std::vector<double> slackCoef_; //!< +1 (Le) or -1 (Ge)
    std::vector<double> c2_;       //!< phase-2 cost, size ncols

    std::vector<double> lo_, up_;  //!< bounds, size ncols
    std::vector<double> a_;        //!< tableau, m x (ncols+1)
    std::vector<int> basis_;       //!< row -> basic column
    std::vector<VStat> stat_;      //!< per-column status
    std::vector<double> xb_;       //!< basic values, size m
    std::vector<bool> artUsed_;    //!< artificial active this solve

    bool hasBasis_ = false;
    std::uint64_t pivots_ = 0;         //!< cumulative, incl. flips
    std::uint64_t pivotsThisSolve_ = 0;
    std::uint64_t coldFallbacks_ = 0;

    std::vector<std::pair<int, double>> nzrows_; //!< pricing scratch

    explicit Impl(const LpProblem &p);

    double *row(int i) { return &a_[static_cast<std::size_t>(i) *
                                    (ncols_ + 1)]; }
    bool isArt(int j) const { return j >= nv_ + ns_; }

    bool
    isFixed(int j) const
    {
        return std::isfinite(lo_[j]) && std::isfinite(up_[j]) &&
            up_[j] - lo_[j] <= kEps;
    }

    double
    nbValue(int j) const
    {
        switch (stat_[j]) {
          case VStat::AtLower: return lo_[j];
          case VStat::AtUpper: return up_[j];
          case VStat::Free:    return 0.0;
          case VStat::Basic:   break;
        }
        panic("nbValue on basic column");
        return 0.0;
    }

    bool
    boxEmpty() const
    {
        for (int j = 0; j < nv_; ++j) {
            if (lo_[j] > up_[j] + kEps)
                return true;
        }
        return false;
    }

    void normalizeSides();
    void computeBasicValues();
    bool dualFeasible();
    void negateRow(int i);
    void pivotRows(int r, int c);
    void exchange(int r, int c, double enter_val, VStat leave_stat);
    bool initBasis();
    Iter primal(const std::vector<double> &c);
    Iter dual(std::uint64_t cap);
    LpSolution extract();
    LpSolution coldInner();
    LpSolution warmInner();
};

BoundedSimplex::Impl::Impl(const LpProblem &p)
{
    nv_ = p.numVars;
    if (static_cast<int>(p.objective.size()) != nv_ ||
        static_cast<int>(p.lower.size()) != nv_ ||
        static_cast<int>(p.upper.size()) != nv_) {
        panic("LP problem arrays inconsistent with numVars");
    }
    m_ = static_cast<int>(p.rows.size());
    ns_ = 0;
    for (const auto &r : p.rows) {
        if (r.sense != Sense::Eq)
            ++ns_;
    }
    ncols_ = nv_ + ns_ + m_;

    orig_.assign(static_cast<std::size_t>(m_) * nv_, 0.0);
    b_.resize(static_cast<std::size_t>(m_));
    sense_.resize(static_cast<std::size_t>(m_));
    slackCol_.assign(static_cast<std::size_t>(m_), -1);
    slackCoef_.assign(static_cast<std::size_t>(m_), 0.0);
    int slack = nv_;
    for (int i = 0; i < m_; ++i) {
        const LpRow &r = p.rows[i];
        for (const auto &[j, v] : r.coeffs) {
            if (j < 0 || j >= nv_)
                panic("LP row references variable %d", j);
            orig_[static_cast<std::size_t>(i) * nv_ + j] += v;
        }
        b_[i] = r.rhs;
        sense_[i] = r.sense;
        if (r.sense != Sense::Eq) {
            slackCol_[i] = slack++;
            slackCoef_[i] = r.sense == Sense::Le ? 1.0 : -1.0;
        }
    }

    c2_.assign(static_cast<std::size_t>(ncols_), 0.0);
    lo_.assign(static_cast<std::size_t>(ncols_), 0.0);
    up_.assign(static_cast<std::size_t>(ncols_), 0.0);
    for (int j = 0; j < nv_; ++j) {
        c2_[j] = p.objective[j];
        lo_[j] = p.lower[j];
        up_[j] = p.upper[j];
    }
    for (int j = nv_; j < nv_ + ns_; ++j)
        up_[j] = kLpInf; // slacks in [0, inf)
    // Artificials stay pinned at [0, 0] outside phase 1.

    a_.assign(static_cast<std::size_t>(m_) * (ncols_ + 1), 0.0);
    basis_.assign(static_cast<std::size_t>(m_), -1);
    stat_.assign(static_cast<std::size_t>(ncols_), VStat::AtLower);
    xb_.assign(static_cast<std::size_t>(m_), 0.0);
    artUsed_.assign(static_cast<std::size_t>(m_), false);
}

void
BoundedSimplex::Impl::normalizeSides()
{
    // Keep each nonbasic structural on a side that still exists
    // after a bounds change (warm-start continuity elsewhere).
    for (int j = 0; j < nv_; ++j) {
        if (stat_[j] == VStat::Basic)
            continue;
        bool lf = std::isfinite(lo_[j]);
        bool uf = std::isfinite(up_[j]);
        if (!lf && !uf)
            stat_[j] = VStat::Free;
        else if (stat_[j] == VStat::AtUpper && uf)
            continue;
        else if (stat_[j] == VStat::AtLower && lf)
            continue;
        else
            stat_[j] = lf ? VStat::AtLower : VStat::AtUpper;
    }
}

void
BoundedSimplex::Impl::computeBasicValues()
{
    for (int i = 0; i < m_; ++i)
        xb_[i] = row(i)[ncols_];
    for (int j = 0; j < ncols_; ++j) {
        if (stat_[j] == VStat::Basic)
            continue;
        double v = nbValue(j);
        if (v == 0.0)
            continue;
        for (int i = 0; i < m_; ++i) {
            double aij = row(i)[j];
            if (aij != 0.0)
                xb_[i] -= aij * v;
        }
    }
}

bool
BoundedSimplex::Impl::dualFeasible()
{
    nzrows_.clear();
    for (int i = 0; i < m_; ++i) {
        double cb = c2_[basis_[i]];
        if (cb != 0.0)
            nzrows_.push_back({i, cb});
    }
    for (int j = 0; j < ncols_; ++j) {
        if (stat_[j] == VStat::Basic || isArt(j) || isFixed(j))
            continue;
        double d = c2_[j];
        for (const auto &[i, cb] : nzrows_)
            d -= cb * row(i)[j];
        switch (stat_[j]) {
          case VStat::AtLower:
            if (d < -kDualTol)
                return false;
            break;
          case VStat::AtUpper:
            if (d > kDualTol)
                return false;
            break;
          case VStat::Free:
            if (std::fabs(d) > kDualTol)
                return false;
            break;
          case VStat::Basic:
            break;
        }
    }
    return true;
}

void
BoundedSimplex::Impl::negateRow(int i)
{
    double *r = row(i);
    for (int j = 0; j <= ncols_; ++j)
        r[j] = -r[j];
}

void
BoundedSimplex::Impl::pivotRows(int r, int c)
{
    ++pivots_;
    ++pivotsThisSolve_;
    double *pr = row(r);
    const double inv = 1.0 / pr[c];
    for (int j = 0; j <= ncols_; ++j)
        pr[j] *= inv;
    pr[c] = 1.0;
    for (int i = 0; i < m_; ++i) {
        if (i == r)
            continue;
        double *ri = row(i);
        const double f = ri[c];
        if (std::fabs(f) < kEps) {
            ri[c] = 0.0;
            continue;
        }
        for (int j = 0; j <= ncols_; ++j)
            ri[j] -= f * pr[j];
        ri[c] = 0.0;
    }
}

void
BoundedSimplex::Impl::exchange(int r, int c, double enter_val,
                               VStat leave_stat)
{
    stat_[basis_[r]] = leave_stat;
    pivotRows(r, c);
    basis_[r] = c;
    stat_[c] = VStat::Basic;
    xb_[r] = enter_val;
}

bool
BoundedSimplex::Impl::initBasis()
{
    // Rebuild the tableau from the pristine matrix and pick a basis:
    // the row's slack when its start value is feasible, otherwise an
    // artificial oriented so it starts nonnegative.
    for (int j = nv_ + ns_; j < ncols_; ++j) {
        lo_[j] = 0.0;
        up_[j] = 0.0;
    }
    for (int j = 0; j < nv_; ++j) {
        if (std::isfinite(lo_[j]))
            stat_[j] = VStat::AtLower;
        else if (std::isfinite(up_[j]))
            stat_[j] = VStat::AtUpper;
        else
            stat_[j] = VStat::Free;
    }
    for (int j = nv_; j < ncols_; ++j)
        stat_[j] = VStat::AtLower;
    std::fill(artUsed_.begin(), artUsed_.end(), false);

    bool any_art = false;
    for (int i = 0; i < m_; ++i) {
        double *r = row(i);
        std::fill(r, r + ncols_ + 1, 0.0);
        for (int j = 0; j < nv_; ++j)
            r[j] = orig_[static_cast<std::size_t>(i) * nv_ + j];
        if (slackCol_[i] >= 0)
            r[slackCol_[i]] = slackCoef_[i];
        r[ncols_] = b_[i];

        double act = 0.0;
        for (int j = 0; j < nv_; ++j) {
            if (r[j] != 0.0)
                act += r[j] * nbValue(j);
        }
        const double resid = b_[i] - act;
        if (sense_[i] == Sense::Le && resid >= -kFeasTol) {
            basis_[i] = slackCol_[i];
            stat_[slackCol_[i]] = VStat::Basic;
            xb_[i] = std::max(resid, 0.0);
            continue;
        }
        if (sense_[i] == Sense::Ge && -resid >= -kFeasTol) {
            negateRow(i); // surplus coefficient becomes +1
            basis_[i] = slackCol_[i];
            stat_[slackCol_[i]] = VStat::Basic;
            xb_[i] = std::max(-resid, 0.0);
            continue;
        }
        if (resid < 0.0)
            negateRow(i);
        const int art = nv_ + ns_ + i;
        row(i)[art] = 1.0;
        up_[art] = kLpInf;
        basis_[i] = art;
        stat_[art] = VStat::Basic;
        xb_[i] = std::fabs(resid);
        artUsed_[i] = true;
        any_art = true;
    }
    return any_art;
}

Iter
BoundedSimplex::Impl::primal(const std::vector<double> &c)
{
    bool bland = false;
    int stall = 0;
    while (true) {
        // Rows whose basic variable is costed: the reduced-cost
        // inner product only runs over these (in the partition LP
        // that is typically a single row).
        nzrows_.clear();
        for (int i = 0; i < m_; ++i) {
            double cb = c[basis_[i]];
            if (cb != 0.0)
                nzrows_.push_back({i, cb});
        }

        int enter = -1, dir = 0;
        double enter_d = 0.0;
        double best = kEps;
        for (int j = 0; j < ncols_; ++j) {
            if (stat_[j] == VStat::Basic || isArt(j) || isFixed(j))
                continue;
            double d = c[j];
            for (const auto &[i, cb] : nzrows_)
                d -= cb * row(i)[j];
            int dd = 0;
            switch (stat_[j]) {
              case VStat::AtLower:
                if (d < -kEps)
                    dd = 1;
                break;
              case VStat::AtUpper:
                if (d > kEps)
                    dd = -1;
                break;
              case VStat::Free:
                if (std::fabs(d) > kEps)
                    dd = d < 0.0 ? 1 : -1;
                break;
              case VStat::Basic:
                break;
            }
            if (!dd)
                continue;
            if (bland) {
                enter = j;
                dir = dd;
                enter_d = d;
                break; // Bland: first eligible column
            }
            if (std::fabs(d) > best) { // Dantzig: steepest cost
                best = std::fabs(d);
                enter = j;
                dir = dd;
                enter_d = d;
            }
        }
        if (enter < 0)
            return Iter::Optimal;

        // Ratio test: smallest step among basic-variable bound hits
        // and the entering variable's own bound-to-bound flip.
        double t_best = kLpInf;
        if (std::isfinite(lo_[enter]) && std::isfinite(up_[enter]))
            t_best = up_[enter] - lo_[enter];
        int leave = -1;
        VStat leave_stat = VStat::AtLower;
        for (int i = 0; i < m_; ++i) {
            const double alpha = dir * row(i)[enter];
            const int bj = basis_[i];
            double t;
            VStat hs;
            if (alpha > kEps) {
                if (!std::isfinite(lo_[bj]))
                    continue;
                t = (xb_[i] - lo_[bj]) / alpha;
                hs = VStat::AtLower;
            } else if (alpha < -kEps) {
                if (!std::isfinite(up_[bj]))
                    continue;
                t = (up_[bj] - xb_[i]) / (-alpha);
                hs = VStat::AtUpper;
            } else {
                continue;
            }
            if (t < 0.0)
                t = 0.0; // tolerance noise
            bool better;
            if (t < t_best - kRatioEps) {
                better = true;
            } else if (t <= t_best + kRatioEps && leave >= 0) {
                // Tie between rows: Bland mode breaks by smallest
                // basic index (termination), Dantzig mode by larger
                // pivot magnitude (stability).
                better = bland
                    ? bj < basis_[leave]
                    : std::fabs(alpha) >
                          std::fabs(row(leave)[enter]);
            } else {
                better = false; // flip wins ties: no pivot needed
            }
            if (better) {
                t_best = t;
                leave = i;
                leave_stat = hs;
            }
        }
        if (!std::isfinite(t_best))
            return Iter::Unbounded;

        if (leave < 0) {
            // Bound flip: the entering variable crosses its box.
            ++pivots_;
            ++pivotsThisSolve_;
            for (int i = 0; i < m_; ++i) {
                double aie = row(i)[enter];
                if (aie != 0.0)
                    xb_[i] -= t_best * dir * aie;
            }
            stat_[enter] = stat_[enter] == VStat::AtLower
                ? VStat::AtUpper
                : VStat::AtLower;
        } else {
            const double enter_val = nbValue(enter) + dir * t_best;
            for (int i = 0; i < m_; ++i) {
                if (i == leave)
                    continue;
                double aie = row(i)[enter];
                if (aie != 0.0)
                    xb_[i] -= t_best * dir * aie;
            }
            exchange(leave, enter, enter_val, leave_stat);
        }

        if (std::fabs(enter_d) * t_best > 1e-12) {
            stall = 0;
            bland = false; // progress: back to Dantzig
        } else if (++stall >= kStallThreshold) {
            bland = true; // degeneracy stall: termination first
        }
    }
}

Iter
BoundedSimplex::Impl::dual(std::uint64_t cap)
{
    // Dual simplex repair: the basis is dual feasible (reduced costs
    // have optimal signs) but some basic variable violates a bound.
    // Each pivot drives one violating basic variable exactly onto
    // its bound while keeping dual feasibility via the min-ratio
    // entering rule.
    while (true) {
        if (cap && pivotsThisSolve_ >= cap)
            return Iter::PivotLimit;

        int r = -1, vdir = 0;
        double viol = kFeasTol;
        for (int i = 0; i < m_; ++i) {
            const int bj = basis_[i];
            if (std::isfinite(lo_[bj]) && lo_[bj] - xb_[i] > viol) {
                viol = lo_[bj] - xb_[i];
                r = i;
                vdir = 1;
            }
            if (std::isfinite(up_[bj]) && xb_[i] - up_[bj] > viol) {
                viol = xb_[i] - up_[bj];
                r = i;
                vdir = -1;
            }
        }
        if (r < 0)
            return Iter::Optimal; // primal feasible again

        nzrows_.clear();
        for (int i = 0; i < m_; ++i) {
            double cb = c2_[basis_[i]];
            if (cb != 0.0)
                nzrows_.push_back({i, cb});
        }

        const double target = vdir > 0 ? lo_[basis_[r]]
                                       : up_[basis_[r]];
        const double *rr = row(r);
        int enter = -1;
        double best_ratio = 0.0, enter_alpha = 0.0;
        for (int j = 0; j < ncols_; ++j) {
            if (stat_[j] == VStat::Basic || isArt(j) || isFixed(j))
                continue;
            const double alpha = rr[j];
            if (std::fabs(alpha) <= kEps)
                continue;
            // The pivot moves x_j by delta = (xb_r - target)/alpha;
            // the move must respect x_j's resting side.
            bool ok;
            switch (stat_[j]) {
              case VStat::AtLower: // delta >= 0
                ok = vdir > 0 ? alpha < 0.0 : alpha > 0.0;
                break;
              case VStat::AtUpper: // delta <= 0
                ok = vdir > 0 ? alpha > 0.0 : alpha < 0.0;
                break;
              default:
                ok = true; // free: either direction
                break;
            }
            if (!ok)
                continue;
            double d = c2_[j];
            for (const auto &[i, cb] : nzrows_)
                d -= cb * row(i)[j];
            const double ratio = std::fabs(d) / std::fabs(alpha);
            if (enter < 0 || ratio < best_ratio - kRatioEps ||
                (ratio <= best_ratio + kRatioEps &&
                 std::fabs(alpha) > std::fabs(enter_alpha))) {
                enter = j;
                best_ratio = ratio;
                enter_alpha = alpha;
            }
        }
        if (enter < 0) {
            // Dual unbounded: no entering column can mend the
            // violated row => the primal problem is infeasible.
            return Iter::Infeasible;
        }

        const double delta = (xb_[r] - target) / enter_alpha;
        const double enter_val = nbValue(enter) + delta;
        for (int i = 0; i < m_; ++i) {
            if (i == r)
                continue;
            double aie = row(i)[enter];
            if (aie != 0.0)
                xb_[i] -= delta * aie;
        }
        exchange(r, enter, enter_val,
                 vdir > 0 ? VStat::AtLower : VStat::AtUpper);
    }
}

LpSolution
BoundedSimplex::Impl::extract()
{
    LpSolution sol;
    sol.x.assign(static_cast<std::size_t>(nv_), 0.0);
    for (int j = 0; j < nv_; ++j) {
        if (stat_[j] != VStat::Basic)
            sol.x[j] = nbValue(j);
    }
    for (int i = 0; i < m_; ++i) {
        const int bj = basis_[i];
        if (bj < nv_) {
            double v = xb_[i];
            if (std::isfinite(lo_[bj]))
                v = std::max(v, lo_[bj]);
            if (std::isfinite(up_[bj]))
                v = std::min(v, up_[bj]);
            sol.x[bj] = v;
        }
    }
    sol.objective = 0.0;
    for (int j = 0; j < nv_; ++j)
        sol.objective += c2_[j] * sol.x[j];
    sol.status = LpSolution::Status::Optimal;
    return sol;
}

LpSolution
BoundedSimplex::Impl::coldInner()
{
    LpSolution sol;
    if (boxEmpty()) {
        sol.status = LpSolution::Status::Infeasible;
        return sol;
    }

    const bool any_art = initBasis();
    if (any_art) {
        std::vector<double> c1(static_cast<std::size_t>(ncols_),
                               0.0);
        for (int i = 0; i < m_; ++i) {
            if (artUsed_[i])
                c1[nv_ + ns_ + i] = 1.0;
        }
        Iter r = primal(c1);
        if (r != Iter::Optimal)
            panic("phase-1 LP unbounded (impossible)");
        double infeas = 0.0;
        for (int i = 0; i < m_; ++i) {
            if (isArt(basis_[i]))
                infeas += xb_[i];
        }
        // Pin artificials to zero for good: they are excluded from
        // pricing, and fixed bounds keep any basic leftovers at 0
        // through every later ratio test (no big-M needed).
        for (int j = nv_ + ns_; j < ncols_; ++j)
            up_[j] = 0.0;
        hasBasis_ = true;
        if (infeas > 1e-6) {
            sol.status = LpSolution::Status::Infeasible;
            return sol;
        }
        // Pivot degenerate artificials out where possible.
        for (int i = 0; i < m_; ++i) {
            if (!isArt(basis_[i]))
                continue;
            const double *ri = row(i);
            int enter = -1;
            for (int j = 0; j < nv_ + ns_; ++j) {
                if (stat_[j] != VStat::Basic &&
                    std::fabs(ri[j]) > kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter >= 0)
                exchange(i, enter, nbValue(enter), VStat::AtLower);
            // else: redundant row; the artificial stays basic at 0.
        }
    }
    hasBasis_ = true;

    Iter r = primal(c2_);
    if (r == Iter::Unbounded) {
        sol.status = LpSolution::Status::Unbounded;
        return sol;
    }
    return extract();
}

LpSolution
BoundedSimplex::Impl::warmInner()
{
    if (!hasBasis_) {
        ++coldFallbacks_;
        return coldInner();
    }
    LpSolution sol;
    if (boxEmpty()) {
        sol.status = LpSolution::Status::Infeasible;
        return sol;
    }
    computeBasicValues();
    if (!dualFeasible()) {
        // A previous phase-1 abort or drift: costs no longer carry
        // the optimal signs, so the dual repair would be unsound.
        ++coldFallbacks_;
        return coldInner();
    }
    // A repair that runs past its pivot budget restarts cold.
    Iter r = dual(20ULL * static_cast<std::uint64_t>(m_ + ncols_));
    if (r == Iter::PivotLimit) {
        ++coldFallbacks_;
        return coldInner();
    }
    if (r == Iter::Infeasible) {
        sol.status = LpSolution::Status::Infeasible;
        return sol;
    }
    // Polish: usually 0 pivots, but bound flips of nonbasic columns
    // can leave a profitable move behind.
    r = primal(c2_);
    if (r == Iter::Unbounded) {
        sol.status = LpSolution::Status::Unbounded;
        return sol;
    }
    return extract();
}

BoundedSimplex::BoundedSimplex(const LpProblem &problem)
    : impl_(new Impl(problem))
{}

BoundedSimplex::~BoundedSimplex() { delete impl_; }

void
BoundedSimplex::setBounds(const std::vector<double> &lower,
                          const std::vector<double> &upper)
{
    if (static_cast<int>(lower.size()) != impl_->nv_ ||
        static_cast<int>(upper.size()) != impl_->nv_) {
        panic("setBounds arrays inconsistent with numVars");
    }
    for (int j = 0; j < impl_->nv_; ++j) {
        impl_->lo_[j] = lower[j];
        impl_->up_[j] = upper[j];
    }
    impl_->normalizeSides();
}

LpSolution
BoundedSimplex::solveCold()
{
    // Per-solve, not per-pivot: a pivot is ~100ns and the zone pair
    // ~0.5us; pivot counts are already in solver.lp.* metrics.
    MOBIUS_PROF_ZONE("solver.lp_solve");
    const std::uint64_t before = impl_->pivots_;
    impl_->pivotsThisSolve_ = 0;
    LpSolution sol = impl_->coldInner();
    sol.pivots = impl_->pivots_ - before;
    return sol;
}

LpSolution
BoundedSimplex::solveWarm()
{
    MOBIUS_PROF_ZONE("solver.lp_solve");
    const std::uint64_t before = impl_->pivots_;
    impl_->pivotsThisSolve_ = 0;
    LpSolution sol = impl_->warmInner();
    sol.pivots = impl_->pivots_ - before;
    return sol;
}

bool
BoundedSimplex::hasBasis() const
{
    return impl_->hasBasis_;
}

std::uint64_t
BoundedSimplex::coldFallbacks() const
{
    return impl_->coldFallbacks_;
}

LpSolution
solveLp(const LpProblem &problem)
{
    BoundedSimplex simplex(problem);
    return simplex.solveCold();
}

} // namespace mobius

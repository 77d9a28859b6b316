#include "lp_reference.hh"

#include <cmath>

#include "base/logging.hh"

namespace mobius
{

namespace
{

constexpr double kEps = 1e-9;

/**
 * Dense tableau simplex over the standard form
 *     min c^T y  s.t.  T y = rhs,  y >= 0
 * built by the driver below. Uses Bland's rule, so it terminates.
 */
class RefTableau
{
  public:
    RefTableau(int rows, int cols, std::uint64_t budget)
        : m_(rows), n_(cols), budget_(budget),
          a_(static_cast<std::size_t>(rows),
             std::vector<double>(static_cast<std::size_t>(cols) + 1,
                                 0.0)),
          basis_(static_cast<std::size_t>(rows), -1)
    {}

    double &at(int r, int c) { return a_[r][c]; }
    double &rhs(int r) { return a_[r][n_]; }
    int basis(int r) const { return basis_[r]; }
    void setBasis(int r, int var) { basis_[r] = var; }

    /**
     * Run simplex iterations for objective @p c (size n_).
     * @return false if the LP is unbounded below.
     */
    bool
    optimize(const std::vector<double> &c)
    {
        // Reduced costs: z_j = c_j - c_B^T B^{-1} A_j, computed
        // directly on the (already basis-reduced) tableau.
        std::vector<double> red(static_cast<std::size_t>(n_));
        while (true) {
            if (exhausted())
                return true; // caller must check exhausted()
            for (int j = 0; j < n_; ++j) {
                double v = c[j];
                for (int r = 0; r < m_; ++r)
                    v -= c[basis_[r]] * a_[r][j];
                red[j] = v;
            }
            // Bland: first improving column.
            int enter = -1;
            for (int j = 0; j < n_; ++j) {
                if (red[j] < -kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter < 0)
                return true; // optimal

            // Ratio test, Bland tie-break by basis variable index.
            int leave = -1;
            double best = 0.0;
            for (int r = 0; r < m_; ++r) {
                if (a_[r][enter] > kEps) {
                    double ratio = a_[r][n_] / a_[r][enter];
                    if (leave < 0 || ratio < best - kEps ||
                        (std::fabs(ratio - best) <= kEps &&
                         basis_[r] < basis_[leave])) {
                        leave = r;
                        best = ratio;
                    }
                }
            }
            if (leave < 0)
                return false; // unbounded
            pivot(leave, enter);
        }
    }

    std::uint64_t pivots() const { return pivots_; }

    /** @return true when the optional pivot budget is spent. */
    bool
    exhausted() const
    {
        return budget_ != 0 && pivots_ >= budget_;
    }

    void
    pivot(int r, int c)
    {
        ++pivots_;
        double p = a_[r][c];
        for (int j = 0; j <= n_; ++j)
            a_[r][j] /= p;
        for (int i = 0; i < m_; ++i) {
            if (i == r)
                continue;
            double f = a_[i][c];
            if (std::fabs(f) < kEps)
                continue;
            for (int j = 0; j <= n_; ++j)
                a_[i][j] -= f * a_[r][j];
        }
        basis_[r] = c;
    }

    int m() const { return m_; }
    int n() const { return n_; }

  private:
    int m_, n_;
    std::uint64_t budget_ = 0;
    std::uint64_t pivots_ = 0;
    std::vector<std::vector<double>> a_;
    std::vector<int> basis_;
};

} // namespace

LpSolution
solveLpReference(const LpProblem &problem, std::uint64_t maxPivots)
{
    LpSolution sol;
    const int nv = problem.numVars;
    if (static_cast<int>(problem.objective.size()) != nv ||
        static_cast<int>(problem.lower.size()) != nv ||
        static_cast<int>(problem.upper.size()) != nv) {
        panic("LP problem arrays inconsistent with numVars");
    }

    // Quick bound sanity: empty box -> infeasible.
    for (int j = 0; j < nv; ++j) {
        if (problem.lower[j] > problem.upper[j] + kEps) {
            sol.status = LpSolution::Status::Infeasible;
            return sol;
        }
    }

    // --- Variable substitution into y >= 0 -------------------------
    // x_j = lb_j + y_j            when lb_j finite
    // x_j = y_j^+ - y_j^-         when lb_j = -inf (free below)
    // Finite upper bounds become extra Le rows on y.
    struct VarMap
    {
        int plus = -1;   //!< y index for +part
        int minus = -1;  //!< y index for -part (free vars only)
        double shift = 0.0;
    };
    std::vector<VarMap> vmap(static_cast<std::size_t>(nv));
    int ny = 0;
    for (int j = 0; j < nv; ++j) {
        if (std::isinf(problem.lower[j])) {
            vmap[j].plus = ny++;
            vmap[j].minus = ny++;
        } else {
            vmap[j].plus = ny++;
            vmap[j].shift = problem.lower[j];
        }
    }

    // Assemble rows in y-space: coeffs dense for simplicity.
    struct StdRow
    {
        std::vector<double> a;
        Sense sense;
        double rhs;
    };
    std::vector<StdRow> rows;
    auto convert_row = [&](const std::vector<std::pair<int, double>>
                               &coeffs,
                           Sense sense, double rhs) {
        StdRow r;
        r.a.assign(static_cast<std::size_t>(ny), 0.0);
        r.sense = sense;
        r.rhs = rhs;
        for (const auto &[j, v] : coeffs) {
            if (j < 0 || j >= nv)
                panic("LP row references variable %d", j);
            r.a[vmap[j].plus] += v;
            if (vmap[j].minus >= 0)
                r.a[vmap[j].minus] -= v;
            r.rhs -= v * vmap[j].shift;
        }
        rows.push_back(std::move(r));
    };

    for (const auto &row : problem.rows)
        convert_row(row.coeffs, row.sense, row.rhs);
    for (int j = 0; j < nv; ++j) {
        if (!std::isinf(problem.upper[j]))
            convert_row({{j, 1.0}}, Sense::Le, problem.upper[j]);
    }

    // Normalise rhs >= 0.
    for (auto &r : rows) {
        if (r.rhs < 0) {
            for (auto &v : r.a)
                v = -v;
            r.rhs = -r.rhs;
            if (r.sense == Sense::Le)
                r.sense = Sense::Ge;
            else if (r.sense == Sense::Ge)
                r.sense = Sense::Le;
        }
    }

    // Column layout: y (ny) | slacks/surplus (ns) | artificials (na).
    const int m = static_cast<int>(rows.size());
    int ns = 0, na = 0;
    for (const auto &r : rows) {
        if (r.sense != Sense::Eq)
            ++ns;
        if (r.sense != Sense::Le)
            ++na;
    }
    const int ncols = ny + ns + na;
    RefTableau tab(m, ncols, maxPivots);

    int slack = ny;
    int artificial = ny + ns;
    std::vector<int> artificial_cols;
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < ny; ++j)
            tab.at(i, j) = rows[i].a[j];
        tab.rhs(i) = rows[i].rhs;
        switch (rows[i].sense) {
          case Sense::Le:
            tab.at(i, slack) = 1.0;
            tab.setBasis(i, slack);
            ++slack;
            break;
          case Sense::Ge:
            tab.at(i, slack) = -1.0;
            ++slack;
            tab.at(i, artificial) = 1.0;
            tab.setBasis(i, artificial);
            artificial_cols.push_back(artificial);
            ++artificial;
            break;
          case Sense::Eq:
            tab.at(i, artificial) = 1.0;
            tab.setBasis(i, artificial);
            artificial_cols.push_back(artificial);
            ++artificial;
            break;
        }
    }

    // --- Phase 1 ----------------------------------------------------
    if (na > 0) {
        std::vector<double> c1(static_cast<std::size_t>(ncols), 0.0);
        for (int col : artificial_cols)
            c1[col] = 1.0;
        if (!tab.optimize(c1))
            panic("phase-1 LP unbounded (impossible)");
        if (tab.exhausted()) {
            sol.status = LpSolution::Status::Infeasible;
            sol.pivots = tab.pivots();
            return sol;
        }
        double infeas = 0.0;
        for (int i = 0; i < m; ++i) {
            for (int col : artificial_cols) {
                if (tab.basis(i) == col)
                    infeas += tab.rhs(i);
            }
        }
        if (infeas > 1e-6) {
            sol.status = LpSolution::Status::Infeasible;
            sol.pivots = tab.pivots();
            return sol;
        }
        // Pivot remaining (degenerate) artificials out of the basis.
        for (int i = 0; i < m; ++i) {
            bool is_art = tab.basis(i) >= ny + ns;
            if (!is_art)
                continue;
            int enter = -1;
            for (int j = 0; j < ny + ns; ++j) {
                if (std::fabs(tab.at(i, j)) > kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter >= 0)
                tab.pivot(i, enter);
            // else: the row is all-zero (redundant); leave it.
        }
    }

    // --- Phase 2 ----------------------------------------------------
    std::vector<double> c2(static_cast<std::size_t>(ncols), 0.0);
    double obj_shift = 0.0;
    for (int j = 0; j < nv; ++j) {
        c2[vmap[j].plus] += problem.objective[j];
        if (vmap[j].minus >= 0)
            c2[vmap[j].minus] -= problem.objective[j];
        obj_shift += problem.objective[j] * vmap[j].shift;
    }
    // Forbid artificials from re-entering (the historical big-M
    // penalty the production solver replaced with column exclusion).
    for (int col : artificial_cols)
        c2[col] = 1e18;

    if (!tab.optimize(c2)) {
        sol.status = LpSolution::Status::Unbounded;
        sol.pivots = tab.pivots();
        return sol;
    }
    if (tab.exhausted()) {
        sol.status = LpSolution::Status::Infeasible;
        sol.pivots = tab.pivots();
        return sol;
    }

    // --- Extract ----------------------------------------------------
    std::vector<double> y(static_cast<std::size_t>(ncols), 0.0);
    for (int i = 0; i < m; ++i) {
        if (tab.basis(i) >= 0)
            y[tab.basis(i)] = tab.rhs(i);
    }
    sol.x.resize(static_cast<std::size_t>(nv));
    for (int j = 0; j < nv; ++j) {
        double v = y[vmap[j].plus];
        if (vmap[j].minus >= 0)
            v -= y[vmap[j].minus];
        sol.x[j] = v + vmap[j].shift;
    }
    sol.objective = obj_shift;
    for (int j = 0; j < nv; ++j)
        sol.objective += problem.objective[j] *
            (sol.x[j] - vmap[j].shift);
    sol.pivots = tab.pivots();
    sol.status = LpSolution::Status::Optimal;
    return sol;
}

} // namespace mobius

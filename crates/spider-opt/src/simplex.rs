//! A dense, two-phase primal simplex solver for linear programs.
//!
//! This is the exact-LP substrate used to solve the paper's fluid-model
//! routing programs (eqs. (1)–(5), (6)–(11), (12)–(18)). The path-form LPs
//! are small (thousands of variables), so a dense tableau is simple and fast
//! enough; Bland's rule is engaged after a pivot budget to guarantee
//! termination under degeneracy.
//!
//! ```
//! use spider_opt::simplex::{LinearProgram, Relation, LpOutcome};
//! // maximize x + y  s.t.  x + 2y <= 4,  3x + y <= 6
//! let mut lp = LinearProgram::new(2);
//! lp.set_objective(&[(0, 1.0), (1, 1.0)]);
//! lp.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
//! lp.add_constraint(&[(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
//! match lp.solve() {
//!     LpOutcome::Optimal(sol) => {
//!         assert!((sol.objective - 2.8).abs() < 1e-9);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! ```

use std::fmt;

/// Relation of a linear constraint row to its right-hand side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `Σ a_j x_j ≤ b`
    Le,
    /// `Σ a_j x_j ≥ b`
    Ge,
    /// `Σ a_j x_j = b`
    Eq,
}

#[derive(Clone, Debug)]
struct Row {
    coeffs: Vec<(usize, f64)>,
    rel: Relation,
    rhs: f64,
}

/// A linear program `maximize c·x subject to rows, x ≥ 0`.
///
/// Variables are indexed `0..num_vars` and implicitly non-negative.
#[derive(Clone, Debug)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Vec<f64>,
    rows: Vec<Row>,
}

/// A primal solution.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal variable assignment.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
    /// Number of simplex pivots performed (both phases).
    pub pivots: usize,
}

/// Result of solving a [`LinearProgram`].
#[derive(Clone, Debug)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(LpSolution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
}

impl LpOutcome {
    /// Unwraps the optimal solution.
    ///
    /// # Panics
    /// Panics if the outcome is not [`LpOutcome::Optimal`].
    pub fn expect_optimal(self) -> LpSolution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal LP solution, got {other:?}"),
        }
    }
}

impl fmt::Display for LpOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpOutcome::Optimal(s) => write!(f, "optimal (objective {:.6})", s.objective),
            LpOutcome::Infeasible => write!(f, "infeasible"),
            LpOutcome::Unbounded => write!(f, "unbounded"),
        }
    }
}

const EPS: f64 = 1e-9;

impl LinearProgram {
    /// Creates an LP over `num_vars` non-negative variables with a zero
    /// objective and no constraints.
    pub fn new(num_vars: usize) -> Self {
        LinearProgram {
            num_vars,
            objective: vec![0.0; num_vars],
            rows: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Sets objective coefficients from sparse `(var, coeff)` pairs
    /// (unmentioned variables keep coefficient zero).
    pub fn set_objective(&mut self, coeffs: &[(usize, f64)]) {
        for &(j, c) in coeffs {
            assert!(j < self.num_vars, "objective var {j} out of range");
            self.objective[j] = c;
        }
    }

    /// Adds a constraint from sparse `(var, coeff)` pairs.
    ///
    /// Duplicate variable indices are summed.
    pub fn add_constraint(&mut self, coeffs: &[(usize, f64)], rel: Relation, rhs: f64) {
        for &(j, _) in coeffs {
            assert!(j < self.num_vars, "constraint var {j} out of range");
        }
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            rel,
            rhs,
        });
    }

    /// Solves the LP with two-phase primal simplex.
    pub fn solve(&self) -> LpOutcome {
        Tableau::build(self).solve()
    }
}

/// Dense simplex tableau.
///
/// Columns: `0..n` structural, then slack/surplus, then artificial; the
/// right-hand side is stored separately. Row 0 of `cost` is the phase
/// objective in reduced form.
struct Tableau {
    /// a[i][j]: constraint matrix after adding slack/artificial columns.
    a: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    /// Phase-2 objective over all columns (zero for slack/artificial).
    obj: Vec<f64>,
    /// basis[i] = column basic in row i.
    basis: Vec<usize>,
    n_structural: usize,
    n_total: usize,
    artificial_start: usize,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Tableau {
        let m = lp.rows.len();
        let n = lp.num_vars;
        // Count extra columns.
        let mut n_slack = 0;
        let mut n_artificial = 0;
        for row in &lp.rows {
            // Normalize to rhs >= 0 first; relation may flip.
            let rel = effective_relation(row);
            match rel {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_artificial += 1;
                }
                Relation::Eq => n_artificial += 1,
            }
        }
        let n_total = n + n_slack + n_artificial;
        let artificial_start = n + n_slack;
        let mut a = vec![vec![0.0; n_total]; m];
        let mut rhs = vec![0.0; m];
        let mut basis = vec![usize::MAX; m];
        let mut next_slack = n;
        let mut next_art = artificial_start;

        for (i, row) in lp.rows.iter().enumerate() {
            let flip = row.rhs < 0.0;
            let sign = if flip { -1.0 } else { 1.0 };
            for &(j, c) in &row.coeffs {
                a[i][j] += sign * c;
            }
            rhs[i] = sign * row.rhs;
            match effective_relation(row) {
                Relation::Le => {
                    a[i][next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    a[i][next_slack] = -1.0;
                    next_slack += 1;
                    a[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    a[i][next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }

        let mut obj = vec![0.0; n_total];
        obj[..n].copy_from_slice(&lp.objective);

        Tableau {
            a,
            rhs,
            obj,
            basis,
            n_structural: n,
            n_total,
            artificial_start,
        }
    }

    fn solve(mut self) -> LpOutcome {
        let mut pivots = 0usize;

        // Phase 1: minimize the sum of artificial variables, i.e. maximize
        // -(sum of artificials). Skip when there are none.
        if self.artificial_start < self.n_total {
            let mut phase1 = vec![0.0; self.n_total];
            for v in phase1.iter_mut().skip(self.artificial_start) {
                *v = -1.0;
            }
            let (reduced, mut value) = self.reduced_costs(&phase1);
            let mut reduced = reduced;
            match self.optimize(&mut reduced, &mut value, self.n_total, &mut pivots) {
                SimplexEnd::Optimal => {}
                SimplexEnd::Unbounded => {
                    // Phase-1 objective is bounded by 0; unbounded indicates a bug.
                    unreachable!("phase-1 simplex cannot be unbounded")
                }
            }
            if value < -1e-7 {
                return LpOutcome::Infeasible;
            }
            // Drive remaining artificial variables out of the basis.
            for i in 0..self.a.len() {
                if self.basis[i] >= self.artificial_start {
                    // Find a non-artificial column with a nonzero pivot.
                    if let Some(j) = (0..self.artificial_start).find(|&j| self.a[i][j].abs() > EPS)
                    {
                        self.pivot(i, j);
                        pivots += 1;
                    }
                    // If none exists the row is redundant (all-zero); the
                    // artificial stays basic at value 0, which is harmless.
                }
            }
        }

        // Phase 2: maximize the true objective, artificials pinned at zero by
        // removing them from consideration.
        let objective = self.obj.clone();
        let (mut reduced, mut value) = self.reduced_costs(&objective);
        // Artificial columns are banned from re-entering in phase 2.
        match self.optimize(&mut reduced, &mut value, self.artificial_start, &mut pivots) {
            SimplexEnd::Optimal => {}
            SimplexEnd::Unbounded => return LpOutcome::Unbounded,
        }

        let mut x = vec![0.0; self.n_structural];
        for (i, &b) in self.basis.iter().enumerate() {
            if b < self.n_structural {
                x[b] = self.rhs[i];
            }
        }
        LpOutcome::Optimal(LpSolution {
            x,
            objective: value,
            pivots,
        })
    }

    /// Computes the reduced-cost row and current objective value for a given
    /// objective vector, pricing out the basic columns.
    fn reduced_costs(&self, objective: &[f64]) -> (Vec<f64>, f64) {
        let mut reduced = objective.to_vec();
        let mut value = 0.0;
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = objective[b];
            if cb != 0.0 {
                value += cb * self.rhs[i];
                for (r, &aij) in reduced.iter_mut().zip(&self.a[i]) {
                    *r -= cb * aij;
                }
            }
        }
        (reduced, value)
    }

    /// Primal simplex iterations on the current basis for the given reduced
    /// costs (updated in place along with the objective value). Columns at
    /// index `ban_from` and beyond are never selected as entering.
    fn optimize(
        &mut self,
        reduced: &mut [f64],
        value: &mut f64,
        ban_from: usize,
        pivots: &mut usize,
    ) -> SimplexEnd {
        let m = self.a.len();
        // After this many pivots switch from Dantzig to Bland (anti-cycling).
        let bland_after = 50 * (m + self.n_total) + 1000;
        let mut local = 0usize;
        loop {
            // Entering column.
            let entering = if local < bland_after {
                // Dantzig: most positive reduced cost.
                let mut best = EPS;
                let mut col = None;
                for (j, &r) in reduced.iter().enumerate().take(ban_from) {
                    if r > best {
                        best = r;
                        col = Some(j);
                    }
                }
                col
            } else {
                // Bland: smallest index with positive reduced cost.
                reduced[..ban_from].iter().position(|&r| r > EPS)
            };
            let Some(e) = entering else {
                return SimplexEnd::Optimal;
            };

            // Ratio test for the leaving row.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let aie = self.a[i][e];
                if aie > EPS {
                    let ratio = self.rhs[i] / aie;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(l) = leave else {
                return SimplexEnd::Unbounded;
            };

            self.pivot(l, e);
            // Update the reduced-cost row with the same elimination.
            let re = reduced[e];
            if re.abs() > 0.0 {
                *value += re * self.rhs[l];
                for (r, &aij) in reduced.iter_mut().zip(&self.a[l]) {
                    *r -= re * aij;
                }
                reduced[e] = 0.0;
            }
            *pivots += 1;
            local += 1;
        }
    }

    /// Gauss-Jordan pivot on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        let p = self.a[row][col];
        debug_assert!(p.abs() > EPS, "pivot on (near-)zero element");
        let inv = 1.0 / p;
        for j in 0..self.n_total {
            self.a[row][j] *= inv;
        }
        self.rhs[row] *= inv;
        self.a[row][col] = 1.0; // kill roundoff
        for i in 0..self.a.len() {
            if i != row {
                let factor = self.a[i][col];
                if factor.abs() > EPS {
                    for j in 0..self.n_total {
                        self.a[i][j] -= factor * self.a[row][j];
                    }
                    self.rhs[i] -= factor * self.rhs[row];
                    self.a[i][col] = 0.0;
                    if self.rhs[i].abs() < 1e-12 {
                        self.rhs[i] = 0.0;
                    }
                }
            }
        }
        self.basis[row] = col;
    }
}

fn effective_relation(row: &Row) -> Relation {
    if row.rhs >= 0.0 {
        row.rel
    } else {
        match row.rel {
            Relation::Le => Relation::Ge,
            Relation::Ge => Relation::Le,
            Relation::Eq => Relation::Eq,
        }
    }
}

enum SimplexEnd {
    Optimal,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn simple_2d_maximum() {
        // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj 12.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 3.0), (1, 2.0)]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 12.0);
        assert_close(sol.x[0], 4.0);
        assert_close(sol.x[1], 0.0);
    }

    #[test]
    fn interior_optimum() {
        // maximize x + y s.t. x + 2y <= 4, 3x + y <= 6 -> intersection (1.6, 1.2).
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]);
        lp.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 2.8);
        assert_close(sol.x[0], 1.6);
        assert_close(sol.x[1], 1.2);
    }

    #[test]
    fn equality_constraints() {
        // maximize 2x + y s.t. x + y = 3, x <= 2 -> x=2, y=1, obj 5.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 2.0), (1, 1.0)]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 5.0);
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 1.0);
    }

    #[test]
    fn ge_constraints_and_phase1() {
        // maximize -x - y (i.e. minimize x + y) s.t. x + y >= 2, x >= 0.5.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, -1.0), (1, -1.0)]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 0.5);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, -2.0);
        assert!(sol.x[0] >= 0.5 - 1e-9);
        assert_close(sol.x[0] + sol.x[1], 2.0);
    }

    #[test]
    fn detects_infeasible() {
        // x <= 1 and x >= 2 cannot hold.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        assert!(matches!(lp.solve(), LpOutcome::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        // maximize x with only x >= 1.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        assert!(matches!(lp.solve(), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // maximize x s.t. -x <= -2 (i.e. x >= 2), x <= 5.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_constraint(&[(0, -1.0)], Relation::Le, -2.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 5.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 5.0);
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LinearProgram::new(2);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 0.0);
        assert_close(sol.x[0] + sol.x[1], 1.0);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // maximize x s.t. (0.5 + 0.5) x <= 3 -> x = 3.
        let mut lp = LinearProgram::new(1);
        lp.set_objective(&[(0, 1.0)]);
        lp.add_constraint(&[(0, 0.5), (0, 0.5)], Relation::Le, 3.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: several constraints through the same vertex.
        let mut lp = LinearProgram::new(2);
        lp.set_objective(&[(0, 1.0), (1, 1.0)]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(1, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Le, 0.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn transportation_problem() {
        // 2 supplies (3, 4), 2 demands (2, 5), costs [[1,3],[2,1]].
        // minimize -> maximize negative. Optimal: x00=2, x01=1, x11=4, cost 9.
        let mut lp = LinearProgram::new(4); // x00 x01 x10 x11
        lp.set_objective(&[(0, -1.0), (1, -3.0), (2, -2.0), (3, -1.0)]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 3.0);
        lp.add_constraint(&[(2, 1.0), (3, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(0, 1.0), (2, 1.0)], Relation::Eq, 2.0);
        lp.add_constraint(&[(1, 1.0), (3, 1.0)], Relation::Eq, 5.0);
        let sol = lp.solve().expect_optimal();
        assert_close(sol.objective, -9.0);
    }

    #[test]
    fn moderately_sized_random_like_lp() {
        // Deterministic pseudo-random LP, checks that the solver scales and
        // the solution respects all constraints.
        let n = 40;
        let m = 30;
        let mut lp = LinearProgram::new(n);
        let mut state = 0x12345678u64;
        let mut rand01 = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) / 2.0
        };
        let obj: Vec<(usize, f64)> = (0..n).map(|j| (j, rand01())).collect();
        lp.set_objective(&obj);
        let mut rows = Vec::new();
        for _ in 0..m {
            let coeffs: Vec<(usize, f64)> = (0..n).map(|j| (j, rand01())).collect();
            let rhs = 5.0 + 10.0 * rand01();
            rows.push((coeffs.clone(), rhs));
            lp.add_constraint(&coeffs, Relation::Le, rhs);
        }
        let sol = lp.solve().expect_optimal();
        assert!(sol.objective > 0.0);
        for (coeffs, rhs) in rows {
            let lhs: f64 = coeffs.iter().map(|&(j, c)| c * sol.x[j]).sum();
            assert!(lhs <= rhs + 1e-6, "violated: {lhs} > {rhs}");
        }
        for &xj in &sol.x {
            assert!(xj >= -1e-9);
        }
    }
}

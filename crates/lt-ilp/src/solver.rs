//! Branch-and-bound solver for 0/1 maximization.

use crate::model::{Constraint, Ilp, VarId};
use lt_common::{obs, LtError, Result};
use std::cmp::Ordering;

/// Absolute tolerance of every feasibility, pruning and improvement test.
const EPS: f64 = 1e-9;

/// Solver limits.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Maximum number of branch-and-bound nodes before giving up and
    /// returning the incumbent (marked non-optimal).
    pub max_nodes: u64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            max_nodes: 2_000_000,
        }
    }
}

/// A solver result.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Assignment per variable.
    pub values: Vec<bool>,
    /// Objective value of the assignment.
    pub objective: f64,
    /// True when the solver proved optimality (node budget not exhausted).
    pub optimal: bool,
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
}

/// The model's structure, extracted once per solve.
struct Structure<'a> {
    objective: &'a [f64],
    /// The model's rows, sorted by variable with duplicates merged.
    rows: Vec<Constraint>,
    /// Rows with non-negative coefficients that can bind and are not a
    /// chosen clique; each yields a knapsack bound.
    knapsack_rows: Vec<usize>,
    /// Disjoint set-packing groups over the positive-objective variables:
    /// the chosen cliques `Σx ≤ 1`, then one singleton per remaining
    /// variable. At most one member of a group is ever selected.
    groups: Vec<Vec<VarId>>,
    /// Per variable `b` with objective ≤ 0: the variables `a` with
    /// `x_a ≤ x_b`. Their knapsack weight carries a share of `b`'s.
    implied_by: Vec<Vec<VarId>>,
    /// Branching order: objective descending, ties by index.
    order: Vec<VarId>,
}

impl<'a> Structure<'a> {
    fn new(model: &'a Ilp) -> Self {
        let n = model.num_vars();
        let objective = model.objective();
        let rows: Vec<Constraint> = model
            .constraints()
            .iter()
            .map(|con| {
                let mut coeffs = con.coeffs.clone();
                coeffs.sort_by_key(|&(v, _)| v);
                coeffs.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        kept.1 += later.1;
                    }
                    same
                });
                Constraint {
                    coeffs,
                    rhs: con.rhs,
                }
            })
            .collect();

        let mut in_clique = vec![false; n];
        let mut groups: Vec<Vec<VarId>> = Vec::new();
        let mut knapsack_rows = Vec::new();
        let mut implied_by: Vec<Vec<VarId>> = vec![Vec::new(); n];
        for (r, con) in rows.iter().enumerate() {
            let (row, rhs) = (&con.coeffs[..], con.rhs);
            if let &[(a, ca), (b, cb)] = row {
                // `c·x_a − c·x_b ≤ 0`: an implication in either orientation.
                let (from, to) = if ca > 0.0 { (a, b) } else { (b, a) };
                if rhs == 0.0 && ca != 0.0 && ca == -cb && objective[to] <= 0.0 {
                    implied_by[to].push(from);
                }
            }
            if row.iter().any(|&(_, a)| a < 0.0) {
                continue;
            }
            let is_clique = row.len() >= 2 && rhs == 1.0 && row.iter().all(|&(_, a)| a == 1.0);
            if is_clique && row.iter().all(|&(v, _)| !in_clique[v]) {
                for &(v, _) in row {
                    in_clique[v] = true;
                }
                groups.push(row.iter().map(|&(v, _)| v).collect());
            } else if row.iter().map(|&(_, a)| a).sum::<f64>() > rhs + EPS {
                knapsack_rows.push(r);
            }
        }
        for g in &mut groups {
            g.retain(|&v| objective[v] > 0.0);
        }
        groups.retain(|g| !g.is_empty());
        groups.extend(
            (0..n)
                .filter(|&v| !in_clique[v] && objective[v] > 0.0)
                .map(|v| vec![v]),
        );

        let mut order: Vec<VarId> = (0..n).collect();
        order.sort_by(|&a, &b| {
            objective[b]
                .partial_cmp(&objective[a])
                .unwrap_or(Ordering::Equal)
        });
        Structure {
            objective,
            rows,
            knapsack_rows,
            groups,
            implied_by,
            order,
        }
    }
}

struct Search<'a> {
    model: &'a Ilp,
    s: Structure<'a>,
    best_values: Vec<bool>,
    best_objective: f64,
    nodes: u64,
    max_nodes: u64,
    exhausted: bool,
    bound_prunes: u64,
    /// Scratch buffers of the knapsack bound.
    weight: Vec<f64>,
    items: Vec<(f64, f64)>,
    hull: Vec<(f64, f64)>,
    steps: Vec<(f64, f64)>,
}

/// Solves the model to optimality (or to the node budget).
///
/// Among optimal assignments the solver returns the first in branching
/// order — variables by descending objective, ties by lower index, each
/// tried at 1 before 0 — so callers can pin a tie-break by numbering
/// variables rather than by perturbing objectives.
///
/// The all-false assignment must be feasible (true for the compression
/// model and for any pure `≤`-with-nonnegative-rhs model); models where it
/// is not are still handled, but if no feasible solution is found at all an
/// error is returned.
pub fn solve(model: &Ilp, options: SolveOptions) -> Result<Solution> {
    let _span = obs::span("ilp.solve");
    let n = model.num_vars();
    let mut search = Search {
        model,
        s: Structure::new(model),
        best_values: vec![false; n],
        best_objective: f64::NEG_INFINITY,
        nodes: 0,
        max_nodes: options.max_nodes,
        exhausted: false,
        bound_prunes: 0,
        weight: vec![0.0; n],
        items: Vec::new(),
        hull: Vec::new(),
        steps: Vec::new(),
    };
    // Seed the incumbent with the all-false assignment when feasible, so an
    // exhausted node budget still returns a valid solution.
    let all_false = vec![false; n];
    if model.is_feasible(&all_false) {
        search.best_objective = model.objective_value(&all_false);
        search.best_values = all_false;
    }

    let mut fixed: Vec<Option<bool>> = vec![None; n];
    search.branch(&mut fixed, 0);

    // Accumulated locally during the search, recorded once per solve: the
    // per-node path must not touch the registry lock.
    obs::counter("ilp.solve.calls", 1);
    obs::counter("ilp.nodes", search.nodes);
    obs::counter("ilp.bound_prunes", search.bound_prunes);

    if search.best_objective == f64::NEG_INFINITY {
        return Err(LtError::Solver("no feasible solution found".into()));
    }
    Ok(Solution {
        objective: search.best_objective,
        values: search.best_values,
        optimal: !search.exhausted,
        nodes: search.nodes,
    })
}

impl Search<'_> {
    fn branch(&mut self, fixed: &mut Vec<Option<bool>>, depth: usize) {
        self.nodes += 1;
        if self.nodes > self.max_nodes {
            self.exhausted = true;
            return;
        }
        // Propagate forced variables to a fixpoint; fails when some
        // constraint can no longer be satisfied.
        let mut trail: Vec<VarId> = Vec::new();
        if self.propagate(fixed, &mut trail) {
            if self.upper_bound(fixed) <= self.best_objective + EPS {
                self.bound_prunes += 1;
            } else {
                self.descend(fixed, depth);
            }
        }
        for v in trail {
            fixed[v] = None;
        }
    }

    /// Branches on the next free variable in order, or records a leaf.
    fn descend(&mut self, fixed: &mut Vec<Option<bool>>, depth: usize) {
        let next = self.s.order[depth..]
            .iter()
            .position(|&v| fixed[v].is_none())
            .map(|p| depth + p);
        let Some(pos) = next else {
            let values: Vec<bool> = fixed.iter().map(|f| f.unwrap_or(false)).collect();
            debug_assert!(self.model.is_feasible(&values));
            let obj = self.model.objective_value(&values);
            if obj > self.best_objective + EPS {
                self.best_objective = obj;
                self.best_values = values;
            }
            return;
        };
        let v = self.s.order[pos];
        for value in [true, false] {
            fixed[v] = Some(value);
            self.branch(fixed, pos + 1);
            if self.exhausted {
                break;
            }
        }
        fixed[v] = None;
    }

    /// Unit-propagation over `≤` constraints: a free variable whose
    /// inclusion (or exclusion) makes some constraint unsatisfiable is
    /// forced to the other value. Returns false on contradiction.
    fn propagate(&self, fixed: &mut [Option<bool>], trail: &mut Vec<VarId>) -> bool {
        loop {
            let mut changed = false;
            for con in &self.s.rows {
                let rhs = con.rhs + EPS;
                let min_act = con.min_activity(fixed);
                if min_act > rhs {
                    return false;
                }
                // Forcing a variable to the value that attains its minimum
                // leaves `min_act` unchanged, so one pass per row suffices.
                for &(v, a) in &con.coeffs {
                    if fixed[v].is_some() {
                        continue;
                    }
                    if min_act + a.abs() > rhs {
                        fixed[v] = Some(a < 0.0);
                        trail.push(v);
                        changed = true;
                    }
                }
            }
            if !changed {
                return true;
            }
        }
    }

    /// Upper bound on the best completion of the current partial
    /// assignment: the fixed value plus the smaller of the clique bound
    /// (each group contributes its best free member) and every knapsack
    /// row's multiple-choice relaxation.
    fn upper_bound(&mut self, fixed: &[Option<bool>]) -> f64 {
        let obj = self.s.objective;
        let fixed_value: f64 = (0..obj.len())
            .filter(|&v| fixed[v] == Some(true))
            .map(|v| obj[v])
            .sum();
        let cliques: f64 = self
            .s
            .groups
            .iter()
            .map(|g| {
                g.iter()
                    .filter(|&&v| fixed[v].is_none())
                    .map(|&v| obj[v])
                    .fold(0.0, f64::max)
            })
            .sum();
        let mut best = fixed_value + cliques;
        for i in 0..self.s.knapsack_rows.len() {
            if best <= self.best_objective + EPS {
                break;
            }
            let r = self.s.knapsack_rows[i];
            best = best.min(fixed_value + self.knapsack_bound(r, fixed));
        }
        best
    }

    /// Fractional multiple-choice knapsack bound of one non-negative row
    /// over the free positive-objective variables, grouped by clique.
    /// Variables outside the row weigh nothing. A free implied variable
    /// (objective ≤ 0) moves its weight onto the free variables implying
    /// it, split evenly: any selection that includes one of them pays the
    /// whole weight once, which is at least the shares of its members.
    fn knapsack_bound(&mut self, r: usize, fixed: &[Option<bool>]) -> f64 {
        let obj = self.s.objective;
        self.weight.iter_mut().for_each(|w| *w = 0.0);
        let con = &self.s.rows[r];
        let mut capacity = con.rhs;
        for &(v, a) in &con.coeffs {
            match fixed[v] {
                Some(true) => capacity -= a,
                Some(false) => {}
                None => self.weight[v] = a,
            }
        }
        if capacity < -EPS {
            return f64::NEG_INFINITY;
        }
        for &(b, a) in &con.coeffs {
            let implying = &self.s.implied_by[b];
            if fixed[b].is_some() || implying.is_empty() {
                continue;
            }
            let free = implying.iter().filter(|&&u| fixed[u].is_none()).count();
            if free == 0 {
                continue;
            }
            let share = a / free as f64;
            for &u in implying {
                if fixed[u].is_none() {
                    self.weight[u] += share;
                }
            }
        }

        // Each group's upper hull, from the empty choice at the origin,
        // as (weight, value) steps of decreasing slope.
        self.steps.clear();
        for g in &self.s.groups {
            self.items.clear();
            self.items.extend(
                g.iter()
                    .filter(|&&v| fixed[v].is_none())
                    .map(|&v| (self.weight[v], obj[v])),
            );
            self.items.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(Ordering::Equal)
                    .then(b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal))
            });
            self.hull.clear();
            self.hull.push((0.0, 0.0));
            for &(w, v) in &self.items {
                if v <= self.hull[self.hull.len() - 1].1 {
                    continue;
                }
                while let [.., (w1, v1), (w2, v2)] = self.hull[..] {
                    // Drop the last point when it lies on or below the
                    // segment from its predecessor to the new point.
                    if (v2 - v1) * (w - w1) <= (v - v1) * (w2 - w1) {
                        self.hull.pop();
                    } else {
                        break;
                    }
                }
                self.hull.push((w, v));
            }
            self.steps.extend(
                self.hull
                    .windows(2)
                    .map(|p| (p[1].0 - p[0].0, p[1].1 - p[0].1)),
            );
        }
        let slope = |&(w, v): &(f64, f64)| if w > 0.0 { v / w } else { f64::INFINITY };
        self.steps
            .sort_by(|a, b| slope(b).partial_cmp(&slope(a)).unwrap_or(Ordering::Equal));
        let mut remaining = capacity.max(0.0);
        let mut bound = 0.0;
        for &(w, v) in &self.steps {
            if w <= remaining {
                bound += v;
                remaining -= w;
            } else {
                bound += v * (remaining / w);
                break;
            }
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(model: &Ilp) -> (Vec<bool>, f64) {
        let n = model.num_vars();
        let mut best = (vec![false; n], f64::NEG_INFINITY);
        for mask in 0u64..(1 << n) {
            let values: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            if model.is_feasible(&values) {
                let obj = model.objective_value(&values);
                if obj > best.1 {
                    best = (values, obj);
                }
            }
        }
        best
    }

    #[test]
    fn solves_a_knapsack() {
        let mut m = Ilp::new(4);
        let values = [10.0, 6.0, 4.0, 7.0];
        let weights = [5.0, 4.0, 3.0, 4.0];
        for (i, v) in values.iter().enumerate() {
            m.set_objective(i, *v).unwrap();
        }
        let coeffs: Vec<(usize, f64)> = weights.iter().enumerate().map(|(i, w)| (i, *w)).collect();
        m.add_le(&coeffs, 9.0).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.objective, brute_force(&m).1);
        assert_eq!(sol.objective, 17.0); // items 0 and 3
    }

    #[test]
    fn respects_implications() {
        // Value on x0 but x0 requires x1 whose weight blows the budget.
        let mut m = Ilp::new(2);
        m.set_objective(0, 10.0).unwrap();
        m.add_implication(0, 1).unwrap();
        m.add_le(&[(0, 1.0), (1, 5.0)], 4.0).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.values, vec![false, false]);
    }

    #[test]
    fn respects_conflicts() {
        let mut m = Ilp::new(2);
        m.set_objective(0, 5.0).unwrap();
        m.set_objective(1, 4.0).unwrap();
        m.add_conflict(0, 1).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert_eq!(sol.objective, 5.0);
        assert_eq!(sol.values, vec![true, false]);
    }

    #[test]
    fn ge_constraints_force_selection() {
        let mut m = Ilp::new(3);
        m.set_objective(0, -2.0).unwrap();
        m.set_objective(1, -1.0).unwrap();
        m.set_objective(2, -4.0).unwrap();
        // Pick at least two (maximization of negative costs = min cost).
        m.add_ge(&[(0, 1.0), (1, 1.0), (2, 1.0)], 2.0).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert_eq!(sol.objective, -3.0);
        assert_eq!(sol.values, vec![true, true, false]);
    }

    #[test]
    fn empty_model_is_trivially_optimal() {
        let m = Ilp::new(0);
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert!(sol.optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn node_budget_marks_non_optimal_but_returns_incumbent() {
        let mut m = Ilp::new(12);
        for i in 0..12 {
            m.set_objective(i, 1.0 + (i as f64) * 0.1).unwrap();
            m.add_le(&[(i, 1.0)], 1.0).unwrap();
        }
        let sol = solve(&m, SolveOptions { max_nodes: 3 }).unwrap();
        assert!(!sol.optimal);
        assert!(sol.objective >= 0.0);
    }

    #[test]
    fn matches_brute_force_on_structured_instances() {
        // Mimics the compression model: R variables with value, L variables
        // with token cost, implications R→L, one budget, symmetric
        // conflicts.
        let mut m = Ilp::new(6); // R0 R1 R2 L0 L1 L2
        m.set_objective(0, 9.0).unwrap();
        m.set_objective(1, 7.0).unwrap();
        m.set_objective(2, 5.0).unwrap();
        m.add_implication(0, 3).unwrap();
        m.add_implication(1, 4).unwrap();
        m.add_implication(2, 5).unwrap();
        m.add_conflict(0, 1).unwrap();
        // Budget over both R and L tokens.
        m.add_le(
            &[(0, 2.0), (1, 2.0), (2, 2.0), (3, 3.0), (4, 3.0), (5, 3.0)],
            10.0,
        )
        .unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        let (_, expect) = brute_force(&m);
        assert_eq!(sol.objective, expect);
        assert!(m.is_feasible(&sol.values));
    }

    #[test]
    fn structure_finds_cliques_implications_and_binding_rows() {
        let mut m = Ilp::new(4);
        for v in 0..3 {
            m.set_objective(v, 1.0).unwrap();
        }
        m.add_conflict(0, 1).unwrap(); // clique
        m.add_conflict(1, 2).unwrap(); // overlaps: stays a knapsack row
        m.add_implication(2, 3).unwrap(); // x2 ≤ x3, objective of x3 is 0
        m.add_le(&[(0, 1.0), (3, 1.0)], 5.0).unwrap(); // never binds
        let s = Structure::new(&m);
        assert_eq!(s.groups, vec![vec![0, 1], vec![2]]);
        assert_eq!(s.knapsack_rows, vec![1]);
        assert_eq!(s.implied_by[3], vec![2]);
        assert_eq!(s.order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn duplicate_coefficients_are_merged() {
        // 2·x0 ≤ 1 written as two terms: x0 can never be selected.
        let mut m = Ilp::new(1);
        m.set_objective(0, 3.0).unwrap();
        m.add_le(&[(0, 1.0), (0, 1.0)], 1.0).unwrap();
        assert_eq!(Structure::new(&m).rows[0].coeffs, vec![(0, 2.0)]);
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert_eq!(sol.values, vec![false]);
    }

    #[test]
    fn clique_bound_proves_orientation_choices_in_one_dive() {
        // Twenty conflicting pairs of equal value and a line header each:
        // the old minimum-of-single-rows bound enumerated the orientations.
        let pairs = 20;
        let mut m = Ilp::new(pairs * 3);
        let mut budget = Vec::new();
        for p in 0..pairs {
            let (fwd, rev, header) = (2 * p, 2 * p + 1, 2 * pairs + p);
            m.set_objective(fwd, 1.0 + p as f64).unwrap();
            m.set_objective(rev, 1.0 + p as f64).unwrap();
            m.add_conflict(fwd, rev).unwrap();
            m.add_implication(fwd, header).unwrap();
            m.add_implication(rev, header).unwrap();
            budget.extend([(fwd, 2.0), (rev, 3.0), (header, 2.0)]);
        }
        m.add_le(&budget, 1000.0).unwrap();
        let sol = solve(&m, SolveOptions::default()).unwrap();
        assert!(sol.optimal);
        assert!(sol.nodes <= 1 + 2 * pairs as u64 * 2, "{} nodes", sol.nodes);
        // Ties between orientations go to the lower-numbered variable.
        assert!((0..pairs).all(|p| sol.values[2 * p] && !sol.values[2 * p + 1]));
    }
}

//! Exact 0/1 integer linear programming.
//!
//! λ-Tune formulates workload compression as an ILP (paper §3.3): maximize
//! the total value of join snippets conveyed to the LLM subject to a token
//! budget and structural dependency constraints. The paper hands the
//! problem to an off-the-shelf solver; this crate is the from-scratch
//! substitute — a branch-and-bound solver for maximization of a linear
//! objective over binary variables under `≤` constraints.
//!
//! The solver is exact: it returns a provably optimal solution unless the
//! node budget is exhausted (reported via [`Solution::optimal`]). Among
//! optimal solutions it returns the first in branching order (objective
//! descending, ties by lower variable index, 1 before 0), so a caller pins
//! a tie-break by numbering its variables. Once per solve it reads the
//! model's structure: rows with duplicate variables merged, the disjoint
//! set-packing cliques (`Σx ≤ 1` with unit coefficients) and the
//! implications (`x_a − x_b ≤ 0`). Pruning combines
//!
//! * **constraint propagation** — fixing a variable forces others through
//!   the `≤` constraints (this subsumes the compression model's
//!   `R ≤ L`, `L ≤ ΣR` and symmetry constraints),
//! * a **clique bound** — each clique contributes at most its best free
//!   member, jointly over all cliques, and
//! * **multiple-choice knapsack bounds** — for every binding row with
//!   non-negative coefficients, the LP relaxation of that row with one
//!   choice per clique, computed greedily over each clique's upper hull.
//!   An implied variable with objective ≤ 0 (a line header) spreads its
//!   weight evenly over the free variables that imply it.

pub mod model;
pub mod solver;

pub use model::{Constraint, Ilp, VarId};
pub use solver::{solve, Solution, SolveOptions};

//! Randomized property tests: the branch-and-bound solver is exact on
//! random small instances (checked against brute force) and its solutions
//! are always feasible. Cases come from a seeded `lt_common::Rng`.

use lt_common::{seeded_rng, Rng};
use lt_ilp::{solve, Ilp, SolveOptions};

const CASES: usize = 64;

#[derive(Debug, Clone)]
struct Instance {
    objective: Vec<f64>,
    knapsacks: Vec<(Vec<f64>, f64)>,
    implications: Vec<(usize, usize)>,
    conflicts: Vec<(usize, usize)>,
}

fn instance(rng: &mut Rng, max_vars: usize) -> Instance {
    let n = rng.gen_range(2..=max_vars);
    let objective: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..10.0)).collect();
    let knapsacks: Vec<(Vec<f64>, f64)> = (0..rng.gen_range(0..3usize))
        .map(|_| {
            let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
            (weights, rng.gen_range(1.0..10.0))
        })
        .collect();
    let pairs = |rng: &mut Rng| -> Vec<(usize, usize)> {
        (0..rng.gen_range(0..3usize))
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .filter(|(a, b)| a != b)
            .collect()
    };
    let implications = pairs(rng);
    let conflicts = pairs(rng);
    Instance {
        objective,
        knapsacks,
        implications,
        conflicts,
    }
}

fn build(inst: &Instance) -> Ilp {
    let n = inst.objective.len();
    let mut ilp = Ilp::new(n);
    for (i, c) in inst.objective.iter().enumerate() {
        ilp.set_objective(i, *c).unwrap();
    }
    for (weights, rhs) in &inst.knapsacks {
        let coeffs: Vec<(usize, f64)> = weights.iter().enumerate().map(|(i, w)| (i, *w)).collect();
        ilp.add_le(&coeffs, *rhs).unwrap();
    }
    for (a, b) in &inst.implications {
        ilp.add_implication(*a, *b).unwrap();
    }
    for (a, b) in &inst.conflicts {
        ilp.add_conflict(*a, *b).unwrap();
    }
    ilp
}

fn brute_force(ilp: &Ilp) -> f64 {
    let n = ilp.num_vars();
    let mut best = f64::NEG_INFINITY;
    for mask in 0u64..(1 << n) {
        let values: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        if ilp.is_feasible(&values) {
            best = best.max(ilp.objective_value(&values));
        }
    }
    best
}

/// The solver matches exhaustive search on every random instance.
#[test]
fn solver_is_exact() {
    let mut rng = seeded_rng(0x11);
    for _ in 0..CASES {
        let inst = instance(&mut rng, 9);
        let ilp = build(&inst);
        let solution = solve(&ilp, SolveOptions::default()).expect("all-false is feasible");
        assert!(solution.optimal);
        let expected = brute_force(&ilp);
        assert!(
            (solution.objective - expected).abs() < 1e-9,
            "solver {} vs brute force {expected}",
            solution.objective
        );
    }
}

/// Returned assignments always satisfy every constraint.
#[test]
fn solutions_are_feasible() {
    let mut rng = seeded_rng(0x12);
    for _ in 0..CASES {
        let inst = instance(&mut rng, 10);
        let ilp = build(&inst);
        let solution = solve(&ilp, SolveOptions::default()).unwrap();
        assert!(ilp.is_feasible(&solution.values));
        assert!((ilp.objective_value(&solution.values) - solution.objective).abs() < 1e-9);
    }
}

/// Tightening the budget never increases the optimum (monotonicity).
#[test]
fn knapsack_monotonicity() {
    let mut rng = seeded_rng(0x13);
    for _ in 0..CASES {
        let n = rng.gen_range(3..8usize);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..10.0)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..5.0)).collect();
        let budget = rng.gen_range(1.0..10.0);
        let mut loose = Ilp::new(n);
        let mut tight = Ilp::new(n);
        for (i, &v) in values.iter().enumerate() {
            loose.set_objective(i, v).unwrap();
            tight.set_objective(i, v).unwrap();
        }
        let coeffs: Vec<(usize, f64)> = (0..n).map(|i| (i, weights[i])).collect();
        loose.add_le(&coeffs, budget).unwrap();
        tight.add_le(&coeffs, budget / 2.0).unwrap();
        let a = solve(&loose, SolveOptions::default()).unwrap().objective;
        let b = solve(&tight, SolveOptions::default()).unwrap().objective;
        assert!(b <= a + 1e-9);
    }
}

/// A multiple of `1/8` in `[lo, hi]`: dyadic values keep every sum exact,
/// so ties stay ties and optima compare with `==`.
fn eighths(rng: &mut Rng, lo: i32, hi: i32) -> f64 {
    rng.gen_range(0..(hi - lo + 1) as usize) as f64 / 8.0 + lo as f64 / 8.0
}

/// A compression-shaped instance: snippets `(left, right, value)` over
/// columns with integer token costs, and a token budget.
struct Compression {
    snippets: Vec<(usize, usize, f64)>,
    cost: Vec<f64>,
    budget: f64,
}

fn compression(rng: &mut Rng) -> Compression {
    let columns = rng.gen_range(2..=6usize);
    let cost: Vec<f64> = (0..columns)
        .map(|_| rng.gen_range(1..=6usize) as f64)
        .collect();
    let mut pairs: Vec<(usize, usize)> = (0..columns)
        .flat_map(|a| (a + 1..columns).map(move |b| (a, b)))
        .collect();
    rng.shuffle(&mut pairs);
    pairs.truncate(rng.gen_range(1..=10usize));
    // Values below 1, ties, and a few large ones.
    let snippets: Vec<(usize, usize, f64)> = pairs
        .into_iter()
        .map(|(a, b)| (a, b, eighths(rng, 1, 24)))
        .collect();
    let everything: f64 = cost.iter().sum::<f64>() + 2.0 * cost.iter().sum::<f64>();
    let budget = rng.gen_range(0..=everything as usize) as f64;
    Compression {
        snippets,
        cost,
        budget,
    }
}

/// The compressor's model: `R` variables `2s` (left→right) and `2s + 1`
/// (reverse), then one `L` per column.
fn compression_model(c: &Compression) -> Ilp {
    let k = c.snippets.len();
    let l_var = |col: usize| 2 * k + col;
    let mut ilp = Ilp::new(2 * k + c.cost.len());
    let mut budget: Vec<(usize, f64)> = Vec::new();
    let mut members: Vec<Vec<(usize, f64)>> = vec![Vec::new(); c.cost.len()];
    for (s, &(a, b, value)) in c.snippets.iter().enumerate() {
        for (d, (lhs, rhs)) in [(a, b), (b, a)].into_iter().enumerate() {
            let r = 2 * s + d;
            ilp.set_objective(r, value).unwrap();
            ilp.add_implication(r, l_var(lhs)).unwrap();
            budget.push((r, c.cost[rhs]));
            members[lhs].push((r, -1.0));
        }
        ilp.add_conflict(2 * s, 2 * s + 1).unwrap();
    }
    for (col, mut terms) in members.into_iter().enumerate() {
        terms.push((l_var(col), 1.0));
        ilp.add_le(&terms, 0.0).unwrap();
        budget.push((l_var(col), c.cost[col]));
    }
    ilp.add_le(&budget, c.budget).unwrap();
    ilp
}

/// Enumerates none/forward/reverse per snippet (3^k) and returns the best
/// value with the canonical selection: among optimal ones, the greatest in
/// branching order (value descending, then lower index; selected first).
fn enumerate_orientations(c: &Compression) -> (f64, Vec<bool>) {
    let k = c.snippets.len();
    let mut order: Vec<usize> = (0..2 * k).collect();
    order.sort_by(|&x, &y| {
        c.snippets[y / 2]
            .2
            .partial_cmp(&c.snippets[x / 2].2)
            .unwrap()
    });
    let mut best: Option<(f64, Vec<bool>)> = None;
    for code in 0..3usize.pow(k as u32) {
        let mut r = vec![false; 2 * k];
        let mut lines = vec![false; c.cost.len()];
        let (mut value, mut tokens) = (0.0, 0.0);
        let mut digits = code;
        for (s, &(a, b, v)) in c.snippets.iter().enumerate() {
            let (lhs, rhs) = match digits % 3 {
                0 => {
                    digits /= 3;
                    continue;
                }
                1 => (a, b),
                _ => (b, a),
            };
            digits /= 3;
            r[2 * s + usize::from(lhs == b)] = true;
            value += v;
            tokens += c.cost[rhs];
            if !lines[lhs] {
                lines[lhs] = true;
                tokens += c.cost[lhs];
            }
        }
        if tokens > c.budget {
            continue;
        }
        let better = match &best {
            None => true,
            Some((bv, br)) => {
                value > *bv
                    || (value == *bv
                        && order
                            .iter()
                            .find(|&&x| r[x] != br[x])
                            .is_some_and(|&x| r[x]))
            }
        };
        if better {
            best = Some((value, r));
        }
    }
    best.expect("selecting nothing is feasible")
}

/// Compression-shaped models with ≤ 10 snippets match exhaustive
/// enumeration of orientations, including the canonical tie-break.
#[test]
fn compression_models_match_orientation_enumeration() {
    let mut rng = seeded_rng(0x14);
    for case in 0..CASES {
        let c = compression(&mut rng);
        let ilp = compression_model(&c);
        let solution = solve(&ilp, SolveOptions::default()).unwrap();
        let (value, canonical) = enumerate_orientations(&c);
        assert!(solution.optimal, "case {case}");
        assert!(ilp.is_feasible(&solution.values), "case {case}");
        assert_eq!(solution.objective, value, "case {case}");
        assert_eq!(
            solution.values[..canonical.len()],
            canonical[..],
            "case {case}: budget {}",
            c.budget
        );
    }
}

/// Generic models with ≤ 14 variables — `≥` rows, negative objectives,
/// implications into positive-objective variables — match brute force.
#[test]
fn generic_models_match_brute_force() {
    let mut rng = seeded_rng(0x15);
    for case in 0..CASES {
        let n = rng.gen_range(2..=14usize);
        let mut ilp = Ilp::new(n);
        for v in 0..n {
            ilp.set_objective(v, eighths(&mut rng, -24, 64)).unwrap();
        }
        let row = |rng: &mut Rng| -> Vec<(usize, f64)> {
            (0..rng.gen_range(1..=n))
                .map(|_| (rng.gen_range(0..n), eighths(rng, 0, 32)))
                .collect()
        };
        for _ in 0..rng.gen_range(0..3usize) {
            let coeffs = row(&mut rng);
            ilp.add_le(&coeffs, eighths(&mut rng, 0, 64)).unwrap();
        }
        if rng.gen_bool(0.5) {
            let coeffs = row(&mut rng);
            ilp.add_ge(&coeffs, eighths(&mut rng, 0, 16)).unwrap();
        }
        // An implication whose target is worth something on its own.
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if a != b {
            ilp.set_objective(b, eighths(&mut rng, 1, 32)).unwrap();
            ilp.add_implication(a, b).unwrap();
        }
        for _ in 0..rng.gen_range(0..4usize) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b {
                if rng.gen_bool(0.5) {
                    ilp.add_implication(a, b).unwrap();
                } else {
                    ilp.add_conflict(a, b).unwrap();
                }
            }
        }
        let expected = brute_force(&ilp);
        match solve(&ilp, SolveOptions::default()) {
            Ok(solution) => {
                assert!(solution.optimal, "case {case}");
                assert!(ilp.is_feasible(&solution.values), "case {case}");
                assert_eq!(solution.objective, expected, "case {case}");
            }
            Err(_) => assert_eq!(expected, f64::NEG_INFINITY, "case {case}"),
        }
    }
}

//! Workload compression via integer linear programming (paper §3.2–3.3).
//!
//! Given the valued join snippets, the compressor chooses which to convey
//! to the LLM under a token budget. Lines have the form
//! `A: B, C, D` (column `A` joins with each of `B`, `C`, `D`), so sharing a
//! left-hand side amortizes its token cost. Selection is the paper's ILP:
//!
//! * binary `R⟨c1,c2⟩` — `c2` appears on `c1`'s right-hand side,
//! * binary `L_c` — `c` owns a line,
//! * `R⟨c1,c2⟩ ≤ L_c1`, `L_c1 ≤ Σ R⟨c1,·⟩`, `R⟨a,b⟩ + R⟨b,a⟩ ≤ 1`,
//! * token budget `Σ H_c2·R + Σ H_c·L ≤ B`,
//! * maximize `Σ V(p)·R_p`.

use crate::snippets::Snippet;
use lt_common::{obs, ColumnId, Result};
use lt_dbms::Catalog;
use lt_ilp::{solve, Ilp, SolveOptions};
use lt_llm::count_tokens;
use lt_workloads::Obfuscator;
use std::collections::{BTreeMap, HashMap};

/// R variable of snippet `si` in direction `d` (0: left→right, 1: the
/// reverse). The forward variable has the lower index, and the solver
/// breaks ties toward lower indices, so when both directions are optimal
/// the rendering keeps the normalized orientation (renaming columns cannot
/// flip a line).
fn r_var(si: usize, d: usize) -> usize {
    si * 2 + d
}

/// The compressed workload description destined for the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedWorkload {
    /// One line per left-hand-side column: `table.col: table.col, …`,
    /// ordered by total conveyed value (most valuable first).
    pub lines: Vec<String>,
    /// Approximate token count of [`CompressedWorkload::text`].
    pub tokens: usize,
    /// Total value of the selected snippets.
    pub selected_value: f64,
    /// Total value of all snippets (selected + dropped).
    pub total_value: f64,
    /// True when the ILP solver proved the selection optimal.
    pub optimal: bool,
}

impl CompressedWorkload {
    /// The newline-joined description.
    pub fn text(&self) -> String {
        self.lines.join("\n")
    }

    /// Fraction of total snippet value conveyed to the LLM.
    pub fn coverage(&self) -> f64 {
        if self.total_value <= 0.0 {
            1.0
        } else {
            self.selected_value / self.total_value
        }
    }
}

/// The workload compressor.
pub struct Compressor<'a> {
    catalog: &'a Catalog,
    obfuscator: Option<&'a Obfuscator>,
}

impl<'a> Compressor<'a> {
    /// Compressor rendering real catalog names.
    pub fn new(catalog: &'a Catalog) -> Self {
        Compressor {
            catalog,
            obfuscator: None,
        }
    }

    /// Compressor rendering obfuscated names (paper §6.4.3).
    pub fn obfuscated(catalog: &'a Catalog, obfuscator: &'a Obfuscator) -> Self {
        Compressor {
            catalog,
            obfuscator: Some(obfuscator),
        }
    }

    /// Renders a column as it will appear in the prompt.
    pub fn render_column(&self, col: ColumnId) -> String {
        let meta = self.catalog.column(col);
        let table = &self.catalog.table(meta.table).name;
        match self.obfuscator {
            Some(ob) => format!("{}.{}", ob.table(table), ob.column(table, &meta.name)),
            None => format!("{table}.{}", meta.name),
        }
    }

    /// Selects and renders the most valuable snippets within `budget`
    /// tokens by solving the paper's ILP.
    pub fn compress(&self, snippets: &[Snippet], budget: usize) -> Result<CompressedWorkload> {
        let total_value: f64 = snippets.iter().map(|s| s.value).sum();
        if snippets.is_empty() || budget == 0 {
            return Ok(CompressedWorkload {
                lines: Vec::new(),
                tokens: 0,
                selected_value: 0.0,
                total_value,
                optimal: true,
            });
        }
        let _span = obs::span("tune.compress");
        let solution = solve(&self.model(snippets, budget)?, SolveOptions::default())?;

        // Render: group selected R variables by left-hand side.
        let mut groups: BTreeMap<ColumnId, Vec<(ColumnId, f64)>> = BTreeMap::new();
        let mut selected_value = 0.0;
        for (si, s) in snippets.iter().enumerate() {
            if solution.values[r_var(si, 0)] {
                groups.entry(s.left).or_default().push((s.right, s.value));
                selected_value += s.value;
            }
            if solution.values[r_var(si, 1)] {
                groups.entry(s.right).or_default().push((s.left, s.value));
                selected_value += s.value;
            }
        }
        let mut rendered: Vec<(f64, String)> = groups
            .into_iter()
            .map(|(lhs, mut members)| {
                members.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                let value: f64 = members.iter().map(|m| m.1).sum();
                let rhs: Vec<String> = members
                    .iter()
                    .map(|(c, _)| self.render_column(*c))
                    .collect();
                (
                    value,
                    format!("{}: {}", self.render_column(lhs), rhs.join(", ")),
                )
            })
            .collect();
        rendered.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let lines: Vec<String> = rendered.into_iter().map(|(_, l)| l).collect();
        let tokens = count_tokens(&lines.join("\n"));
        Ok(CompressedWorkload {
            lines,
            tokens,
            selected_value,
            total_value,
            optimal: solution.optimal,
        })
    }

    /// The paper's ILP over `snippets` under `budget` tokens.
    fn model(&self, snippets: &[Snippet], budget: usize) -> Result<Ilp> {
        // Collect distinct columns and their token costs. Every rendered
        // element also costs separator punctuation (`:` or `,` plus
        // spacing), folded into H.
        let mut columns: Vec<ColumnId> = snippets.iter().flat_map(|s| [s.left, s.right]).collect();
        columns.sort_unstable();
        columns.dedup();
        let col_index: HashMap<ColumnId, usize> =
            columns.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        let token_cost: Vec<f64> = columns
            .iter()
            .map(|c| (count_tokens(&self.render_column(*c)) + 1) as f64)
            .collect();

        // Variable layout: R variables for both directions of each
        // snippet (see [`r_var`]), then L variables per column.
        let n_r = snippets.len() * 2;
        let n_l = columns.len();
        let mut ilp = Ilp::new(n_r + n_l);
        let l_var = |ci: usize| n_r + ci;

        let mut budget_terms: Vec<(usize, f64)> = Vec::new();
        for (si, s) in snippets.iter().enumerate() {
            for d in 0..2 {
                let (lhs, rhs) = if d == 0 {
                    (s.left, s.right)
                } else {
                    (s.right, s.left)
                };
                let (lhs_i, rhs_i) = (col_index[&lhs], col_index[&rhs]);
                let rv = r_var(si, d);
                ilp.set_objective(rv, s.value.max(0.0))?;
                // R ≤ L(lhs)
                ilp.add_implication(rv, l_var(lhs_i))?;
                budget_terms.push((rv, token_cost[rhs_i]));
            }
            // Symmetric directions conflict.
            ilp.add_conflict(r_var(si, 0), r_var(si, 1))?;
        }
        // L ≤ Σ R over this lhs (prune lines without members).
        let mut per_lhs: BTreeMap<usize, Vec<(usize, f64)>> = BTreeMap::new();
        for (si, s) in snippets.iter().enumerate() {
            per_lhs
                .entry(col_index[&s.left])
                .or_default()
                .push((r_var(si, 0), -1.0));
            per_lhs
                .entry(col_index[&s.right])
                .or_default()
                .push((r_var(si, 1), -1.0));
        }
        for (lhs_i, mut terms) in per_lhs {
            terms.push((l_var(lhs_i), 1.0));
            ilp.add_le(&terms, 0.0)?;
        }
        for (ci, cost) in token_cost.iter().enumerate() {
            budget_terms.push((l_var(ci), *cost));
        }
        ilp.add_le(&budget_terms, budget as f64)?;

        Ok(ilp)
    }

    /// Greedy baseline selection (density order), used by tests and the
    /// ablation benches to quantify the ILP's advantage.
    pub fn compress_greedy(&self, snippets: &[Snippet], budget: usize) -> CompressedWorkload {
        let total_value: f64 = snippets.iter().map(|s| s.value).sum();
        let mut by_density: Vec<&Snippet> = snippets.iter().collect();
        by_density.sort_by(|a, b| {
            b.value
                .partial_cmp(&a.value)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut opened: BTreeMap<ColumnId, Vec<(ColumnId, f64)>> = BTreeMap::new();
        let mut used = 0usize;
        let mut selected_value = 0.0;
        for s in by_density {
            let rhs_cost = count_tokens(&self.render_column(s.right)) + 1;
            let lhs_cost = if opened.contains_key(&s.left) {
                0
            } else {
                count_tokens(&self.render_column(s.left)) + 1
            };
            if used + rhs_cost + lhs_cost > budget {
                continue;
            }
            used += rhs_cost + lhs_cost;
            selected_value += s.value;
            opened.entry(s.left).or_default().push((s.right, s.value));
        }
        let lines: Vec<String> = opened
            .into_iter()
            .map(|(lhs, members)| {
                let rhs: Vec<String> = members
                    .iter()
                    .map(|(c, _)| self.render_column(*c))
                    .collect();
                format!("{}: {}", self.render_column(lhs), rhs.join(", "))
            })
            .collect();
        let tokens = count_tokens(&lines.join("\n"));
        CompressedWorkload {
            lines,
            tokens,
            selected_value,
            total_value,
            optimal: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_dbms::{Dbms, Hardware, SimDb};
    use lt_workloads::Benchmark;

    fn bench_snippets(benchmark: Benchmark) -> (lt_workloads::Workload, Vec<Snippet>) {
        let w = benchmark.load();
        let db = SimDb::new(Dbms::Postgres, w.catalog.clone(), Hardware::p3_2xlarge(), 1);
        let s = crate::snippets::extract_snippets(&db, &w);
        (w, s)
    }

    fn tpch_snippets() -> (lt_workloads::Workload, Vec<Snippet>) {
        bench_snippets(Benchmark::TpchSf1)
    }

    #[test]
    fn sub_unit_snippets_keep_the_normalized_orientation() {
        // A snippet worth far less than 1 next to a valuable one. Its
        // reverse direction is cheaper to branch on first (the left column
        // renders shorter), yet both directions are optimal under a loose
        // budget, so the rendering must keep `left: right`.
        let w = Benchmark::Job.load();
        let col = |t: &str, c: &str| w.catalog.resolve_column(Some(t), c).unwrap();
        let snippet = |a, b, value| {
            let (left, right) = if a <= b { (a, b) } else { (b, a) };
            Snippet { left, right, value }
        };
        let small = snippet(
            col("link_type", "id"),
            col("movie_link", "link_type_id"),
            0.11,
        );
        let big = snippet(col("title", "id"), col("cast_info", "movie_id"), 5e5);
        let c = Compressor::new(&w.catalog);
        let expect = format!(
            "{}: {}",
            c.render_column(small.left),
            c.render_column(small.right)
        );
        let out = c.compress(&[big, small], 8000).unwrap();
        assert!(out.lines.contains(&expect), "{:?}", out.lines);
        assert_eq!(out.selected_value, 5e5 + 0.11);
    }

    #[test]
    fn bench_snippet_sets_solve_in_few_nodes() {
        // Deterministic effort gate for the structure-aware bounds: the
        // default budget never binds and must take a single dive; tight
        // budgets stay within a few thousand nodes.
        for benchmark in [Benchmark::TpchSf1, Benchmark::TpcdsSf1, Benchmark::Job] {
            let (w, snippets) = bench_snippets(benchmark);
            let c = Compressor::new(&w.catalog);
            for budget in [40, 64, 120, 196, 250, 400, 800, 1600, 3200, 8000] {
                let model = c.model(&snippets, budget).unwrap();
                let solution = solve(&model, SolveOptions::default()).unwrap();
                let cap = if budget == 8000 { 100 } else { 5_000 };
                assert!(solution.optimal);
                assert!(
                    solution.nodes <= cap,
                    "{} at budget {budget}: {} nodes",
                    benchmark.name(),
                    solution.nodes
                );
            }
        }
    }

    #[test]
    fn compression_respects_budget() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        for budget in [50, 150, 400] {
            let out = c.compress(&snippets, budget).unwrap();
            assert!(
                out.tokens <= budget,
                "budget {budget} exceeded: {} tokens",
                out.tokens
            );
            assert!(out.optimal);
        }
    }

    #[test]
    fn bigger_budget_never_reduces_value() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let small = c.compress(&snippets, 80).unwrap();
        let big = c.compress(&snippets, 400).unwrap();
        assert!(big.selected_value >= small.selected_value);
        assert!(big.coverage() <= 1.0 + 1e-9);
    }

    #[test]
    fn generous_budget_covers_everything() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 100_000).unwrap();
        assert!(
            (out.coverage() - 1.0).abs() < 1e-9,
            "coverage {}",
            out.coverage()
        );
    }

    #[test]
    fn ilp_beats_or_matches_greedy() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        for budget in [60, 120, 250] {
            let ilp = c.compress(&snippets, budget).unwrap();
            let greedy = c.compress_greedy(&snippets, budget);
            assert!(
                ilp.selected_value >= greedy.selected_value - 1e-9,
                "budget {budget}: ilp {} < greedy {}",
                ilp.selected_value,
                greedy.selected_value
            );
        }
    }

    #[test]
    fn lines_have_the_paper_format() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 300).unwrap();
        assert!(!out.lines.is_empty());
        for line in &out.lines {
            let (lhs, rhs) = line.split_once(':').expect("A: B, C format");
            assert!(lhs.contains('.'), "qualified name: {lhs}");
            assert!(!rhs.trim().is_empty());
        }
    }

    #[test]
    fn zero_budget_yields_empty_description() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 0).unwrap();
        assert!(out.lines.is_empty());
        assert_eq!(out.tokens, 0);
    }

    #[test]
    fn obfuscated_rendering_hides_names() {
        let (w, snippets) = tpch_snippets();
        let ob = Obfuscator::new(&w.catalog);
        let c = Compressor::obfuscated(&w.catalog, &ob);
        let out = c.compress(&snippets, 300).unwrap();
        let text = out.text();
        assert!(!text.contains("lineitem"), "{text}");
        assert!(!text.contains("orderkey"), "{text}");
        assert!(text.contains('T') && text.contains('C'), "{text}");
    }

    #[test]
    fn symmetric_directions_are_never_both_selected() {
        let (w, snippets) = tpch_snippets();
        let c = Compressor::new(&w.catalog);
        let out = c.compress(&snippets, 400).unwrap();
        // If A: …B… exists, no line may contain B: …A…
        for (i, line) in out.lines.iter().enumerate() {
            let (lhs, rhs) = line.split_once(':').unwrap();
            for member in rhs.split(',') {
                let member = member.trim();
                for (j, other) in out.lines.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let (olhs, orhs) = other.split_once(':').unwrap();
                    if olhs.trim() == member {
                        assert!(
                            !orhs.split(',').any(|m| m.trim() == lhs.trim()),
                            "symmetric pair rendered twice: {line} / {other}"
                        );
                    }
                }
            }
        }
    }
}

//! Property-based cross-checks for the counting and sampling stack:
//!
//! * bounded exact counting (with its unit simplification and
//!   decomposition shortcuts) agrees with bit-mask brute force on
//!   random CNFs of up to 20 projection variables, and on CNFs with
//!   unit clauses projected onto a prefix of their variables;
//! * the XOR-hash approximate count lands within its ε tolerance with
//!   an observed failure rate bounded by δ across seeds;
//! * sampled models are distinct, valid, and near-uniform (chi-square
//!   smoke test on a small formula).

use llhsc_count::{approx_count, count_exact, sample_diverse, ApproxParams, SampleParams};
use llhsc_sat::{Cnf, Lit, Var};
use proptest::prelude::*;

/// A clause as `(var_index, positive)` pairs.
fn arb_clause(n: usize) -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0..n, any::<bool>()), 1..=4)
}

/// Random CNFs over 8–20 variables with few clauses, so projected
/// counts routinely exceed the approximate counter's pivot and the
/// hash path actually runs.
fn arb_cnf() -> impl Strategy<Value = (usize, Vec<Vec<(usize, bool)>>)> {
    (8..=20usize)
        .prop_flat_map(|n| prop::collection::vec(arb_clause(n), 0..=12).prop_map(move |cs| (n, cs)))
}

/// Random CNFs over 8–14 variables plus 0–3 unit clauses, projected
/// onto the first `k ≥ 1` variables: components then hold fixed and
/// unprojected variables, which [`arb_cnf`] never produces.
fn arb_projected_cnf() -> impl Strategy<Value = (usize, usize, Vec<Vec<(usize, bool)>>)> {
    (8..=14usize).prop_flat_map(|n| {
        (
            1..=n,
            prop::collection::vec(arb_clause(n), 0..=12),
            prop::collection::vec((0..n, any::<bool>()), 0..=3),
        )
            .prop_map(move |(k, mut clauses, units)| {
                clauses.extend(units.into_iter().map(|u| vec![u]));
                (n, k, clauses)
            })
    })
}

/// Smaller instances for the approximate-count sweep, which runs many
/// full (ε, δ) estimates per case and would otherwise dominate the
/// suite's runtime.
fn arb_cnf_small() -> impl Strategy<Value = (usize, Vec<Vec<(usize, bool)>>)> {
    (8..=16usize)
        .prop_flat_map(|n| prop::collection::vec(arb_clause(n), 0..=8).prop_map(move |cs| (n, cs)))
}

fn build(n: usize, clauses: &[Vec<(usize, bool)>]) -> (Cnf, Vec<Lit>) {
    let mut cnf = Cnf::new();
    cnf.reserve_vars(n);
    for c in clauses {
        cnf.add_clause(c.iter().map(|&(v, s)| Lit::new(Var::from_index(v), s)));
    }
    let proj = (0..n).map(|i| Lit::pos(Var::from_index(i))).collect();
    (cnf, proj)
}

/// Exact model count by bit-mask enumeration of all `2^n` assignments.
fn brute_force(n: usize, clauses: &[Vec<(usize, bool)>]) -> u64 {
    brute_force_projected(n, n, clauses)
}

/// Distinct assignments to the first `k` variables that extend to a
/// model, by bit-mask enumeration of all `2^n` assignments.
fn brute_force_projected(n: usize, k: usize, clauses: &[Vec<(usize, bool)>]) -> u64 {
    let masks: Vec<(u32, u32)> = clauses
        .iter()
        .map(|c| {
            let mut pos = 0u32;
            let mut neg = 0u32;
            for &(v, s) in c {
                if s {
                    pos |= 1 << v;
                } else {
                    neg |= 1 << v;
                }
            }
            (pos, neg)
        })
        .collect();
    let mut seen = vec![false; 1 << k];
    for assign in 0u32..(1u32 << n) {
        if masks
            .iter()
            .all(|&(pos, neg)| pos & assign != 0 || neg & !assign != 0)
        {
            seen[(assign & ((1 << k) - 1)) as usize] = true;
        }
    }
    seen.iter().filter(|&&s| s).count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Decomposed bounded exact counting equals brute force.
    #[test]
    fn exact_count_matches_bruteforce((n, clauses) in arb_cnf()) {
        let (cnf, proj) = build(n, &clauses);
        let expected = brute_force(n, &clauses);
        let r = count_exact(&cnf, &proj, 1 << 21);
        prop_assert!(r.exact);
        prop_assert_eq!(r.models, expected);
    }

    /// The (ε, δ) estimate stays within ε of the truth, with failures
    /// across seeds bounded by δ (with slack for the loose Chernoff
    /// constant behind `trials_for`; the true per-run failure rate is
    /// far below δ, so 2-in-10 would already indicate a broken hash
    /// family rather than bad luck).
    #[test]
    fn approx_count_within_epsilon_across_seeds((n, clauses) in arb_cnf_small()) {
        let (cnf, proj) = build(n, &clauses);
        let truth = brute_force(n, &clauses) as f64;
        let params = ApproxParams::default();
        let lo = truth / (1.0 + params.epsilon);
        let hi = truth * (1.0 + params.epsilon);
        let seeds = 6u64;
        let mut failures = 0u32;
        for seed in 0..seeds {
            let r = approx_count(&cnf, &proj, &ApproxParams { seed, ..params }, None);
            let est = r.estimate as f64;
            if r.exact {
                prop_assert_eq!(r.estimate, truth as u64);
            } else if est < lo || est > hi {
                failures += 1;
            }
        }
        let allowed = (params.delta * seeds as f64).ceil() as u32;
        prop_assert!(
            failures <= allowed,
            "{failures} of {seeds} seeds missed [{lo}, {hi}]"
        );
    }

    /// Samples are distinct and every one satisfies the formula.
    #[test]
    fn samples_are_distinct_and_valid((n, clauses) in arb_cnf()) {
        let (cnf, proj) = build(n, &clauses);
        let expected = brute_force(n, &clauses);
        let k = 8usize;
        let r = sample_diverse(&cnf, &proj, &SampleParams::new(k, 42), None);
        prop_assert_eq!(r.models.len() as u64, expected.min(k as u64));
        let mut dedup = r.models.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), r.models.len(), "duplicate sample");
        for m in &r.models {
            let mut s = cnf.to_solver();
            for (l, &val) in proj.iter().zip(m) {
                s.add_clause([if val { *l } else { !*l }]);
            }
            prop_assert_eq!(s.solve(), llhsc_sat::SolveResult::Sat);
        }
    }
}

proptest! {
    // Cheap cases (at most 2^14 assignments each), so more of them.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact counting on a projected prefix, with units to fix, equals
    /// the number of distinct projected assignments that extend to a
    /// model.
    #[test]
    fn projected_count_with_units_matches_bruteforce((n, k, clauses) in arb_projected_cnf()) {
        let (cnf, mut proj) = build(n, &clauses);
        proj.truncate(k);
        let expected = brute_force_projected(n, k, &clauses);
        let r = count_exact(&cnf, &proj, 1 << 21);
        prop_assert!(r.exact);
        prop_assert_eq!(r.models, expected);
    }
}

/// Draws one model per seed from a 7-model formula and checks the
/// frequency table against uniform with a chi-square statistic. With
/// 200 expected hits per model and 6 degrees of freedom, 30 is far out
/// in the tail (p < 1e-4) — a generous smoke bound that still catches
/// any systematic bias.
#[test]
fn sampling_is_near_uniform_chi_square() {
    let mut cnf = Cnf::new();
    let vars: Vec<Var> = (0..3).map(|_| cnf.new_var()).collect();
    cnf.add_clause(vars.iter().map(|&v| Lit::pos(v)));
    let proj: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();

    let cells = 7usize; // 2^3 − 1 models of (a ∨ b ∨ c)
    let draws_per_cell = 200usize;
    let draws = cells * draws_per_cell;
    let mut observed = vec![0u64; cells];
    for seed in 0..draws as u64 {
        let r = sample_diverse(&cnf, &proj, &SampleParams::new(1, seed), None);
        assert_eq!(r.models.len(), 1);
        let idx = r.models[0]
            .iter()
            .fold(0usize, |acc, &b| (acc << 1) | usize::from(b));
        assert!(idx >= 1, "all-false is not a model");
        observed[idx - 1] += 1;
    }

    let expected = draws_per_cell as f64;
    let chi2: f64 = observed
        .iter()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum();
    assert!(chi2 < 30.0, "chi-square {chi2:.2}, observed {observed:?}");
}

/// The same chi-square bound holds when the draws are forced through
/// the XOR-hash cell path instead of exhaustive enumeration.
#[test]
fn hash_cell_sampling_is_near_uniform_chi_square() {
    let mut cnf = Cnf::new();
    let vars: Vec<Var> = (0..3).map(|_| cnf.new_var()).collect();
    cnf.add_clause(vars.iter().map(|&v| Lit::pos(v)));
    let proj: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();

    let cells = 7usize;
    let draws_per_cell = 100usize;
    let draws = cells * draws_per_cell;
    let mut observed = vec![0u64; cells];
    for seed in 0..draws as u64 {
        let params = SampleParams {
            exact_cap: 1, // force the hash path
            ..SampleParams::new(1, seed)
        };
        let r = sample_diverse(&cnf, &proj, &params, None);
        assert_eq!(r.models.len(), 1);
        let idx = r.models[0]
            .iter()
            .fold(0usize, |acc, &b| (acc << 1) | usize::from(b));
        observed[idx - 1] += 1;
    }

    let expected = draws_per_cell as f64;
    let chi2: f64 = observed
        .iter()
        .map(|&o| {
            let d = o as f64 - expected;
            d * d / expected
        })
        .sum();
    assert!(chi2 < 30.0, "chi-square {chi2:.2}, observed {observed:?}");
}

//! Configuration-space analytics: model counting and diverse sampling.
//!
//! The paper's feature-model analyses (§II-B) stop at "generate all
//! valid products". This crate adds the two design-space-exploration
//! primitives the ROADMAP names on top of that machinery: *how many*
//! valid configurations a formula admits, and a *diverse, near-uniform
//! sample* of them for regression testing. Everything operates on a
//! plain [`llhsc_sat::Cnf`] plus a projection — a list of literals
//! whose variables define the configuration space (auxiliary Tseitin
//! variables are hidden) and whose signs define how values are
//! reported.
//!
//! Three entry points:
//!
//! * [`count_exact`] — bounded exact counting via projected All-SAT
//!   ([`llhsc_sat::ModelIter::count_up_to`]) on the unit-simplified
//!   formula, with connected-component decomposition and free-variable
//!   shortcuts, under an explicit model budget.
//! * [`approx_count`] — XOR-hash approximate `#SAT` with an (ε, δ)
//!   guarantee: random parity constraints split the space into cells,
//!   a binary search finds the density where one cell is exactly
//!   countable, and a median over trials boosts confidence.
//! * [`sample_diverse`] — k distinct near-uniform models drawn via
//!   hash cells (or exhaustively for small spaces), greedily re-ordered
//!   by pairwise Hamming distance.
//!
//! All three are deterministic for a fixed seed: randomness comes from
//! the workspace's splitmix64-seeded xorshift64* generator in
//! [`rng`], which also serves the fuzz harness (`llhsc-fuzz`
//! re-exports it). See `docs/ANALYTICS.md` for the algorithms, budget
//! semantics and output schemas.

mod approx;
mod exact;
pub mod rng;
mod sample;
pub mod xor;

pub use approx::{approx_count, pivot_for, trials_for, ApproxCount, ApproxParams};
pub use exact::{count_exact, ExactCount};
pub use sample::{sample_diverse, SampleParams, SampleSet};

#[cfg(test)]
mod tests {
    use llhsc_sat::{Cnf, Lit, Var};

    /// Exact, approximate and exhaustive-sampling answers agree on one
    /// nontrivial formula.
    #[test]
    fn the_three_views_agree() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..4).map(|_| cnf.new_var()).collect();
        cnf.add_clause([Lit::pos(vars[0]), Lit::pos(vars[1])]);
        cnf.add_clause([Lit::neg(vars[2]), Lit::pos(vars[3])]);
        let proj: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();

        let exact = crate::count_exact(&cnf, &proj, 1_000);
        assert!(exact.exact);

        let approx = crate::approx_count(&cnf, &proj, &crate::ApproxParams::default(), None);
        assert!(approx.exact, "9 models fit under the pivot");
        assert_eq!(approx.estimate, exact.models);

        let sample = crate::sample_diverse(
            &cnf,
            &proj,
            &crate::SampleParams::new(exact.models as usize, 1),
            None,
        );
        assert_eq!(sample.models.len() as u64, exact.models);
    }
}

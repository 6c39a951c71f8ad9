//! Bounded exact model counting via projected All-SAT.
//!
//! The workhorse is [`ModelIter::count_up_to`] — enumeration with
//! blocking clauses, stopped at an explicit budget — but the formula is
//! simplified first and two decomposition shortcuts keep the
//! enumeration small:
//!
//! * **Root-level units.** Unit clauses are propagated to a fixpoint
//!   over the clauses; clauses a fixed literal satisfies are dropped and
//!   fixed-false literals stripped from the rest. A fixed projection
//!   variable contributes a factor of 1. On a feature model this fixes
//!   the asserted root, which would otherwise join every group below it
//!   into one component.
//! * **Free variables.** An unfixed projection variable that occurs in
//!   no simplified clause contributes an independent factor of 2 and is
//!   never enumerated.
//! * **Connected components.** Variables are grouped by co-occurrence
//!   in the simplified clauses (a union-find); projection variables in
//!   different components are independent, so the projected count is
//!   the *product* of per-component counts and each component is
//!   enumerated separately. A formula with c components of k models each
//!   costs `c·k` solver models instead of `k^c`.
//!
//! All counts saturate at `u64::MAX`.

use llhsc_sat::{Cnf, Lit, ModelIter, SolveResult, Var};

/// Result of [`count_exact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactCount {
    /// The projected model count (saturating); a lower bound unless
    /// [`ExactCount::exact`].
    pub models: u64,
    /// True when the budget sufficed and `models` is the exact count.
    pub exact: bool,
    /// Connected components the unfixed projection variables split
    /// into.
    pub components: usize,
    /// Unfixed projection variables occurring in no simplified clause
    /// (counted as `2^k` without enumeration).
    pub free_vars: usize,
    /// Models actually materialised by the solver.
    pub enumerated: u64,
    /// Total solver `solve` calls.
    pub solves: u64,
}

/// Returns the distinct variables of a projection, preserving first
/// occurrence order.
pub(crate) fn distinct_vars(projection: &[Lit]) -> Vec<Var> {
    let mut seen = vec![];
    let mut out = Vec::with_capacity(projection.len());
    for l in projection {
        let v = l.var();
        if !seen.contains(&v) {
            seen.push(v);
            out.push(v);
        }
    }
    out
}

/// Union-find over variable indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The values unit propagation over `cnf`'s clauses fixes at the root
/// level, indexed by variable. Only the clauses are read, so the result
/// is a function of the formula alone. A clause is revisited whenever
/// one of its variables is fixed, so the fixpoint does not depend on
/// clause order.
fn root_units(cnf: &Cnf) -> Vec<Option<bool>> {
    let clauses: Vec<&[Lit]> = cnf.clauses().collect();
    let mut occurrences = vec![Vec::new(); cnf.num_vars()];
    for (i, clause) in clauses.iter().enumerate() {
        for l in *clause {
            occurrences[l.var().index()].push(i);
        }
    }
    let mut value = vec![None; cnf.num_vars()];
    let mut pending: Vec<usize> = (0..clauses.len()).collect();
    while let Some(i) = pending.pop() {
        let mut open = None;
        let mut unit = true;
        for &l in clauses[i] {
            match value[l.var().index()] {
                Some(v) if v == l.is_positive() => {
                    unit = false;
                    break;
                }
                Some(_) => {}
                None if open.is_none() || open == Some(l) => open = Some(l),
                None => {
                    unit = false;
                    break;
                }
            }
        }
        // An all-false clause cannot occur: the caller has proved the
        // formula satisfiable, and propagation only derives implied
        // literals.
        if let (true, Some(l)) = (unit, open) {
            value[l.var().index()] = Some(l.is_positive());
            pending.extend(occurrences[l.var().index()].iter().copied());
        }
    }
    value
}

/// Counts the models of `cnf` projected onto `projection`, enumerating
/// at most `budget` models in total across all components.
///
/// The projection may be empty (the count is then 1 for a satisfiable
/// formula, 0 otherwise) and may mention variables that occur in no
/// clause. Literal signs are ignored — a projection is a set of
/// variables for counting purposes.
///
/// When the budget runs out the result is a valid lower bound with
/// `exact == false`: completed components contribute their full factor,
/// the truncated component its partial count, and every remaining
/// component at least 1 (the formula is satisfiable at that point).
pub fn count_exact(cnf: &Cnf, projection: &[Lit], budget: u64) -> ExactCount {
    let vars = distinct_vars(projection);

    let mut result = ExactCount {
        models: 0,
        exact: true,
        components: 0,
        free_vars: 0,
        enumerated: 0,
        solves: 0,
    };

    // One satisfiability check up front: an unsat formula counts 0 and
    // the per-component product below is only sound once satisfiability
    // of every component is known.
    let mut probe = cnf.to_solver();
    let sat = probe.solve() == SolveResult::Sat;
    result.solves = probe.stats().solves;
    if !sat {
        return result;
    }

    // Group the unfixed projection variables by their connectivity in
    // the unit-simplified clauses: satisfied clauses are dropped and
    // fixed (false) literals join nothing.
    let fixed = root_units(cnf);
    let mut dsu = Dsu::new(cnf.num_vars());
    let mut occurs = vec![false; cnf.num_vars()];
    for clause in cnf.clauses() {
        if clause
            .iter()
            .any(|l| fixed[l.var().index()] == Some(l.is_positive()))
        {
            continue;
        }
        let mut prev = None;
        for l in clause.iter().filter(|l| fixed[l.var().index()].is_none()) {
            let v = l.var().index();
            occurs[v] = true;
            if let Some(p) = prev {
                dsu.union(p, v);
            }
            prev = Some(v);
        }
    }

    let mut groups: Vec<(usize, Vec<Var>)> = Vec::new();
    for &v in &vars {
        if fixed[v.index()].is_some() {
            continue;
        }
        if !occurs[v.index()] {
            result.free_vars += 1;
            continue;
        }
        let root = dsu.find(v.index());
        match groups.iter_mut().find(|(r, _)| *r == root) {
            Some((_, group)) => group.push(v),
            None => groups.push((root, vec![v])),
        }
    }
    result.components = groups.len();

    let mut product: u64 = 1;
    for (_, group) in &groups {
        let remaining = budget.saturating_sub(result.enumerated);
        if remaining == 0 {
            result.exact = false;
            break;
        }
        let mut solver = cnf.to_solver();
        let bc = ModelIter::projected(&mut solver, group.clone()).count_up_to(remaining);
        result.enumerated += bc.models;
        result.solves += solver.stats().solves;
        product = product.saturating_mul(bc.models);
        if !bc.is_exact() {
            // Lower bound: remaining components contribute ≥ 1 each.
            result.exact = false;
            break;
        }
    }

    if result.free_vars >= 64 {
        product = u64::MAX;
    } else {
        product = product.saturating_mul(1u64 << result.free_vars);
    }
    result.models = product;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(vars: &[Var]) -> Vec<Lit> {
        vars.iter().map(|&v| Lit::pos(v)).collect()
    }

    #[test]
    fn counts_a_simple_or() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
        let r = count_exact(&cnf, &lits(&[a, b]), 100);
        assert_eq!(r.models, 3);
        assert!(r.exact);
        assert_eq!(r.components, 1);
    }

    #[test]
    fn unsat_counts_zero() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([Lit::pos(a)]);
        cnf.add_clause([Lit::neg(a)]);
        let r = count_exact(&cnf, &lits(&[a]), 100);
        assert_eq!(r.models, 0);
        assert!(r.exact);
    }

    #[test]
    fn free_vars_multiply_without_enumeration() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let free1 = cnf.new_var();
        let free2 = cnf.new_var();
        cnf.add_clause([Lit::pos(a)]);
        let r = count_exact(&cnf, &lits(&[a, free1, free2]), 100);
        assert_eq!(r.models, 4);
        assert!(r.exact);
        assert_eq!(r.free_vars, 2);
        assert_eq!(r.components, 0, "the unit fixes a");
        assert_eq!(r.enumerated, 0, "nothing is left to enumerate");
    }

    /// A feature-model shape: a unit root `r`, six children that each
    /// require it, exactly one of x1..x3 and at least one of x4..x6.
    /// Fixing the root splits the groups apart: 3 × 7 = 21 models from
    /// 3 + 7 enumerated instead of 21 in one joined component.
    #[test]
    fn root_units_split_components() {
        let mut cnf = Cnf::new();
        let r = cnf.new_var();
        let xs: Vec<Var> = (0..6).map(|_| cnf.new_var()).collect();
        cnf.add_clause([Lit::pos(r)]);
        for &x in &xs {
            cnf.add_clause([Lit::neg(x), Lit::pos(r)]);
        }
        cnf.add_clause(lits(&xs[..3]));
        for i in 0..3 {
            for j in i + 1..3 {
                cnf.add_clause([Lit::neg(xs[i]), Lit::neg(xs[j])]);
            }
        }
        cnf.add_clause(lits(&xs[3..]));
        let mut proj = vec![r];
        proj.extend(&xs);
        let r = count_exact(&cnf, &lits(&proj), 1_000);
        assert_eq!(r.models, 21);
        assert!(r.exact);
        assert_eq!(r.components, 2);
        assert_eq!(r.free_vars, 0);
        assert_eq!(r.enumerated, 10);
    }

    /// Units that chain against the clause order: one pass over
    /// `¬b ∨ c`, `¬a ∨ b`, `a` fixes only `a`, the fixpoint fixes all
    /// three. None of them is free, and the count matches plain
    /// enumeration.
    #[test]
    fn units_propagate_against_clause_order() {
        let mut cnf = Cnf::new();
        let vs: Vec<Var> = (0..4).map(|_| cnf.new_var()).collect();
        let (a, b, c) = (vs[0], vs[1], vs[2]);
        cnf.add_clause([Lit::neg(b), Lit::pos(c)]);
        cnf.add_clause([Lit::neg(a), Lit::pos(b)]);
        cnf.add_clause([Lit::pos(a)]);
        let r = count_exact(&cnf, &lits(&vs), 1_000);
        let mut s = cnf.to_solver();
        let plain = ModelIter::projected(&mut s, vs).count_up_to(1_000);
        assert_eq!(r.models, plain.models);
        assert_eq!(r.models, 2);
        assert!(r.exact && plain.is_exact());
        assert_eq!(r.free_vars, 1, "only the unconstrained fourth variable");
        assert_eq!(r.components, 0);
        assert_eq!(r.enumerated, 0);
    }

    #[test]
    fn components_multiply() {
        // Two independent ORs: 3 × 3 = 9 models, but only 3 + 3
        // enumerated.
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        let d = cnf.new_var();
        cnf.add_clause([Lit::pos(a), Lit::pos(b)]);
        cnf.add_clause([Lit::pos(c), Lit::pos(d)]);
        let r = count_exact(&cnf, &lits(&[a, b, c, d]), 100);
        assert_eq!(r.models, 9);
        assert!(r.exact);
        assert_eq!(r.components, 2);
        assert_eq!(r.enumerated, 6);
    }

    #[test]
    fn budget_truncates_to_a_lower_bound() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.add_clause([Lit::pos(a), Lit::pos(b), Lit::pos(c)]);
        let r = count_exact(&cnf, &lits(&[a, b, c]), 2);
        assert!(!r.exact);
        assert_eq!(r.models, 2, "lower bound equals the enumerated cap");
    }

    #[test]
    fn empty_projection_counts_satisfiability() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([Lit::pos(a)]);
        let r = count_exact(&cnf, &[], 10);
        assert_eq!(r.models, 1);
        assert!(r.exact);
    }

    #[test]
    fn duplicate_projection_lits_are_one_variable() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([Lit::pos(a)]);
        let r = count_exact(&cnf, &[Lit::pos(a), Lit::neg(a)], 10);
        assert_eq!(r.models, 1);
    }

    #[test]
    fn cross_checked_against_plain_enumeration() {
        // 5 vars, mixed clauses: decomposed count must equal the
        // undecomposed All-SAT count.
        let mut cnf = Cnf::new();
        let vs: Vec<Var> = (0..5).map(|_| cnf.new_var()).collect();
        cnf.add_clause([Lit::pos(vs[0]), Lit::neg(vs[1])]);
        cnf.add_clause([Lit::pos(vs[1]), Lit::pos(vs[2])]);
        cnf.add_clause([Lit::neg(vs[3]), Lit::pos(vs[4])]);
        let r = count_exact(&cnf, &lits(&vs), 1_000);
        let mut s = cnf.to_solver();
        let plain = ModelIter::projected(&mut s, vs).count_up_to(1_000);
        assert_eq!(r.models, plain.models);
        assert!(r.exact && plain.is_exact());
    }
}

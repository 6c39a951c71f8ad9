//! Bit-blasting: lowering terms to CNF over solver literals.
//!
//! Boolean structure goes through the Tseitin transform (every connective
//! gets a definitional literal); bit-vector equalities become one
//! conjunction of bitwise `iff`s and unsigned comparisons a borrow chain
//! of majority gates (6 clauses per bit). Every gate first folds inputs
//! that are the blaster's constant literal, repeated or complementary, so
//! binding a variable to a constant costs one conjunction over its
//! (possibly negated) bits. Encodings are cached per term, so shared
//! subterms are blasted once — this is what makes the incremental
//! [`Context`] (re)checks cheap, mirroring the paper's use of one growing
//! Z3 instance.
//!
//! [`Context`]: crate::Context

use std::collections::HashMap;

use llhsc_sat::{Lit, Solver};

use crate::term::{mask, Sort, TermData, TermId, TermPool};

/// The per-term encoding: a single literal for Bool terms, a handle to
/// an interned LSB-first literal vector for BitVec (and interned Str)
/// terms. `Copy`, so cache hits in [`Blaster::encode`] return without
/// cloning a `Vec<Lit>` — the old cache-hit path allocated on every
/// lookup of an already-blasted term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Encoding {
    Bool(Lit),
    Bits(BitsId),
}

/// Handle to an interned literal vector in the blaster's flat bit
/// store: a `(offset, len)` slice, resolved by [`Blaster::bits_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BitsId {
    off: u32,
    len: u32,
}

/// Width (in bits) used to encode interned strings as bit-vectors.
/// 32 bits comfortably exceeds any realistic number of distinct node or
/// property names in a DeviceTree.
pub(crate) const STR_WIDTH: u32 = 32;

#[derive(Debug)]
pub(crate) struct Blaster {
    cache: HashMap<TermId, Encoding>,
    /// Flat store of every interned bit-vector encoding, back to back;
    /// a [`BitsId`] is an `(offset, len)` slice into it.
    bit_store: Vec<Lit>,
    /// Literal that is constant-true in the solver.
    true_lit: Option<Lit>,
    /// Cache hits in [`Blaster::encode`] — terms returned without any
    /// fresh gates or clauses.
    hits: u64,
    /// Cache misses — terms lowered to fresh gate networks.
    misses: u64,
}

impl Blaster {
    pub(crate) fn new() -> Blaster {
        Blaster {
            cache: HashMap::new(),
            bit_store: Vec::new(),
            true_lit: None,
            hits: 0,
            misses: 0,
        }
    }

    pub(crate) fn cached(&self, t: TermId) -> Option<Encoding> {
        self.cache.get(&t).copied()
    }

    /// Resolves an interned bit-vector handle to its literals.
    pub(crate) fn bits_of(&self, id: BitsId) -> &[Lit] {
        &self.bit_store[id.off as usize..(id.off + id.len) as usize]
    }

    fn intern_bits(&mut self, lits: &[Lit]) -> BitsId {
        let off = self.bit_store.len() as u32;
        self.bit_store.extend_from_slice(lits);
        BitsId {
            off,
            len: lits.len() as u32,
        }
    }

    /// `(cache hits, cache misses)` of [`Blaster::encode`] over the
    /// blaster's lifetime. The hit count measures how much encoding
    /// work term sharing (and session reuse) saved.
    pub(crate) fn encode_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    fn true_lit(&mut self, solver: &mut Solver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = Lit::pos(solver.new_var());
        solver.add_clause([l]);
        self.true_lit = Some(l);
        l
    }

    fn false_lit(&mut self, solver: &mut Solver) -> Lit {
        !self.true_lit(solver)
    }

    fn const_lit(&mut self, solver: &mut Solver, b: bool) -> Lit {
        if b {
            self.true_lit(solver)
        } else {
            self.false_lit(solver)
        }
    }

    /// `Some(b)` when `l` is the blaster's own constant literal
    /// (`true_lit` or its negation). Only that literal is folded: it is
    /// a ground unit clause that no `pop` or retired slice can undo,
    /// whereas a value the solver merely happens to have fixed can be.
    fn const_of(&self, l: Lit) -> Option<bool> {
        let t = self.true_lit?;
        if l == t {
            Some(true)
        } else if l == !t {
            Some(false)
        } else {
            None
        }
    }

    // ----- gates (Tseitin definitions, folding constant, repeated and
    // complementary inputs before allocating a definitional literal) -----

    fn gate_and(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        self.gate_and_many(solver, &[a, b])
    }

    fn gate_or(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        !self.gate_and(solver, !a, !b)
    }

    fn gate_xor(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        match (self.const_of(a), self.const_of(b)) {
            (Some(x), _) => return if x { !b } else { b },
            (_, Some(y)) => return if y { !a } else { a },
            _ if a == b => return self.false_lit(solver),
            _ if a == !b => return self.true_lit(solver),
            _ => {}
        }
        let o = Lit::pos(solver.new_var());
        solver.add_clause([!a, !b, !o]);
        solver.add_clause([a, b, !o]);
        solver.add_clause([a, !b, o]);
        solver.add_clause([!a, b, o]);
        o
    }

    /// `o ↔ (a ↔ b)`
    fn gate_iff(&mut self, solver: &mut Solver, a: Lit, b: Lit) -> Lit {
        !self.gate_xor(solver, a, b)
    }

    /// `o ↔ ite(c, t, e)`
    fn gate_mux(&mut self, solver: &mut Solver, c: Lit, t: Lit, e: Lit) -> Lit {
        match self.const_of(c) {
            Some(true) => return t,
            Some(false) => return e,
            None if t == e => return t,
            None => {}
        }
        let o = Lit::pos(solver.new_var());
        solver.add_clause([!c, !t, o]);
        solver.add_clause([!c, t, !o]);
        solver.add_clause([c, !e, o]);
        solver.add_clause([c, e, !o]);
        o
    }

    /// Majority of three. A constant input leaves the `and` (⊥) or the
    /// `or` (⊤) of the other two; a repeated input decides it, and a
    /// complementary pair leaves the third.
    fn gate_maj(&mut self, solver: &mut Solver, a: Lit, b: Lit, c: Lit) -> Lit {
        for (x, y, z) in [(a, b, c), (b, c, a), (c, a, b)] {
            match self.const_of(x) {
                Some(false) => return self.gate_and(solver, y, z),
                Some(true) => return self.gate_or(solver, y, z),
                None if x == y => return x,
                None if x == !y => return z,
                None => {}
            }
        }
        let o = Lit::pos(solver.new_var());
        solver.add_clause([!a, !b, o]);
        solver.add_clause([!a, !c, o]);
        solver.add_clause([!b, !c, o]);
        solver.add_clause([a, b, !o]);
        solver.add_clause([a, c, !o]);
        solver.add_clause([b, c, !o]);
        o
    }

    /// `o ↔ ⋀ lits`. ⊤ and repeated inputs drop out; a ⊥ input or a
    /// complementary pair makes the conjunction ⊥; a single survivor is
    /// returned as it is.
    fn gate_and_many(&mut self, solver: &mut Solver, lits: &[Lit]) -> Lit {
        let mut kept: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.const_of(l) {
                Some(true) => {}
                Some(false) => return l,
                None if kept.contains(&!l) => return self.false_lit(solver),
                None if kept.contains(&l) => {}
                None => kept.push(l),
            }
        }
        match kept[..] {
            [] => self.true_lit(solver),
            [l] => l,
            _ => {
                let o = Lit::pos(solver.new_var());
                for &l in &kept {
                    solver.add_clause([l, !o]);
                }
                let mut clause: Vec<Lit> = kept.iter().map(|&l| !l).collect();
                clause.push(o);
                solver.add_clause(clause);
                o
            }
        }
    }

    fn gate_or_many(&mut self, solver: &mut Solver, lits: &[Lit]) -> Lit {
        let negs: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        !self.gate_and_many(solver, &negs)
    }

    /// Unsigned `a < b` via an LSB-to-MSB borrow chain: the borrow out
    /// of bit `i` is `MAJ(¬a_i, b_i, lt)`, one majority gate per bit.
    fn ult_chain(&mut self, solver: &mut Solver, a: &[Lit], b: &[Lit]) -> Lit {
        debug_assert_eq!(a.len(), b.len());
        let mut lt = self.false_lit(solver);
        for (&x, &y) in a.iter().zip(b) {
            lt = self.gate_maj(solver, !x, y, lt);
        }
        lt
    }

    // ----- the main lowering -----

    pub(crate) fn bool_lit(&mut self, pool: &TermPool, solver: &mut Solver, t: TermId) -> Lit {
        match self.encode(pool, solver, t) {
            Encoding::Bool(l) => l,
            Encoding::Bits(_) => panic!("expected Bool term, found bit-vector"),
        }
    }

    fn bits_id(&mut self, pool: &TermPool, solver: &mut Solver, t: TermId) -> BitsId {
        match self.encode(pool, solver, t) {
            Encoding::Bits(b) => b,
            Encoding::Bool(_) => panic!("expected bit-vector term, found Bool"),
        }
    }

    /// Owned copy of a bit-vector operand's literals, for gate
    /// construction in the (once-per-term) uncached path. Cache *hits*
    /// of the parent term never reach this.
    fn bits(&mut self, pool: &TermPool, solver: &mut Solver, t: TermId) -> Vec<Lit> {
        let id = self.bits_id(pool, solver, t);
        self.bits_of(id).to_vec()
    }

    pub(crate) fn encode(&mut self, pool: &TermPool, solver: &mut Solver, t: TermId) -> Encoding {
        if let Some(&e) = self.cache.get(&t) {
            self.hits += 1;
            return e;
        }
        self.misses += 1;
        let enc = self.encode_uncached(pool, solver, t);
        self.cache.insert(t, enc);
        enc
    }

    fn const_bits(&mut self, solver: &mut Solver, value: u128, width: u32) -> Vec<Lit> {
        (0..width)
            .map(|i| {
                let bit = (value >> i) & 1 == 1;
                self.const_lit(solver, bit)
            })
            .collect()
    }

    fn fresh_bits(&mut self, solver: &mut Solver, width: u32) -> Vec<Lit> {
        (0..width).map(|_| Lit::pos(solver.new_var())).collect()
    }

    fn enc_bits(&mut self, v: Vec<Lit>) -> Encoding {
        let id = self.intern_bits(&v);
        Encoding::Bits(id)
    }

    fn encode_uncached(&mut self, pool: &TermPool, solver: &mut Solver, t: TermId) -> Encoding {
        use TermData::*;
        match pool.get(t).clone() {
            BoolConst(b) => Encoding::Bool(self.const_lit(solver, b)),
            BoolVar(_) | BoolVarIdx { .. } => Encoding::Bool(Lit::pos(solver.new_var())),
            Not(a) => {
                let l = self.bool_lit(pool, solver, a);
                Encoding::Bool(!l)
            }
            And(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|&x| self.bool_lit(pool, solver, x)).collect();
                Encoding::Bool(self.gate_and_many(solver, &lits))
            }
            Or(xs) => {
                let lits: Vec<Lit> = xs.iter().map(|&x| self.bool_lit(pool, solver, x)).collect();
                Encoding::Bool(self.gate_or_many(solver, &lits))
            }
            Xor(a, b) => {
                let (la, lb) = (
                    self.bool_lit(pool, solver, a),
                    self.bool_lit(pool, solver, b),
                );
                Encoding::Bool(self.gate_xor(solver, la, lb))
            }
            Implies(a, b) => {
                let (la, lb) = (
                    self.bool_lit(pool, solver, a),
                    self.bool_lit(pool, solver, b),
                );
                Encoding::Bool(self.gate_or(solver, !la, lb))
            }
            Iff(a, b) => {
                let (la, lb) = (
                    self.bool_lit(pool, solver, a),
                    self.bool_lit(pool, solver, b),
                );
                Encoding::Bool(self.gate_iff(solver, la, lb))
            }
            Ite(c, a, b) => {
                let lc = self.bool_lit(pool, solver, c);
                match pool.sort(a) {
                    Sort::Bool => {
                        let (la, lb) = (
                            self.bool_lit(pool, solver, a),
                            self.bool_lit(pool, solver, b),
                        );
                        Encoding::Bool(self.gate_mux(solver, lc, la, lb))
                    }
                    _ => {
                        let ba = self.bits(pool, solver, a);
                        let bb = self.bits(pool, solver, b);
                        let out = ba
                            .iter()
                            .zip(&bb)
                            .map(|(&x, &y)| self.gate_mux(solver, lc, x, y))
                            .collect();
                        self.enc_bits(out)
                    }
                }
            }
            Eq(a, b) => match pool.sort(a) {
                Sort::Bool => {
                    let (la, lb) = (
                        self.bool_lit(pool, solver, a),
                        self.bool_lit(pool, solver, b),
                    );
                    Encoding::Bool(self.gate_iff(solver, la, lb))
                }
                _ => {
                    let ba = self.bits(pool, solver, a);
                    let bb = self.bits(pool, solver, b);
                    let eqs: Vec<Lit> = ba
                        .iter()
                        .zip(&bb)
                        .map(|(&x, &y)| self.gate_iff(solver, x, y))
                        .collect();
                    Encoding::Bool(self.gate_and_many(solver, &eqs))
                }
            },
            BvConst { width, value } => {
                let v = self.const_bits(solver, value, width);
                self.enc_bits(v)
            }
            BvVar { width, .. } | BvVarIdx { width, .. } => {
                let v = self.fresh_bits(solver, width);
                self.enc_bits(v)
            }
            BvUlt(a, b) => {
                let (ba, bb) = (self.bits(pool, solver, a), self.bits(pool, solver, b));
                Encoding::Bool(self.ult_chain(solver, &ba, &bb))
            }
            BvUle(a, b) => {
                let (ba, bb) = (self.bits(pool, solver, a), self.bits(pool, solver, b));
                let gt = self.ult_chain(solver, &bb, &ba);
                Encoding::Bool(!gt)
            }
            Extract { hi, lo, arg } => {
                // A sub-range of an interned vector is itself contiguous
                // in the bit store: no fresh interning needed.
                let b = self.bits_id(pool, solver, arg);
                Encoding::Bits(BitsId {
                    off: b.off + lo,
                    len: hi - lo + 1,
                })
            }
            StrConst(id) => {
                let v = self.const_bits(solver, id as u128, STR_WIDTH);
                self.enc_bits(v)
            }
            StrVar(_) => {
                let v = self.fresh_bits(solver, STR_WIDTH);
                self.enc_bits(v)
            }
        }
    }
}

/// Evaluates a term to a concrete value given a total SAT model, using
/// the blaster's cached encodings. Returns `None` for terms that were
/// never encoded (they did not take part in the last check).
pub(crate) fn eval_in_model(blaster: &Blaster, model: &[bool], t: TermId) -> Option<EvalValue> {
    let lit_val = |l: Lit| -> Option<bool> {
        let v = model.get(l.var().index())?;
        Some(if l.is_positive() { *v } else { !*v })
    };
    match blaster.cached(t)? {
        Encoding::Bool(l) => Some(EvalValue::Bool(lit_val(l)?)),
        Encoding::Bits(id) => {
            let bits = blaster.bits_of(id);
            let mut v: u128 = 0;
            for (i, &b) in bits.iter().enumerate() {
                if lit_val(b)? {
                    v |= 1u128 << i;
                }
            }
            Some(EvalValue::Bits(mask(v, bits.len() as u32)))
        }
    }
}

/// Concrete value of an encoded term under a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvalValue {
    Bool(bool),
    Bits(u128),
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhsc_sat::SolveResult;

    type Gate = fn(&mut Blaster, &mut Solver, &[Lit]) -> Lit;

    /// Checks `gate` against `truth` with every argument drawn from every
    /// shape: one of three free variables in either polarity, or the
    /// blaster's constant. Under each assignment of the variables the
    /// output must be able to take the true value and no other — so a
    /// fold that returns the wrong literal, or a gate that excludes an
    /// assignment, fails. Unlike the term-level tests, this reaches the
    /// folds of two identical or complementary literals inside one
    /// bit-vector, which no term can build.
    fn check_gate(name: &str, arity: u32, gate: Gate, truth: fn(&[bool]) -> bool) {
        const SHAPES: usize = 8;
        for combo in 0..SHAPES.pow(arity) {
            let mut solver = Solver::new();
            let mut b = Blaster::new();
            let vars: Vec<Lit> = (0..3).map(|_| Lit::pos(solver.new_var())).collect();
            let t = b.true_lit(&mut solver);
            let args: Vec<Lit> = (0..arity)
                .map(|i| match combo / SHAPES.pow(i) % SHAPES {
                    0 => t,
                    1 => !t,
                    s if s % 2 == 0 => vars[(s - 2) / 2],
                    s => !vars[(s - 2) / 2],
                })
                .collect();
            let o = gate(&mut b, &mut solver, &args);
            for asg in 0..8u32 {
                let value = |l: Lit| {
                    let i = vars.iter().position(|v| v.var() == l.var());
                    match i {
                        None => l == t,
                        Some(i) => (asg >> i & 1 == 1) == l.is_positive(),
                    }
                };
                let want = truth(&args.iter().map(|&l| value(l)).collect::<Vec<_>>());
                let pins: Vec<Lit> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| if asg >> i & 1 == 1 { v } else { !v })
                    .collect();
                assert_eq!(
                    solver.solve_with(&pins),
                    SolveResult::Sat,
                    "{name}{args:?} excludes assignment {asg:03b}"
                );
                let mut refute = pins;
                refute.push(if want { !o } else { o });
                assert_eq!(
                    solver.solve_with(&refute),
                    SolveResult::Unsat,
                    "{name}{args:?} under {asg:03b} can differ from {want}"
                );
            }
        }
    }

    #[test]
    fn gates_match_their_truth_tables_on_every_input_shape() {
        check_gate(
            "and",
            2,
            |b, s, a| b.gate_and(s, a[0], a[1]),
            |v| v[0] && v[1],
        );
        check_gate(
            "or",
            2,
            |b, s, a| b.gate_or(s, a[0], a[1]),
            |v| v[0] || v[1],
        );
        check_gate(
            "xor",
            2,
            |b, s, a| b.gate_xor(s, a[0], a[1]),
            |v| v[0] != v[1],
        );
        check_gate(
            "iff",
            2,
            |b, s, a| b.gate_iff(s, a[0], a[1]),
            |v| v[0] == v[1],
        );
        check_gate(
            "mux",
            3,
            |b, s, a| b.gate_mux(s, a[0], a[1], a[2]),
            |v| if v[0] { v[1] } else { v[2] },
        );
        check_gate(
            "maj",
            3,
            |b, s, a| b.gate_maj(s, a[0], a[1], a[2]),
            |v| v.iter().filter(|&&x| x).count() >= 2,
        );
        for arity in 0..=3 {
            check_gate(
                "and_many",
                arity,
                |b, s, a| b.gate_and_many(s, a),
                |v| v.iter().all(|&x| x),
            );
            check_gate(
                "or_many",
                arity,
                |b, s, a| b.gate_or_many(s, a),
                |v| v.iter().any(|&x| x),
            );
        }
    }

    /// The unsigned value of LSB-first bits.
    fn unsigned(bits: &[bool]) -> u8 {
        bits.iter().rev().fold(0, |acc, &x| acc * 2 + u8::from(x))
    }

    #[test]
    fn comparator_matches_unsigned_order_on_every_bit_shape() {
        // `a <u b` at widths 1 and 2: the first half of the arguments is
        // `a`, the second `b`, each least significant bit first.
        check_gate(
            "ult/1",
            2,
            |b, s, a| b.ult_chain(s, &a[..1], &a[1..]),
            |v| unsigned(&v[..1]) < unsigned(&v[1..]),
        );
        check_gate(
            "ult/2",
            4,
            |b, s, a| b.ult_chain(s, &a[..2], &a[2..]),
            |v| unsigned(&v[..2]) < unsigned(&v[2..]),
        );
    }
}

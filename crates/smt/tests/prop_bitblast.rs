//! Bit-blasted semantics against native evaluation.
//!
//! The property tests assert `op(x, y) != expected` for concrete x, y
//! and require UNSAT — i.e. the gate network provably computes the same
//! function as the reference implementation on those inputs. Inputs are
//! fed in as *variables constrained by equality* (not constants) so the
//! term layer's constant folder cannot short-circuit the gate network
//! under test. The exhaustive tests below drive every encoder through
//! every operand shape and input assignment at widths 1–4, including the
//! constant, repeated and complementary inputs that the gates fold.

use llhsc_smt::{check_drat, CheckMode, CheckOptions, CheckResult, Context, Sort, TermId};
use proptest::prelude::*;

fn mask(v: u64, w: u32) -> u64 {
    if w >= 64 {
        v
    } else {
        v & ((1u64 << w) - 1)
    }
}

/// Builds variables x, y of width `w` pinned to the given values via
/// asserted equalities.
fn pinned_vars(ctx: &mut Context, w: u32, x: u64, y: u64) -> (TermId, TermId) {
    let xv = ctx.bv_var("x", w);
    let yv = ctx.bv_var("y", w);
    let xc = ctx.bv_const(u128::from(mask(x, w)), w);
    let yc = ctx.bv_const(u128::from(mask(y, w)), w);
    let ex = ctx.eq(xv, xc);
    let ey = ctx.eq(yv, yc);
    ctx.assert(ex);
    ctx.assert(ey);
    (xv, yv)
}

/// Asserts that `term != expected` is UNSAT, i.e. term == expected.
fn assert_equals(ctx: &mut Context, term: TermId, expected: u64, w: u32) -> bool {
    let e = ctx.bv_const(u128::from(mask(expected, w)), w);
    let eq = ctx.eq(term, e);
    let ne = ctx.not(eq);
    ctx.assert(ne);
    ctx.check() == CheckResult::Unsat
}

fn assert_bool(ctx: &mut Context, term: TermId, expected: bool) -> bool {
    let e = ctx.bool_const(expected);
    let eq = ctx.iff(term, e);
    let ne = ctx.not(eq);
    ctx.assert(ne);
    ctx.check() == CheckResult::Unsat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unsigned_compare_matches(x in any::<u64>(), y in any::<u64>(), w in 1u32..=64) {
        let (mx, my) = (mask(x, w), mask(y, w));
        let mut ctx = Context::new();
        let (xv, yv) = pinned_vars(&mut ctx, w, x, y);
        let t = ctx.bv_ult(xv, yv);
        prop_assert!(assert_bool(&mut ctx, t, mx < my));

        let mut ctx = Context::new();
        let (xv, yv) = pinned_vars(&mut ctx, w, x, y);
        let t = ctx.bv_ule(xv, yv);
        prop_assert!(assert_bool(&mut ctx, t, mx <= my));
    }

    #[test]
    fn extract_matches(x in any::<u64>(), w in 2u32..=64, a in 0u32..64, b in 0u32..64) {
        let (hi, lo) = ((a.max(b)) % w, (a.min(b)) % w);
        let (hi, lo) = (hi.max(lo), lo.min(hi));
        let nw = hi - lo + 1;
        let mut ctx = Context::new();
        let (xv, _) = pinned_vars(&mut ctx, w, x, 0);
        let t = ctx.bv_extract(xv, hi, lo);
        prop_assert!(assert_equals(&mut ctx, t, mask(mask(x, w) >> lo, nw), nw));
    }

    /// Folded (constant) and blasted (variable) paths agree on
    /// comparisons and extraction.
    #[test]
    fn folding_agrees_with_blasting(x in any::<u16>(), y in any::<u16>(), a in 0u32..16, b in 0u32..16) {
        let (hi, lo) = (a.max(b), a.min(b));
        let mut ctx = Context::new();
        let xc = ctx.bv_const(u128::from(x), 16);
        let yc = ctx.bv_const(u128::from(y), 16);
        let folded_lt = ctx.bv_ult(xc, yc); // folds to a Bool constant
        let folded_ext = ctx.bv_extract(xc, hi, lo); // folds to a constant
        let (xv, yv) = pinned_vars(&mut ctx, 16, x.into(), y.into());
        let blasted_lt = ctx.bv_ult(xv, yv);
        let blasted_ext = ctx.bv_extract(xv, hi, lo);
        let same_lt = ctx.iff(folded_lt, blasted_lt);
        let same_ext = ctx.eq(folded_ext, blasted_ext);
        let both = ctx.and([same_lt, same_ext]);
        let ne = ctx.not(both);
        ctx.assert(ne);
        prop_assert_eq!(ctx.check(), CheckResult::Unsat);
    }
}

// ----- exhaustive small-width equivalence -----

/// Bool operand shapes. Each one reaches the bit-blaster as a term of its
/// own, so the term layer's folding cannot hide what the gates do with a
/// constant, repeated or complementary input.
#[derive(Clone, Copy, Debug)]
enum BoolShape {
    /// The free variable `a`.
    A,
    /// The free variable `b`.
    B,
    /// `0 <= k` for a free 1-bit `k`: blasted to the constant true.
    True,
    /// `k < 0`: blasted to the constant false.
    False,
    /// `a = true`: a second term for `a`'s literal.
    AgainA,
    /// `¬a`.
    NotA,
}

const BOOL_SHAPES: [BoolShape; 6] = [
    BoolShape::A,
    BoolShape::B,
    BoolShape::True,
    BoolShape::False,
    BoolShape::AgainA,
    BoolShape::NotA,
];

impl BoolShape {
    fn term(self, ctx: &mut Context) -> TermId {
        let a = ctx.bool_var("a");
        let k = ctx.bv_var("k", 1);
        let zero = ctx.bv_const(0, 1);
        match self {
            BoolShape::A => a,
            BoolShape::B => ctx.bool_var("b"),
            BoolShape::True => ctx.bv_ule(zero, k),
            BoolShape::False => ctx.bv_ult(k, zero),
            BoolShape::AgainA => {
                let t = ctx.bool_const(true);
                ctx.eq(a, t)
            }
            BoolShape::NotA => ctx.not(a),
        }
    }

    fn eval(self, at: Inputs) -> bool {
        match self {
            BoolShape::A | BoolShape::AgainA => at.a,
            BoolShape::B => at.b,
            BoolShape::True => true,
            BoolShape::False => false,
            BoolShape::NotA => !at.a,
        }
    }

    fn uses(self) -> Uses {
        Uses {
            a: matches!(self, BoolShape::A | BoolShape::AgainA | BoolShape::NotA),
            b: matches!(self, BoolShape::B),
            ..Uses::default()
        }
    }
}

/// Bit-vector operand shapes of width `w`: the free variables `x` (the
/// low `w` bits of a wider variable) and `y`, `x` again under a second
/// term (an extract of an extract, which the term layer keeps apart but
/// the blaster resolves to the same bits), and every constant.
#[derive(Clone, Copy, Debug)]
enum BvShape {
    X,
    Y,
    AgainX,
    Const(u128),
}

impl BvShape {
    fn menu(w: u32) -> Vec<BvShape> {
        let mut shapes = vec![BvShape::X, BvShape::Y, BvShape::AgainX];
        shapes.extend((0..1u128 << w).map(BvShape::Const));
        shapes
    }

    fn term(self, ctx: &mut Context, w: u32) -> TermId {
        let v = ctx.bv_var("v", w + 2);
        match self {
            BvShape::X => ctx.bv_extract(v, w - 1, 0),
            BvShape::Y => ctx.bv_var("y", w),
            BvShape::AgainX => {
                let wide = ctx.bv_extract(v, w, 0);
                ctx.bv_extract(wide, w - 1, 0)
            }
            BvShape::Const(c) => ctx.bv_const(c, w),
        }
    }

    fn eval(self, at: Inputs) -> u128 {
        match self {
            BvShape::X | BvShape::AgainX => at.x,
            BvShape::Y => at.y,
            BvShape::Const(c) => c,
        }
    }

    fn uses(self) -> Uses {
        Uses {
            x: matches!(self, BvShape::X | BvShape::AgainX),
            y: matches!(self, BvShape::Y),
            ..Uses::default()
        }
    }
}

/// Which free inputs a case reads; only those are enumerated.
#[derive(Clone, Copy, Debug, Default)]
struct Uses {
    a: bool,
    b: bool,
    x: bool,
    y: bool,
}

impl std::ops::BitOr for Uses {
    type Output = Uses;
    fn bitor(self, o: Uses) -> Uses {
        Uses {
            a: self.a || o.a,
            b: self.b || o.b,
            x: self.x || o.x,
            y: self.y || o.y,
        }
    }
}

/// One assignment of the free inputs.
#[derive(Clone, Copy, Debug, Default)]
struct Inputs {
    a: bool,
    b: bool,
    x: u128,
    y: u128,
}

fn assignments(uses: Uses, w: u32) -> Vec<Inputs> {
    let bools = |used: bool| if used { vec![false, true] } else { vec![false] };
    let words = |used: bool| -> Vec<u128> {
        if used {
            (0..1u128 << w).collect()
        } else {
            vec![0]
        }
    };
    let mut out = Vec::new();
    for a in bools(uses.a) {
        for b in bools(uses.b) {
            for &x in &words(uses.x) {
                for &y in &words(uses.y) {
                    out.push(Inputs { a, b, x, y });
                }
            }
        }
    }
    out
}

/// The native value of a case under one assignment.
enum Native {
    Bool(bool),
    Bits(u128),
}

/// Checks that the term `build` makes equals `native` under every
/// assignment of the inputs in `uses`: with the inputs pinned by
/// assumptions, `t = native` must be satisfiable and `t ≠ native`
/// unsatisfiable.
fn exhaust(
    what: &str,
    w: u32,
    uses: Uses,
    build: impl Fn(&mut Context) -> TermId,
    native: impl Fn(Inputs) -> Native,
) {
    let mut ctx = Context::new();
    let t = build(&mut ctx);
    for at in assignments(uses, w) {
        let mut pins = Vec::new();
        for (used, name, value) in [(uses.a, "a", at.a), (uses.b, "b", at.b)] {
            if used {
                let v = ctx.bool_var(name);
                pins.push(if value { v } else { ctx.not(v) });
            }
        }
        for (used, shape, value) in [(uses.x, BvShape::X, at.x), (uses.y, BvShape::Y, at.y)] {
            if used {
                let v = shape.term(&mut ctx, w);
                let c = ctx.bv_const(value, w);
                pins.push(ctx.eq(v, c));
            }
        }
        let want = match native(at) {
            Native::Bool(v) => {
                if v {
                    t
                } else {
                    ctx.not(t)
                }
            }
            Native::Bits(v) => {
                let Sort::BitVec(width) = ctx.sort(t) else {
                    panic!("{what}: expected a bit-vector term");
                };
                let c = ctx.bv_const(v, width);
                ctx.eq(t, c)
            }
        };
        let miss = ctx.not(want);
        let hit: Vec<TermId> = pins.iter().copied().chain([want]).collect();
        assert_eq!(
            ctx.check_assuming(&hit),
            CheckResult::Sat,
            "{what} at {at:?}: the native value is excluded"
        );
        let wrong: Vec<TermId> = pins.iter().copied().chain([miss]).collect();
        assert_eq!(
            ctx.check_assuming(&wrong),
            CheckResult::Unsat,
            "{what} at {at:?}: a value other than the native one is possible"
        );
    }
}

/// A binary term builder.
type Build = fn(&mut Context, TermId, TermId) -> TermId;

/// A binary encoder under test: its name, its builder and the native
/// function over operand values `T` it must compute.
type Case<T> = (&'static str, Build, fn(T, T) -> bool);

#[test]
fn bool_encoders_match_native_evaluation_exhaustively() {
    let ops: [Case<bool>; 6] = [
        ("and", |c, p, q| c.and([p, q]), |p, q| p && q),
        ("or", |c, p, q| c.or([p, q]), |p, q| p || q),
        ("xor", |c, p, q| c.xor(p, q), |p, q| p ^ q),
        ("iff", |c, p, q| c.iff(p, q), |p, q| p == q),
        ("implies", |c, p, q| c.implies(p, q), |p, q| !p || q),
        ("eq", |c, p, q| c.eq(p, q), |p, q| p == q),
    ];
    for p in BOOL_SHAPES {
        exhaust(
            &format!("not {p:?}"),
            1,
            p.uses(),
            |ctx| {
                let tp = p.term(ctx);
                ctx.not(tp)
            },
            |at| Native::Bool(!p.eval(at)),
        );
        for q in BOOL_SHAPES {
            for (name, build, eval) in ops {
                exhaust(
                    &format!("{name} {p:?} {q:?}"),
                    1,
                    p.uses() | q.uses(),
                    |ctx| {
                        let (tp, tq) = (p.term(ctx), q.term(ctx));
                        build(ctx, tp, tq)
                    },
                    |at| Native::Bool(eval(p.eval(at), q.eval(at))),
                );
            }
            for c in BOOL_SHAPES {
                exhaust(
                    &format!("ite {c:?} {p:?} {q:?}"),
                    1,
                    c.uses() | p.uses() | q.uses(),
                    |ctx| {
                        let (tc, tp, tq) = (c.term(ctx), p.term(ctx), q.term(ctx));
                        ctx.ite(tc, tp, tq)
                    },
                    |at| Native::Bool(if c.eval(at) { p.eval(at) } else { q.eval(at) }),
                );
            }
        }
    }
}

#[test]
fn bitvector_encoders_match_native_evaluation_exhaustively() {
    let cmps: [Case<u128>; 3] = [
        ("ult", |c, p, q| c.bv_ult(p, q), |p, q| p < q),
        ("ule", |c, p, q| c.bv_ule(p, q), |p, q| p <= q),
        ("eq", |c, p, q| c.eq(p, q), |p, q| p == q),
    ];
    let conds = [BoolShape::A, BoolShape::True, BoolShape::False];
    for w in 1u32..=4 {
        for p in BvShape::menu(w) {
            for hi in 0..w {
                for lo in 0..=hi {
                    exhaust(
                        &format!("extract[{hi}:{lo}] {p:?} at width {w}"),
                        w,
                        p.uses(),
                        |ctx| {
                            let tp = p.term(ctx, w);
                            ctx.bv_extract(tp, hi, lo)
                        },
                        |at| Native::Bits((p.eval(at) >> lo) & ((1 << (hi - lo + 1)) - 1)),
                    );
                }
            }
            for q in BvShape::menu(w) {
                for (name, build, eval) in cmps {
                    exhaust(
                        &format!("{name} {p:?} {q:?} at width {w}"),
                        w,
                        p.uses() | q.uses(),
                        |ctx| {
                            let (tp, tq) = (p.term(ctx, w), q.term(ctx, w));
                            build(ctx, tp, tq)
                        },
                        |at| Native::Bool(eval(p.eval(at), q.eval(at))),
                    );
                }
                for c in conds {
                    exhaust(
                        &format!("ite {c:?} {p:?} {q:?} at width {w}"),
                        w,
                        c.uses() | p.uses() | q.uses(),
                        |ctx| {
                            let tc = c.term(ctx);
                            let (tp, tq) = (p.term(ctx, w), q.term(ctx, w));
                            ctx.ite(tc, tp, tq)
                        },
                        |at| Native::Bits(if c.eval(at) { p.eval(at) } else { q.eval(at) }),
                    );
                }
            }
        }
    }
}

/// DRAT replay covers the folded gates: binding `x` to a constant folds
/// to one conjunction over its bits, and the comparison against the same
/// constant runs on constant bits, yet the refutation still certifies.
#[test]
fn certified_refutation_through_folded_gates() {
    let mut ctx = Context::with_options(&CheckOptions {
        certify: true,
        ..CheckOptions::default()
    });
    let x = ctx.bv_var("x", 8);
    let c = ctx.bv_const(0x5a, 8);
    let bound = ctx.eq(x, c);
    ctx.assert(bound);
    let below = ctx.bv_ult(x, c);
    let above = ctx.bv_ult(c, x);
    assert_eq!(ctx.check_assuming(&[below]), CheckResult::Unsat);
    assert_eq!(ctx.check_assuming(&[above]), CheckResult::Unsat);
    assert_eq!(ctx.check(), CheckResult::Sat);
    assert_eq!(ctx.cert_stats().proofs, 2);
    let (cnf, proof) = ctx.export_proof().expect("certified context logs both");
    assert!(check_drat(&cnf, &proof, CheckMode::Last).is_ok());
}

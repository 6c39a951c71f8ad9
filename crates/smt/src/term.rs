//! Hash-consed term representation.

use std::collections::HashMap;
use std::fmt;

/// The sort (type) of a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Propositional sort.
    Bool,
    /// Fixed-width bit-vector; the payload is the width in bits (1..=128).
    BitVec(u32),
    /// Interned string sort (the paper's encoding of node/property names).
    Str,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::BitVec(w) => write!(f, "(_ BitVec {w})"),
            Sort::Str => write!(f, "String"),
        }
    }
}

/// Handle to a term in a [`Context`](crate::Context)'s term pool.
///
/// Cheap to copy; only meaningful with the context that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Term node. Children are [`TermId`]s into the same pool.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum TermData {
    BoolConst(bool),
    BoolVar(String),
    /// Integer-keyed Boolean variable: `tag` is an interned prefix
    /// string, `index` the key. Avoids the `format!("{tag}_{index}")`
    /// allocation in hot loops that mint families of variables.
    BoolVarIdx {
        tag: u32,
        index: u64,
    },
    Not(TermId),
    And(Vec<TermId>),
    Or(Vec<TermId>),
    Xor(TermId, TermId),
    Implies(TermId, TermId),
    Iff(TermId, TermId),
    Ite(TermId, TermId, TermId),
    /// Equality at any sort (Bool, BitVec, Str).
    Eq(TermId, TermId),

    BvConst {
        width: u32,
        /// Value truncated to `width` bits.
        value: u128,
    },
    BvVar {
        name: String,
        width: u32,
    },
    /// Integer-keyed bit-vector variable (see [`TermData::BoolVarIdx`]).
    BvVarIdx {
        tag: u32,
        index: u64,
        width: u32,
    },
    BvUlt(TermId, TermId),
    BvUle(TermId, TermId),
    /// Bits `lo..=hi` of the operand (LSB = bit 0).
    Extract {
        hi: u32,
        lo: u32,
        arg: TermId,
    },

    /// Interned string constant; payload is the intern id.
    StrConst(u32),
    StrVar(String),
}

/// The hash-consing pool. Identical structure ⇒ identical [`TermId`],
/// which makes equality checks and bit-blast caching O(1).
#[derive(Debug, Default)]
pub(crate) struct TermPool {
    terms: Vec<TermData>,
    sorts: Vec<Sort>,
    dedup: HashMap<TermData, TermId>,
    /// Interned strings, index = intern id.
    strings: Vec<String>,
    string_ids: HashMap<String, u32>,
}

impl TermPool {
    pub(crate) fn new() -> TermPool {
        TermPool::default()
    }

    pub(crate) fn intern_str(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.string_ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.string_ids.insert(s.to_string(), id);
        id
    }

    pub(crate) fn str_for(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    pub(crate) fn num_interned(&self) -> usize {
        self.strings.len()
    }

    pub(crate) fn get(&self, t: TermId) -> &TermData {
        &self.terms[t.index()]
    }

    pub(crate) fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.index()]
    }

    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }

    pub(crate) fn mk(&mut self, data: TermData, sort: Sort) -> TermId {
        if let Some(&id) = self.dedup.get(&data) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(data.clone());
        self.sorts.push(sort);
        self.dedup.insert(data, id);
        id
    }

    /// Renders a term as an SMT-LIB-flavoured s-expression, used by
    /// diagnostics.
    pub(crate) fn display(&self, t: TermId, out: &mut String) {
        use TermData::*;
        let bin = |pool: &TermPool, out: &mut String, op: &str, a: TermId, b: TermId| {
            out.push('(');
            out.push_str(op);
            out.push(' ');
            pool.display(a, out);
            out.push(' ');
            pool.display(b, out);
            out.push(')');
        };
        match self.get(t).clone() {
            BoolConst(b) => out.push_str(if b { "true" } else { "false" }),
            BoolVar(n) | StrVar(n) => out.push_str(&n),
            BvVar { name, .. } => out.push_str(&name),
            BoolVarIdx { tag, index } | BvVarIdx { tag, index, .. } => {
                out.push_str(self.str_for(tag));
                out.push('_');
                out.push_str(&index.to_string());
            }
            Not(a) => {
                out.push_str("(not ");
                self.display(a, out);
                out.push(')');
            }
            And(xs) | Or(xs) => {
                out.push('(');
                out.push_str(if matches!(self.get(t), And(_)) {
                    "and"
                } else {
                    "or"
                });
                for x in xs {
                    out.push(' ');
                    self.display(x, out);
                }
                out.push(')');
            }
            Xor(a, b) => bin(self, out, "xor", a, b),
            Implies(a, b) => bin(self, out, "=>", a, b),
            Iff(a, b) | Eq(a, b) => bin(self, out, "=", a, b),
            Ite(c, a, b) => {
                out.push_str("(ite ");
                self.display(c, out);
                out.push(' ');
                self.display(a, out);
                out.push(' ');
                self.display(b, out);
                out.push(')');
            }
            BvConst { width, value } => {
                out.push_str(&format!(
                    "#x{value:0>width$x}",
                    width = (width as usize).div_ceil(4)
                ));
            }
            BvUlt(a, b) => bin(self, out, "bvult", a, b),
            BvUle(a, b) => bin(self, out, "bvule", a, b),
            Extract { hi, lo, arg } => {
                out.push_str(&format!("((_ extract {hi} {lo}) "));
                self.display(arg, out);
                out.push(')');
            }
            StrConst(id) => {
                out.push('"');
                out.push_str(self.str_for(id));
                out.push('"');
            }
        }
    }
}

/// Masks `value` to `width` bits.
pub(crate) fn mask(value: u128, width: u32) -> u128 {
    if width >= 128 {
        value
    } else {
        value & ((1u128 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.mk(TermData::BoolVar("a".into()), Sort::Bool);
        let a2 = p.mk(TermData::BoolVar("a".into()), Sort::Bool);
        let b = p.mk(TermData::BoolVar("b".into()), Sort::Bool);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn interning_is_stable() {
        let mut p = TermPool::new();
        let x = p.intern_str("memory");
        let y = p.intern_str("reg");
        let x2 = p.intern_str("memory");
        assert_eq!(x, x2);
        assert_ne!(x, y);
        assert_eq!(p.str_for(x), "memory");
        assert_eq!(p.num_interned(), 2);
    }

    #[test]
    fn mask_behaviour() {
        assert_eq!(mask(0xff, 4), 0xf);
        assert_eq!(mask(0x100, 8), 0);
        assert_eq!(mask(u128::MAX, 128), u128::MAX);
    }

    #[test]
    fn sort_display() {
        assert_eq!(Sort::Bool.to_string(), "Bool");
        assert_eq!(Sort::BitVec(64).to_string(), "(_ BitVec 64)");
        assert_eq!(Sort::Str.to_string(), "String");
    }
}

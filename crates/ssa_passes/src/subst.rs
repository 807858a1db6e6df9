//! Deferred value replacement.
//!
//! Passes that replace many instructions by other values (folded constants,
//! trivial phis, promoted loads) record each replacement here and rewrite
//! the function's operands once at the end, instead of rescanning every
//! instruction per replacement. Reads made in between go through
//! [`Subst::resolve`], so the pass observes the same values it would have
//! seen had each replacement been applied on the spot.

use ssa_ir::{EntityId, Function, InstId, Value};

/// A pending map from instruction results to their replacements, indexed by
/// instruction id.
#[derive(Debug, Default)]
pub struct Subst {
    to: Vec<Option<Value>>,
    pending: bool,
}

impl Subst {
    /// An empty substitution sized for `function`'s instruction ids.
    pub fn new(function: &Function) -> Subst {
        Subst {
            to: vec![None; function.inst_capacity()],
            pending: false,
        }
    }

    /// The value `value` stands for once every recorded replacement applies.
    pub fn resolve(&self, mut value: Value) -> Value {
        while let Value::Inst(id) = value {
            match self.to.get(id.index()).copied().flatten() {
                Some(next) => value = next,
                None => break,
            }
        }
        value
    }

    /// Records that every use of `inst` becomes `value`. A replacement that
    /// resolves back to `inst` itself is dropped: rewriting a value to itself
    /// changes nothing (and would make the map cyclic).
    pub fn replace(&mut self, inst: InstId, value: Value) {
        let value = self.resolve(value);
        if value == Value::Inst(inst) {
            return;
        }
        if inst.index() >= self.to.len() {
            self.to.resize(inst.index() + 1, None);
        }
        self.to[inst.index()] = Some(value);
        self.pending = true;
    }

    /// Returns `true` when at least one replacement was recorded.
    pub fn is_empty(&self) -> bool {
        !self.pending
    }

    /// Rewrites every operand of `function` through the recorded
    /// replacements, in one sweep.
    pub fn apply(&self, function: &mut Function) {
        if self.pending {
            function.map_operands(|v| self.resolve(v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;

    #[test]
    fn chains_resolve_and_self_replacements_are_dropped() {
        let f = parse_function(
            "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  %b = add i32 %a, 2\n  ret i32 %b\n}",
        )
        .unwrap();
        let a = f.inst_by_name("a").unwrap();
        let b = f.inst_by_name("b").unwrap();
        let mut s = Subst::new(&f);
        assert!(s.is_empty());
        s.replace(b, Value::Inst(a));
        s.replace(a, Value::Arg(0));
        assert_eq!(s.resolve(Value::Inst(b)), Value::Arg(0));
        // `a` already resolves to %x, so this is not a cycle back to `a`.
        s.replace(a, Value::Inst(b));
        assert_eq!(s.resolve(Value::Inst(b)), Value::Arg(0));
        let mut t = Subst::new(&f);
        t.replace(a, Value::Inst(a));
        assert!(t.is_empty());
    }

    #[test]
    fn apply_rewrites_every_operand_once() {
        let mut f = parse_function(
            "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  %b = add i32 %a, %a\n  ret i32 %b\n}",
        )
        .unwrap();
        let a = f.inst_by_name("a").unwrap();
        let b = f.inst_by_name("b").unwrap();
        let mut s = Subst::new(&f);
        s.replace(a, Value::i32(7));
        s.apply(&mut f);
        assert_eq!(
            f.inst(b).kind.operands(),
            vec![Value::i32(7), Value::i32(7)]
        );
    }
}

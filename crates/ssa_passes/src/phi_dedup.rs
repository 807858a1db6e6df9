//! Phi-node simplification: removal of trivial phis and deduplication of
//! identical phis.
//!
//! The paper relies on "existing optimizations from LLVM" to merge identical
//! phi-nodes copied from the two input functions during SalSSA's
//! simplification stage (Section 4.1.1); this module provides that
//! functionality for the reproduction.

use crate::subst::Subst;
use ssa_ir::{BlockId, DomTree, EntityId, Function, InstId, InstKind, Type, Value};
use std::collections::hash_map::{Entry, HashMap};

/// A phi's incoming list: one `(value, predecessor)` per edge.
type Incomings = Vec<(Value, BlockId)>;

/// Replaces phis that have a single distinct incoming value (ignoring `undef`
/// and self-references) with that value. Runs to a fixed point. Returns the
/// number of phis removed.
///
/// The CFG does not change here, so the dominator tree (needed only for
/// phis that skipped an incoming) is computed at most once, and the removed
/// phis' uses are rewritten in one sweep at the end.
pub fn simplify_trivial_phis(function: &mut Function) -> usize {
    simplify_trivial_phis_in(function, &mut None)
}

/// [`simplify_trivial_phis`] with a dominator tree of the current CFG that
/// the caller may already hold. When `domtree` is empty and the tree is
/// needed, it is computed and left there for the caller's next pass over the
/// same CFG.
pub(crate) fn simplify_trivial_phis_in(
    function: &mut Function,
    domtree: &mut Option<DomTree>,
) -> usize {
    let mut subst = Subst::new(function);
    let mut removed = Vec::new();
    let mut is_removed = vec![false; function.inst_capacity()];
    loop {
        let mut changed = false;
        for block in function.block_ids() {
            for &phi in &function.block(block).phis {
                if is_removed[phi.index()] {
                    continue;
                }
                let data = function.inst(phi);
                let InstKind::Phi { incomings } = &data.kind else {
                    continue;
                };
                let mut unique: Option<Value> = None;
                let mut saw_skipped = false;
                let mut trivial = true;
                for &(value, _) in incomings {
                    let value = subst.resolve(value);
                    if value == Value::Inst(phi) || value.is_undef() {
                        saw_skipped = true;
                        continue;
                    }
                    match unique {
                        None => unique = Some(value),
                        Some(u) if u == value => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if !trivial {
                    continue;
                }
                // Replacing the phi with an instruction result is only legal if
                // that definition dominates the phi's block; otherwise the
                // "trivial" phi (fed by undef on the other paths) is in fact
                // the SSA repair point and must stay.
                if saw_skipped {
                    if let Some(Value::Inst(def)) = unique {
                        let def_block = function.inst(def).block;
                        let domtree = domtree.get_or_insert_with(|| DomTree::compute(function));
                        if !domtree.strictly_dominates(def_block, block) {
                            continue;
                        }
                    }
                }
                subst.replace(phi, unique.unwrap_or(Value::undef(data.ty)));
                is_removed[phi.index()] = true;
                removed.push(phi);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    function.remove_insts(&removed);
    subst.apply(function);
    removed.len()
}

/// Merges phis within the same block that have identical incoming lists.
/// Returns the number of phis removed.
pub fn dedupe_identical_phis(function: &mut Function) -> usize {
    let mut subst = Subst::new(function);
    let mut removed = Vec::new();
    let mut seen: HashMap<(Type, Incomings), InstId> = HashMap::new();
    for block in function.block_ids() {
        let phis = &function.block(block).phis;
        if phis.len() < 2 {
            continue;
        }
        seen.clear();
        for &phi in phis {
            let data = function.inst(phi);
            let InstKind::Phi { incomings } = &data.kind else {
                continue;
            };
            let mut key: Incomings = incomings
                .iter()
                .map(|&(v, b)| (subst.resolve(v), b))
                .collect();
            key.sort_by_key(|(_, b)| *b);
            match seen.entry((data.ty, key)) {
                Entry::Occupied(canonical) => {
                    subst.replace(phi, Value::Inst(*canonical.get()));
                    removed.push(phi);
                }
                Entry::Vacant(slot) => {
                    slot.insert(phi);
                }
            }
        }
    }
    function.remove_insts(&removed);
    subst.apply(function);
    removed.len()
}

/// Absorbs phis that agree on every predecessor *up to `undef`* into a single
/// phi. `undef` may take any value, so two phis of the same type whose
/// incoming values never conflict (equal, or at least one side `undef`) can be
/// represented by one phi carrying the more-defined value on every edge.
/// Merged code is full of such pairs because each input function contributes
/// its own phi with `undef` on the other function's paths. Returns the number
/// of phis removed.
pub fn absorb_undef_compatible_phis(function: &mut Function) -> usize {
    let mut subst = Subst::new(function);
    let mut removed = Vec::new();
    let mut is_removed = vec![false; function.inst_capacity()];
    for block in function.block_ids().collect::<Vec<_>>() {
        if function.block(block).phis.len() < 2 {
            continue;
        }
        // After each absorption the scan restarts from the first pair, with
        // the survivors' incomings brought up to date.
        loop {
            let phis: Vec<(InstId, Type, Incomings)> = function
                .block(block)
                .phis
                .iter()
                .filter(|p| !is_removed[p.index()])
                .filter_map(|&p| {
                    let data = function.inst(p);
                    let InstKind::Phi { incomings } = &data.kind else {
                        return None;
                    };
                    let resolved = incomings.iter().map(|&(v, b)| (subst.resolve(v), b));
                    Some((p, data.ty, resolved.collect()))
                })
                .collect();
            let pair = (0..phis.len()).find_map(|i| {
                (i + 1..phis.len()).find_map(|j| {
                    let ((a, ta, ia), (b, tb, ib)) = (&phis[i], &phis[j]);
                    if ta != tb {
                        return None;
                    }
                    join_incomings(ia, ib).map(|joined| (*a, *b, joined))
                })
            });
            let Some((a, b, joined)) = pair else {
                break;
            };
            if let InstKind::Phi { incomings } = &mut function.inst_mut(a).kind {
                *incomings = joined;
            }
            subst.replace(b, Value::Inst(a));
            is_removed[b.index()] = true;
            removed.push(b);
        }
    }
    function.remove_insts(&removed);
    subst.apply(function);
    removed.len()
}

/// Joins two incoming lists when they never disagree on a predecessor
/// (treating `undef` as a wildcard). Returns `None` on conflict.
fn join_incomings(a: &[(Value, BlockId)], b: &[(Value, BlockId)]) -> Option<Incomings> {
    let mut out: Incomings = a.to_vec();
    for (vb, pred) in b {
        match out.iter_mut().find(|(_, p)| p == pred) {
            Some((va, _)) => {
                if va == vb || vb.is_undef() {
                    // keep va
                } else if va.is_undef() {
                    *va = *vb;
                } else {
                    return None;
                }
            }
            None => out.push((*vb, *pred)),
        }
    }
    Some(out)
}

/// Runs the default phi simplifications until nothing changes. Returns the
/// total number of phis removed.
///
/// [`absorb_undef_compatible_phis`] is intentionally *not* part of the default
/// pipeline: it implements the phi-coalescing flavour of clean-up that the
/// SalSSA merger applies explicitly, and keeping it separate preserves the
/// SalSSA-NoPC ablation of the paper's Figure 20.
pub fn simplify_phis(function: &mut Function) -> usize {
    simplify_phis_in(function, &mut None)
}

/// [`simplify_phis`] sharing the caller's dominator tree of the current CFG
/// (see [`simplify_trivial_phis_in`]); phi passes never change the CFG.
pub(crate) fn simplify_phis_in(function: &mut Function, domtree: &mut Option<DomTree>) -> usize {
    let mut total = 0;
    loop {
        let n = simplify_trivial_phis_in(function, domtree) + dedupe_identical_phis(function);
        total += n;
        if n == 0 {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;
    use ssa_ir::verifier::assert_valid;

    #[test]
    fn removes_single_value_phi() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %x, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = simplify_trivial_phis(&mut f);
        assert_eq!(removed, 1);
        assert_valid(&f);
        let join = f.block_by_name("join").unwrap();
        assert!(f.block(join).phis.is_empty());
    }

    #[test]
    fn keeps_meaningful_phi() {
        let text = r#"
define i32 @f(i1 %c, i32 %x, i32 %y) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %y, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(simplify_trivial_phis(&mut f), 0);
        let join = f.block_by_name("join").unwrap();
        assert_eq!(f.block(join).phis.len(), 1);
    }

    #[test]
    fn undef_incomings_are_ignored() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ undef, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(simplify_trivial_phis(&mut f), 1);
        assert_valid(&f);
    }

    #[test]
    fn dedupes_identical_phis() {
        let text = r#"
define i32 @f(i1 %c, i32 %x, i32 %y) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %y, %b ]
  %q = phi i32 [ %x, %a ], [ %y, %b ]
  %s = add i32 %p, %q
  ret i32 %s
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(dedupe_identical_phis(&mut f), 1);
        assert_valid(&f);
        let join = f.block_by_name("join").unwrap();
        assert_eq!(f.block(join).phis.len(), 1);
    }

    #[test]
    fn chains_of_trivial_phis_collapse() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  br label %a
a:
  %p = phi i32 [ %x, %entry ]
  br label %b
b:
  %q = phi i32 [ %p, %a ]
  ret i32 %q
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = simplify_phis(&mut f);
        assert_eq!(removed, 2);
        assert_valid(&f);
    }
}

//! CFG simplification.
//!
//! SalSSA's code generator deliberately produces many tiny blocks chained by
//! unconditional branches (one block per matching instruction/label, Section
//! 4.1); this pass is the "Simplification" stage from Figure 1 that collapses
//! those chains again, folds constant branches and deletes unreachable code.

use crate::dce;
use crate::subst::Subst;
use ssa_ir::{BlockId, Constant, DomTree, EntityId, Function, InstKind, Type, Value};

/// Aggregate statistics of one [`simplify`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Conditional branches folded to unconditional ones.
    pub branches_folded: usize,
    /// Blocks merged into their unique predecessor.
    pub blocks_merged: usize,
    /// Empty forwarding blocks removed.
    pub forwarders_removed: usize,
    /// Unreachable blocks removed.
    pub unreachable_removed: usize,
}

impl SimplifyStats {
    fn total(&self) -> usize {
        self.branches_folded
            + self.blocks_merged
            + self.forwarders_removed
            + self.unreachable_removed
    }
}

/// Simplifies the CFG to a fixed point.
pub fn simplify(function: &mut Function) -> SimplifyStats {
    simplify_in(function, &mut None)
}

/// [`simplify`] with the caller's dominator tree of the current CFG, if it
/// holds one. The tree is dropped whenever an edit changes the CFG; on
/// return it (if present) describes the final CFG, so later passes that do
/// not touch terminators can keep using it.
pub(crate) fn simplify_in(function: &mut Function, domtree: &mut Option<DomTree>) -> SimplifyStats {
    let mut stats = SimplifyStats::default();
    loop {
        let mut round = SimplifyStats::default();
        round.branches_folded += fold_constant_branches(function);
        round.unreachable_removed += dce::remove_unreachable_blocks(function);
        if round.total() > 0 {
            *domtree = None;
        }
        crate::phi_dedup::simplify_trivial_phis_in(function, domtree);
        let mut preds = Preds::new(function);
        round.forwarders_removed += remove_forwarders(function, &mut preds);
        round.blocks_merged += merge_chains(function, &mut preds);
        if round.forwarders_removed + round.blocks_merged > 0 {
            *domtree = None;
        }
        stats.branches_folded += round.branches_folded;
        stats.blocks_merged += round.blocks_merged;
        stats.forwarders_removed += round.forwarders_removed;
        stats.unreachable_removed += round.unreachable_removed;
        if round.total() == 0 {
            return stats;
        }
    }
}

/// The predecessor map of a function, kept current while a pass edits the
/// CFG. `of[b]` holds one entry per incoming edge of `b`, ordered by the
/// predecessor's layout position exactly as [`Function::predecessors`]
/// orders them, so phi incomings rewired from it come out in the same order.
struct Preds {
    of: Vec<Vec<BlockId>>,
    /// Layout position of each block when the map was built. The passes
    /// below only delete blocks, which keeps the relative order of the rest.
    pos: Vec<usize>,
}

impl Preds {
    fn new(function: &Function) -> Preds {
        let mut of = vec![Vec::new(); function.block_capacity()];
        let mut pos = vec![usize::MAX; function.block_capacity()];
        for (i, block) in function.block_ids().enumerate() {
            pos[block.index()] = i;
            for succ in function.successor_iter(block) {
                of[succ.index()].push(block);
            }
        }
        Preds { of, pos }
    }

    fn of(&self, block: BlockId) -> &[BlockId] {
        &self.of[block.index()]
    }

    /// Restores layout order in `block`'s list after entries were relabeled.
    fn sort(&mut self, block: BlockId) {
        let pos = &self.pos;
        self.of[block.index()].sort_by_key(|p| pos[p.index()]);
    }
}

/// Folds `br i1 true/false` and conditional branches whose two targets are the
/// same block into unconditional branches. Returns the number folded.
pub fn fold_constant_branches(function: &mut Function) -> usize {
    let mut folded = 0;
    for block in function.block_ids().collect::<Vec<_>>() {
        let Some(term) = function.block(block).term else {
            continue;
        };
        let InstKind::CondBr {
            cond,
            if_true,
            if_false,
        } = function.inst(term).kind
        else {
            continue;
        };
        let target = if if_true == if_false {
            Some((if_true, None))
        } else if let Value::Const(Constant::Int { value, .. }) = cond {
            let (taken, skipped) = if value != 0 {
                (if_true, if_false)
            } else {
                (if_false, if_true)
            };
            Some((taken, Some(skipped)))
        } else {
            None
        };
        let Some((dest, skipped)) = target else {
            continue;
        };
        // If an edge disappears, remove the corresponding phi incomings.
        if let Some(skipped) = skipped {
            for phi in function.block(skipped).phis.clone() {
                if let InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind {
                    incomings.retain(|(_, b)| *b != block);
                }
            }
        }
        function.remove_inst(term);
        function.append_inst(block, InstKind::Br { dest }, Type::Void);
        folded += 1;
    }
    folded
}

/// Removes blocks that contain nothing but an unconditional branch, rewiring
/// their predecessors straight to the destination and updating the
/// destination's phi-nodes. The forwarder is kept when rewiring would create a
/// conflicting phi entry (a predecessor that already reaches the destination
/// with a different value) and when it is the entry block.
pub fn remove_forwarding_blocks(function: &mut Function) -> usize {
    let mut preds = Preds::new(function);
    remove_forwarders(function, &mut preds)
}

/// [`remove_forwarding_blocks`] over a maintained predecessor map: one pass
/// over the layout order, editing only the forwarder's predecessors and its
/// destination's phis.
fn remove_forwarders(function: &mut Function, preds: &mut Preds) -> usize {
    let entry = function.entry();
    let mut removed = Vec::new();
    for block in function.block_ids().collect::<Vec<_>>() {
        if block == entry {
            continue;
        }
        let data = function.block(block);
        if !data.phis.is_empty() || !data.insts.is_empty() {
            continue;
        }
        let Some(term) = data.term else { continue };
        let InstKind::Br { dest } = function.inst(term).kind else {
            continue;
        };
        if dest == block {
            continue; // self-loop, leave it alone
        }
        let fwd_preds = preds.of(block);
        // Check that rewiring does not create conflicting phi incomings in the
        // destination: for every phi and every predecessor of the forwarder,
        // the value flowing through the forwarder must be compatible with any
        // value already flowing from that predecessor directly.
        let conflict = function.block(dest).phis.iter().any(|&phi| {
            let InstKind::Phi { incomings } = &function.inst(phi).kind else {
                return false;
            };
            let Some(via) = incoming_from(incomings, block) else {
                return false;
            };
            fwd_preds
                .iter()
                .any(|&p| incoming_from(incomings, p).is_some_and(|direct| direct != via))
        });
        if conflict {
            continue;
        }
        let fwd_preds = std::mem::take(&mut preds.of[block.index()]);
        // Rewire destination phis: the value that flowed through the forwarder
        // now flows directly from each of the forwarder's predecessors.
        for i in 0..function.block(dest).phis.len() {
            let phi = function.block(dest).phis[i];
            let InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind else {
                continue;
            };
            let via = incoming_from(incomings, block);
            incomings.retain(|(_, b)| *b != block);
            if let Some(value) = via {
                for &p in &fwd_preds {
                    if !incomings.iter().any(|(_, b)| *b == p) {
                        incomings.push((value, p));
                    }
                }
            }
        }
        // Retarget the predecessors' terminators; their edges into the
        // forwarder become edges into the destination.
        for (i, &p) in fwd_preds.iter().enumerate() {
            if i > 0 && fwd_preds[i - 1] == p {
                continue;
            }
            if let Some(t) = function.block(p).term {
                function.inst_mut(t).kind.for_each_block_ref_mut(|b| {
                    if *b == block {
                        *b = dest;
                    }
                });
            }
        }
        let dest_preds = &mut preds.of[dest.index()];
        dest_preds.retain(|b| *b != block);
        dest_preds.extend(fwd_preds);
        preds.sort(dest);
        removed.push(block);
    }
    function.remove_blocks(&removed);
    removed.len()
}

/// The value a phi receives from `pred` (its first entry for that block).
fn incoming_from(incomings: &[(Value, BlockId)], pred: BlockId) -> Option<Value> {
    incomings.iter().find(|(_, b)| *b == pred).map(|(v, _)| *v)
}

/// Merges a block into its unique predecessor when that predecessor has the
/// block as its unique successor. Returns the number of merges performed.
pub fn merge_single_pred_blocks(function: &mut Function) -> usize {
    let mut preds = Preds::new(function);
    merge_chains(function, &mut preds)
}

/// [`merge_single_pred_blocks`] in one pass over the layout order.
///
/// A merge never changes whether another block can be merged (its
/// successors' predecessor entry is just relabeled), except that a block
/// whose predecessor chain loops back to it stops qualifying. So visiting
/// blocks in layout order and testing each against the current state merges
/// the same blocks, in the same order, as restarting the scan after every
/// merge would.
fn merge_chains(function: &mut Function, preds: &mut Preds) -> usize {
    let entry = function.entry();
    let mut subst = Subst::new(function);
    let mut removed = Vec::new();
    for block in function.block_ids().collect::<Vec<_>>() {
        if block == entry {
            continue;
        }
        let &[pred] = preds.of(block) else {
            continue;
        };
        if pred == block {
            continue;
        }
        // The predecessor must end in a plain branch to `block` (not an
        // invoke, nor a branch with other targets).
        let Some(pred_term) = function.block(pred).term else {
            continue;
        };
        if function.inst(pred_term).kind != (InstKind::Br { dest: block }) {
            continue;
        }
        // Phis in `block` have a single incoming value; replace them by it.
        // They are deleted with the block.
        for &phi in &function.block(block).phis {
            let data = function.inst(phi);
            if let InstKind::Phi { incomings } = &data.kind {
                let replacement = incomings
                    .first()
                    .map(|(v, _)| *v)
                    .unwrap_or(Value::undef(data.ty));
                subst.replace(phi, replacement);
            }
        }
        // Drop the predecessor's branch, move the block's body and terminator.
        function.remove_inst(pred_term);
        let moved = std::mem::take(&mut function.block_mut(block).insts);
        let term = function.block_mut(block).term.take();
        for &inst in moved.iter().chain(&term) {
            function.inst_mut(inst).block = pred;
        }
        let pred_data = function.block_mut(pred);
        pred_data.insts.extend(moved);
        pred_data.term = term;
        // Successor phis that referenced `block` now flow from `pred`.
        let mut succs: Vec<BlockId> = function.successor_iter(pred).collect();
        succs.sort_unstable();
        succs.dedup();
        for succ in succs {
            for i in 0..function.block(succ).phis.len() {
                let phi = function.block(succ).phis[i];
                function.inst_mut(phi).kind.for_each_block_ref_mut(|b| {
                    if *b == block {
                        *b = pred;
                    }
                });
            }
            for p in &mut preds.of[succ.index()] {
                if *p == block {
                    *p = pred;
                }
            }
            preds.sort(succ);
        }
        preds.of[block.index()].clear();
        removed.push(block);
    }
    function.remove_blocks(&removed);
    subst.apply(function);
    removed.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;
    use ssa_ir::verifier::assert_valid;

    #[test]
    fn folds_constant_condition_and_removes_dead_branch() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  br i1 true, label %a, label %b
a:
  %va = add i32 %x, 1
  br label %join
b:
  %vb = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %va, %a ], [ %vb, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert!(stats.branches_folded >= 1);
        assert!(stats.unreachable_removed >= 1);
        assert_valid(&f);
        // Everything collapses into a single block.
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn merges_straight_line_chain() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  br label %b1
b1:
  %b = add i32 %a, 2
  br label %b2
b2:
  %c = add i32 %b, 3
  ret i32 %c
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert_eq!(stats.blocks_merged, 2);
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_insts(), 4);
        assert_valid(&f);
    }

    #[test]
    fn removes_empty_forwarding_block() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %fwd, label %direct
fwd:
  br label %target
direct:
  br label %target
target:
  ret i32 %x
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert!(stats.forwarders_removed >= 1);
        assert_valid(&f);
        assert!(f.block_by_name("fwd").is_none());
    }

    #[test]
    fn same_target_condbr_becomes_br() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %next, label %next
next:
  ret i32 %x
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert_eq!(stats.branches_folded, 1);
        assert_valid(&f);
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn preserves_meaningful_diamonds() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %va = add i32 %x, 1
  br label %join
b:
  %vb = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %va, %a ], [ %vb, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        simplify(&mut f);
        assert_valid(&f);
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 7);
    }

    #[test]
    fn simplify_is_idempotent() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %fwd, label %b
fwd:
  br label %join
b:
  br label %join
join:
  ret i32 %x
}
"#;
        let mut f = parse_function(text).unwrap();
        simplify(&mut f);
        let size = f.num_insts();
        let blocks = f.num_blocks();
        let stats = simplify(&mut f);
        assert_eq!(stats.total(), 0);
        assert_eq!(f.num_insts(), size);
        assert_eq!(f.num_blocks(), blocks);
    }

    /// Simplifies `text` and returns the stats with the printed result.
    fn simplified(text: &str) -> (SimplifyStats, String) {
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert_valid(&f);
        (stats, ssa_ir::print_function(&f))
    }

    #[test]
    fn chain_laid_out_in_reverse_collapses_in_order() {
        // entry -> c -> b -> a, laid out backwards: each merge exposes the
        // next one earlier in the layout.
        let (stats, printed) = simplified(
            r#"
define i32 @f(i32 %x) {
entry:
  %e = add i32 %x, 1
  br label %c
a:
  %va = phi i32 [ %vb, %b ]
  %ra = add i32 %va, 4
  ret i32 %ra
b:
  %vb = add i32 %vc, 3
  br label %a
c:
  %vc = add i32 %e, 2
  br label %b
}
"#,
        );
        assert_eq!(stats.blocks_merged, 3);
        assert_eq!(
            printed,
            "define i32 @f(i32 %x) {\nentry:\n  %e = add i32 %x, 1\n  %vc = add i32 %e, 2\n  \
             %vb = add i32 %vc, 3\n  %ra = add i32 %vb, 4\n  ret i32 %ra\n}\n"
        );
    }

    #[test]
    fn forwarder_with_conflicting_destination_phi_is_kept() {
        // Rewiring `fwd` away would give `join` two incomings from `entry`
        // (1 and 2), so the forwarder must stay.
        let (stats, printed) = simplified(
            r#"
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %fwd, label %join
fwd:
  br label %join
join:
  %p = phi i32 [ 1, %fwd ], [ 2, %entry ]
  ret i32 %p
}
"#,
        );
        assert_eq!(stats.total(), 0);
        assert!(printed.contains("fwd:\n  br label %join"), "{printed}");
    }

    #[test]
    fn self_loops_are_left_alone() {
        let (stats, printed) = simplified(
            r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %spin, label %work
spin:
  br label %spin
work:
  %w = add i32 %x, 1
  br i1 %c, label %work, label %exit
exit:
  ret i32 %w
}
"#,
        );
        assert_eq!(stats.total(), 0);
        assert!(printed.contains("spin:\n  br label %spin"), "{printed}");
        assert!(
            printed.contains("br i1 %c, label %work, label %exit"),
            "{printed}"
        );
    }

    #[test]
    fn condbr_gaining_repeated_targets_folds_and_merges() {
        // Removing both forwarders leaves `br i1 %c, label %j, label %j`,
        // which the next round folds; `j` then merges into `entry`.
        let (stats, printed) = simplified(
            r#"
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %f1, label %f2
f1:
  br label %j
f2:
  br label %j
j:
  %p = phi i32 [ 7, %f1 ], [ 7, %f2 ]
  ret i32 %p
}
"#,
        );
        assert_eq!(stats.forwarders_removed, 2);
        assert_eq!(stats.branches_folded, 1);
        assert_eq!(stats.blocks_merged, 1);
        assert_eq!(printed, "define i32 @f(i1 %c) {\nentry:\n  ret i32 7\n}\n");
    }

    #[test]
    fn switch_with_repeated_targets_keeps_every_edge() {
        // Both forwarders are removed; the switch then lists `join` three
        // times, so `join` has three incoming edges and is not merged.
        let (stats, printed) = simplified(
            r#"
define i32 @f(i32 %x) {
entry:
  switch i32 %x, label %a [ 1: label %a, 2: label %b ]
a:
  br label %join
b:
  br label %join
join:
  ret i32 %x
}
"#,
        );
        assert_eq!(stats.forwarders_removed, 2);
        assert_eq!(stats.blocks_merged, 0);
        assert!(
            printed.contains("switch i32 %x, label %join [ 1: label %join, 2: label %join ]"),
            "{printed}"
        );
    }
}

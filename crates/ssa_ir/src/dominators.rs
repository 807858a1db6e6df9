//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy algorithm).
//!
//! Dominance information drives three parts of the reproduction: the verifier
//! (SSA dominance property), the standard SSA construction used by `mem2reg`
//! and by SalSSA's SSA-repair stage, and the phi-node placement of the merged
//! code generator.

use crate::function::Function;
use crate::ids::{BlockId, EntityId, InstId};
use std::collections::HashSet;

/// Marks a block that is not reachable from the entry.
const UNREACHABLE: u32 = u32::MAX;

/// The dominator tree of a function, including dominance frontiers.
///
/// Tables are dense: per-block lookups go through the block's position in
/// reverse post-order, and dominance queries compare dominator-tree
/// pre-order numbers instead of walking the idom chain.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Reverse post-order of reachable blocks.
    rpo: Vec<BlockId>,
    /// Position of each block (by id) in `rpo`, or [`UNREACHABLE`].
    rpo_index: Vec<u32>,
    /// Immediate dominator of each reachable block, as an `rpo` position
    /// (the entry maps to itself).
    idom: Vec<u32>,
    /// Children in the dominator tree, in reverse post-order, grouped by
    /// parent: `children[child_start[p]..child_start[p + 1]]`.
    children: Vec<BlockId>,
    child_start: Vec<u32>,
    /// Dominance frontier of each reachable block, by `rpo` position.
    frontier: Vec<Vec<BlockId>>,
    /// Dominator-tree pre-order number and subtree size, by `rpo` position:
    /// `a` dominates `b` iff `b`'s number falls in `a`'s subtree range.
    pre: Vec<u32>,
    size: Vec<u32>,
    entry: BlockId,
}

impl DomTree {
    /// Computes the dominator tree of `function`.
    ///
    /// # Panics
    ///
    /// Panics if the function has no entry block.
    pub fn compute(function: &Function) -> DomTree {
        let entry = function.entry();
        let rpo = function.reverse_post_order();
        let n = rpo.len();
        let mut rpo_index = vec![UNREACHABLE; function.block_capacity()];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }
        let pos = |b: BlockId| rpo_index[b.index()];
        // Reachable predecessors of each block, one entry per edge, in the
        // layout order of the predecessor (as `Function::predecessors`).
        let mut pred_start = vec![0u32; n + 1];
        let reachable_edges = || {
            function
                .block_ids()
                .filter(|&b| pos(b) != UNREACHABLE)
                .flat_map(move |b| function.successor_iter(b).map(move |s| (pos(b), pos(s))))
        };
        for (_, s) in reachable_edges() {
            pred_start[s as usize + 1] += 1;
        }
        for i in 0..n {
            pred_start[i + 1] += pred_start[i];
        }
        let mut preds = vec![0u32; pred_start[n] as usize];
        let mut fill = pred_start.clone();
        for (p, s) in reachable_edges() {
            preds[fill[s as usize] as usize] = p;
            fill[s as usize] += 1;
        }
        let preds_of = |b: usize| &preds[pred_start[b] as usize..pred_start[b + 1] as usize];

        // Cooper–Harvey–Kennedy over rpo positions.
        let mut idom = vec![UNREACHABLE; n];
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                let mut new_idom: Option<u32> = None;
                for &p in preds_of(b) {
                    if idom[p as usize] == UNREACHABLE {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b] != ni {
                        idom[b] = ni;
                        changed = true;
                    }
                }
            }
        }

        // Children grouped by parent; visiting blocks in rpo order keeps
        // each group sorted by rpo position.
        let mut child_start = vec![0u32; n + 1];
        for b in 1..n {
            child_start[idom[b] as usize + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut children = vec![entry; n.saturating_sub(1)];
        let mut fill = child_start.clone();
        for b in 1..n {
            let parent = idom[b] as usize;
            children[fill[parent] as usize] = rpo[b];
            fill[parent] += 1;
        }

        // Dominance frontiers (Cytron et al. via the CHK formulation).
        let mut frontier: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in 0..n {
            let ps = preds_of(b);
            if ps.len() < 2 {
                continue;
            }
            for &p in ps {
                let mut runner = p;
                while runner != idom[b] {
                    let entry_vec = &mut frontier[runner as usize];
                    if !entry_vec.contains(&rpo[b]) {
                        entry_vec.push(rpo[b]);
                    }
                    runner = idom[runner as usize];
                }
            }
        }

        // Pre-order numbers and subtree sizes.
        let mut pre = vec![0u32; n];
        let mut size = vec![1u32; n];
        let mut order = Vec::with_capacity(n);
        if n > 0 {
            let mut stack = vec![0u32];
            while let Some(b) = stack.pop() {
                pre[b as usize] = order.len() as u32;
                order.push(b);
                let kids = &children
                    [child_start[b as usize] as usize..child_start[b as usize + 1] as usize];
                stack.extend(kids.iter().rev().map(|&c| pos(c)));
            }
        }
        for &b in order.iter().skip(1).rev() {
            size[idom[b as usize] as usize] += size[b as usize];
        }

        DomTree {
            rpo,
            rpo_index,
            idom,
            children,
            child_start,
            frontier,
            pre,
            size,
            entry,
        }
    }

    /// The `rpo` position of `block`, if it is reachable.
    fn pos(&self, block: BlockId) -> Option<usize> {
        match self.rpo_index.get(block.index()) {
            Some(&i) if i != UNREACHABLE => Some(i as usize),
            _ => None,
        }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The reverse post-order used internally.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Returns `true` when `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.pos(block).is_some()
    }

    /// Immediate dominator of a reachable block (`None` for the entry or for
    /// unreachable blocks).
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        let b = self.pos(block)?;
        (b != 0).then(|| self.rpo[self.idom[b] as usize])
    }

    /// Children of `block` in the dominator tree.
    pub fn children(&self, block: BlockId) -> &[BlockId] {
        match self.pos(block) {
            Some(b) => {
                &self.children[self.child_start[b] as usize..self.child_start[b + 1] as usize]
            }
            None => &[],
        }
    }

    /// Dominance frontier of `block`.
    pub fn frontier(&self, block: BlockId) -> &[BlockId] {
        self.pos(block).map_or(&[], |b| self.frontier[b].as_slice())
    }

    /// Returns `true` when `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (Some(a), Some(b)) = (self.pos(a), self.pos(b)) else {
            return false;
        };
        let (pa, pb) = (self.pre[a], self.pre[b]);
        pa <= pb && pb < pa + self.size[a]
    }

    /// Returns `true` when `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Blocks in dominator-tree pre-order (useful for SSA renaming).
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.rpo.len());
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children(b).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Returns `true` when the definition `def` dominates the use of its value
    /// at instruction `user`. Phi uses are considered to occur at the end of
    /// the corresponding predecessor block, which the caller models by passing
    /// `user_block` explicitly.
    pub fn def_dominates_use(
        &self,
        function: &Function,
        def: InstId,
        user: InstId,
        user_block: BlockId,
    ) -> bool {
        let def_block = function.inst(def).block;
        if def_block != user_block {
            return self.dominates(def_block, user_block);
        }
        // Same block: rely on intra-block ordering. Phis implicitly precede
        // every ordinary instruction. A definition listed before the user
        // dominates it; so does one listed in a block the user is not in
        // (e.g. a phi use routed through a predecessor): the definition
        // reaches the block end.
        if def == user {
            return false;
        }
        for inst in function.block(def_block).all_insts() {
            if inst == def {
                return true;
            }
            if inst == user {
                return false;
            }
        }
        false
    }
}

/// The nearest common dominator of two rpo positions.
fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
        }
    }
    a
}

/// Computes the set of blocks where phi-nodes are required for a variable
/// defined in `def_blocks`, using iterated dominance frontiers.
pub fn iterated_dominance_frontier(
    domtree: &DomTree,
    def_blocks: &HashSet<BlockId>,
) -> HashSet<BlockId> {
    let mut result = HashSet::new();
    let mut worklist: Vec<BlockId> = def_blocks
        .iter()
        .copied()
        .filter(|b| domtree.is_reachable(*b))
        .collect();
    let mut enqueued: HashSet<BlockId> = worklist.iter().copied().collect();
    while let Some(b) = worklist.pop() {
        for &f in domtree.frontier(b) {
            if result.insert(f) && enqueued.insert(f) {
                worklist.push(f);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instruction::ICmpPred;
    use crate::types::Type;
    use crate::value::Value;

    /// Builds the classic diamond CFG: entry -> {a, b} -> join.
    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("d", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let t = b.create_block("a");
        let e = b.create_block("b");
        let j = b.create_block("join");
        b.switch_to(entry);
        let c = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(Value::Arg(0)));
        (b.finish(), entry, t, e, j)
    }

    #[test]
    fn diamond_idoms() {
        let (f, entry, a, b, join) = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(a), Some(entry));
        assert_eq!(dt.idom(b), Some(entry));
        assert_eq!(dt.idom(join), Some(entry));
        assert!(dt.dominates(entry, join));
        assert!(!dt.dominates(a, join));
        assert!(dt.strictly_dominates(entry, a));
        assert!(!dt.strictly_dominates(a, a));
        assert!(dt.dominates(a, a));
    }

    #[test]
    fn diamond_frontiers() {
        let (f, _entry, a, b, join) = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.frontier(a), &[join]);
        assert_eq!(dt.frontier(b), &[join]);
        assert!(dt.frontier(join).is_empty());
    }

    #[test]
    fn loop_frontier_includes_header() {
        // entry -> header -> body -> header (back edge); header -> exit
        let mut b = FunctionBuilder::new("loop", vec![Type::I32], Type::Void);
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let c = b.icmp(ICmpPred::Slt, Value::Arg(0), Value::i32(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(body), Some(header));
        assert_eq!(dt.idom(exit), Some(header));
        // The back edge puts the header in the body's (and its own) frontier.
        assert!(dt.frontier(body).contains(&header));
        assert!(dt.frontier(header).contains(&header));
    }

    #[test]
    fn idf_of_two_branch_defs_is_join() {
        let (f, _entry, a, b, join) = diamond();
        let dt = DomTree::compute(&f);
        let defs: HashSet<BlockId> = [a, b].into_iter().collect();
        let idf = iterated_dominance_frontier(&dt, &defs);
        assert_eq!(idf, [join].into_iter().collect());
    }

    #[test]
    fn preorder_visits_all_reachable_blocks_once() {
        let (f, ..) = diamond();
        let dt = DomTree::compute(&f);
        let pre = dt.preorder();
        assert_eq!(pre.len(), 4);
        let unique: HashSet<_> = pre.iter().collect();
        assert_eq!(unique.len(), 4);
        assert_eq!(pre[0], f.entry());
    }

    #[test]
    fn unreachable_blocks_are_not_in_tree() {
        let (mut f, ..) = diamond();
        let dead = f.add_block("dead");
        f.append_inst(dead, crate::instruction::InstKind::Unreachable, Type::Void);
        let dt = DomTree::compute(&f);
        assert!(!dt.is_reachable(dead));
        assert_eq!(dt.idom(dead), None);
        assert!(!dt.dominates(f.entry(), dead));
    }

    #[test]
    fn intra_block_def_use_ordering() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        let x = b.binary(crate::instruction::BinOp::Add, Value::Arg(0), Value::i32(1));
        let y = b.binary(crate::instruction::BinOp::Mul, x, Value::i32(2));
        b.ret(Some(y));
        let f = b.finish();
        let dt = DomTree::compute(&f);
        let xid = x.as_inst().unwrap();
        let yid = y.as_inst().unwrap();
        assert!(dt.def_dominates_use(&f, xid, yid, entry));
        assert!(!dt.def_dominates_use(&f, yid, xid, entry));
    }
}

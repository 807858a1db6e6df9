//! Dead-code elimination: removes side-effect-free instructions whose results
//! are never used, iterating to a fixed point.

use ssa_ir::{EntityId, Function, InstId};

/// Removes dead instructions. Returns the number of instructions removed.
///
/// Counts the uses of every result once, then retires instructions from a
/// worklist: removing one decrements its operands' counts, and an operand
/// whose count drops to zero is dead in turn. This removes exactly what
/// rescanning until nothing changes would.
pub fn eliminate_dead_code(function: &mut Function) -> usize {
    let cap = function.inst_capacity();
    let mut uses = vec![0u32; cap];
    let mut listed = vec![false; cap];
    for block in function.block_ids() {
        for inst in function.block(block).all_insts() {
            listed[inst.index()] = true;
            function.inst(inst).kind.for_each_operand(|v| {
                // A dangling operand may name an id this function never
                // allocated; it counts as a use of nothing.
                if let Some(u) = v.as_inst().and_then(|d| uses.get_mut(d.index())) {
                    *u += 1;
                }
            });
        }
    }
    let removable = |function: &Function, inst: InstId| {
        let data = function.inst(inst);
        data.ty.is_first_class() && !data.kind.has_side_effects()
    };
    let mut worklist: Vec<InstId> = function
        .block_ids()
        .flat_map(|b| function.block(b).all_insts())
        .filter(|&inst| uses[inst.index()] == 0 && removable(function, inst))
        .collect();
    let mut removed = Vec::new();
    while let Some(inst) = worklist.pop() {
        removed.push(inst);
        function.inst(inst).kind.for_each_operand(|v| {
            let Some(d) = v.as_inst().filter(|d| d.index() < cap) else {
                return;
            };
            uses[d.index()] -= 1;
            if uses[d.index()] == 0 && listed[d.index()] && removable(function, d) {
                worklist.push(d);
            }
        });
    }
    function.remove_insts(&removed);
    removed.len()
}

/// Removes blocks that are unreachable from the entry, fixing up phi-nodes in
/// the surviving blocks. Returns the number of blocks removed.
pub fn remove_unreachable_blocks(function: &mut Function) -> usize {
    let Some(entry) = function.try_entry() else {
        return 0;
    };
    let mut reachable = vec![false; function.block_capacity()];
    reachable[entry.index()] = true;
    let mut stack = vec![entry];
    while let Some(block) = stack.pop() {
        for succ in function.successor_iter(block) {
            if !std::mem::replace(&mut reachable[succ.index()], true) {
                stack.push(succ);
            }
        }
    }
    let dead: Vec<_> = function
        .block_ids()
        .filter(|b| !reachable[b.index()])
        .collect();
    if dead.is_empty() {
        return 0;
    }
    let mut is_dead = vec![false; function.block_capacity()];
    for b in &dead {
        is_dead[b.index()] = true;
    }
    // Remove phi incomings that reference dead predecessors.
    for block in function.block_ids().collect::<Vec<_>>() {
        if is_dead[block.index()] {
            continue;
        }
        for i in 0..function.block(block).phis.len() {
            let phi = function.block(block).phis[i];
            if let ssa_ir::InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind {
                incomings.retain(|(_, b)| !is_dead[b.index()]);
            }
        }
    }
    function.remove_blocks(&dead);
    dead.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;
    use ssa_ir::verifier::assert_valid;

    #[test]
    fn removes_unused_pure_instructions() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  %dead1 = add i32 %x, 1
  %dead2 = mul i32 %dead1, 2
  %live = add i32 %x, 5
  ret i32 %live
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.num_insts(), 2);
        assert_valid(&f);
    }

    #[test]
    fn keeps_side_effecting_instructions() {
        let text = r#"
define void @f(i32 %x, ptr %p) {
entry:
  %unused = call i32 @rand()
  store i32 %x, ptr %p
  ret void
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(f.num_insts(), 3);
    }

    #[test]
    fn removes_unreachable_blocks_and_fixes_phis() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  br label %live
dead:
  %d = add i32 %x, 1
  br label %live
live:
  %p = phi i32 [ %x, %entry ], [ %d, %dead ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = remove_unreachable_blocks(&mut f);
        assert_eq!(removed, 1);
        // The phi now has a single incoming; trivial-phi cleanup makes it valid SSA.
        crate::phi_dedup::simplify_trivial_phis(&mut f);
        assert_valid(&f);
        assert_eq!(f.num_blocks(), 2);
    }

    #[test]
    fn dce_is_idempotent() {
        let text = "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  ret i32 %a\n}";
        let mut f = parse_function(text).unwrap();
        assert_eq!(eliminate_dead_code(&mut f), 0);
        assert_eq!(eliminate_dead_code(&mut f), 0);
    }
}

//! Golden-output test of the merge pipeline.
//!
//! Runs `merge_pair` over a fixed, deterministic set of SPEC2006-shaped
//! pairs (the first few adjacent function pairs of every cleaned
//! `workloads::spec2006()` module) and compares an FNV-1a digest of the
//! printed results against a recorded value. Any change to code generation,
//! SSA repair or the clean-up passes that alters a single merged body (or
//! whether a pair merges at all) changes the digest. Rewrites that are meant
//! to be output-preserving must keep it.

use salssa::{merge_pair, MergeOptions};
use ssa_ir::Function;

/// Adjacent pairs taken from the start of each module.
const PAIRS_PER_MODULE: usize = 3;

/// Digest of every printed result, in module and pair order.
const GOLDEN_DIGEST: u64 = 3_499_860_396_433_551_350;
/// How many of the pairs merge (the rest are refused).
const GOLDEN_MERGED: usize = 57;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

#[test]
fn spec2006_pairs_print_the_recorded_merges() {
    let options = MergeOptions::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let (mut pairs, mut merged) = (0usize, 0usize);
    for spec in workloads::spec2006() {
        let module = spec.generate();
        let mut functions: Vec<Function> = module.functions()[..=PAIRS_PER_MODULE].to_vec();
        for function in &mut functions {
            ssa_passes::cleanup_function(function);
        }
        for window in functions.windows(2) {
            let result = merge_pair(&window[0], &window[1], &options, "merged");
            fnv1a(&mut digest, window[0].name.as_bytes());
            fnv1a(&mut digest, window[1].name.as_bytes());
            match result {
                Some(merge) => {
                    merged += 1;
                    fnv1a(
                        &mut digest,
                        ssa_ir::print_function(&merge.merged).as_bytes(),
                    );
                }
                None => fnv1a(&mut digest, b"<refused>"),
            }
            pairs += 1;
        }
    }
    assert_eq!(pairs, 19 * PAIRS_PER_MODULE);
    assert_eq!(
        (digest, merged),
        (GOLDEN_DIGEST, GOLDEN_MERGED),
        "merge output drifted from the recorded golden digest"
    );
}

//! Layer replay: the traced pass measures the layers inside the merger by
//! calling their public functions itself, pair by pair, in the order
//! `salssa::merge_pair` calls them. A fidelity check proves the replay does
//! the same work: every replayed pair must print exactly what `merge_pair`
//! produced for it.

use crate::trace::Tracer;
use callgraph::{CallGraph, CorpusCallIndex};
use fm_align::{align_banded, linearize, Band};
use salssa::{codegen, ssa_repair, FunctionMerger, MergeOptions, PairMerge, SalSsaMerger};
use ssa_ir::{Function, Linkage, Module};
use ssa_passes::Target;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use xmerge::{CandidatePair, CorpusIndex, DiscoveryConfig};

/// One pair the merger scored, with what `merge_pair` printed for it
/// (`None` when it refused the pair).
pub struct Pair {
    pub f1: Function,
    pub f2: Function,
    pub merged_name: String,
    /// Discovery distance (sizes the alignment band, never its result).
    pub distance: Option<u64>,
    pub expected: Option<String>,
}

fn printed(merge: Option<&PairMerge>) -> Option<String> {
    merge.map(|m| ssa_ir::print_function(&m.merged))
}

/// A merger that records every pair `merge_module` asks it to
/// merge, with the result, so the replay visits exactly the run's pairs.
pub struct Recorder {
    inner: SalSsaMerger,
    pairs: Mutex<Vec<Pair>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            inner: SalSsaMerger::new(MergeOptions::default()),
            pairs: Mutex::new(Vec::new()),
        }
    }

    /// The recorded pairs in a deterministic order (scoring threads record
    /// them in completion order).
    pub fn into_pairs(self) -> Vec<Pair> {
        let mut pairs = self
            .pairs
            .into_inner()
            .expect("a scoring thread panicked while recording");
        pairs.sort_by(|a, b| {
            (&a.f1.name, &a.f2.name, &a.merged_name).cmp(&(&b.f1.name, &b.f2.name, &b.merged_name))
        });
        pairs
    }
}

impl FunctionMerger for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn merge_pair(&self, f1: &Function, f2: &Function, merged_name: &str) -> Option<PairMerge> {
        let merge = self.inner.merge_pair(f1, f2, merged_name);
        let pair = Pair {
            f1: f1.clone(),
            f2: f2.clone(),
            merged_name: merged_name.to_string(),
            distance: None,
            expected: printed(merge.as_ref()),
        };
        self.pairs
            .lock()
            .expect("a scoring thread panicked while recording")
            .push(pair);
        merge
    }

    fn target(&self) -> Target {
        self.inner.target()
    }
}

/// Replays the first round of `xmerge_corpus` up to scoring: index,
/// discover and call graph.
pub fn xmerge_front(modules: &[Module], tr: &mut Tracer) -> (CorpusIndex, Vec<CandidatePair>) {
    let span = tr.enter("xmerge.index");
    let index = CorpusIndex::build(modules, fm_align::MinHash::DEFAULT_HASHES);
    tr.exit(span);
    let span = tr.enter("xmerge.discover");
    let candidates = xmerge::discover(&index, &DiscoveryConfig::default());
    tr.exit(span);
    let span = tr.enter("callgraph");
    let graph = CallGraph::resolve(&CorpusCallIndex::build(modules));
    black_box((graph.locality(), graph.condensation()));
    tr.exit(span);
    (index, candidates)
}

/// The pairs `xmerge_corpus` scores in its first round: candidates that are
/// neither ODR-identical copies nor rejected by the admissible pre-filter.
/// The expected prints come from `merge_pair_with_distance`.
pub fn xmerge_pairs(
    modules: &[Module],
    index: &CorpusIndex,
    candidates: &[CandidatePair],
) -> Vec<Pair> {
    let by_name: HashMap<&str, &Module> = modules.iter().map(|m| (m.name.as_str(), m)).collect();
    let lookup = |entry: usize| {
        let summary = &index.entries[entry];
        by_name[summary.module.as_str()]
            .function(&summary.name)
            .expect("index entries name defined functions")
    };
    let options = MergeOptions::default();
    let mut pairs = Vec::new();
    for candidate in candidates {
        let (f1, f2) = (lookup(candidate.a), lookup(candidate.b));
        let odr_copy = f1.name == f2.name
            && f1.linkage == Linkage::External
            && ssa_ir::structurally_equal(f1, f2);
        let band = options
            .band
            .map(|slack| Band::from_hint(slack, Some(candidate.distance)));
        if odr_copy || fm_align::prefilter_rejects(f1, f2, options.target, band) {
            continue;
        }
        let merged_name = "merged.xm.trial";
        let merge = salssa::merge_pair_with_distance(
            f1,
            f2,
            &options,
            merged_name,
            Some(candidate.distance),
        );
        pairs.push(Pair {
            f1: f1.clone(),
            f2: f2.clone(),
            merged_name: merged_name.to_string(),
            distance: Some(candidate.distance),
            expected: printed(merge.as_ref()),
        });
    }
    pairs
}

/// What one replay pass produced.
pub struct Replayed {
    /// DP cells of every alignment.
    pub cells: u64,
    /// Pairs whose replayed result printed differently from `merge_pair`'s.
    pub mismatches: usize,
}

/// Replays `merge_pair` on every pair, one span per layer call.
pub fn replay(pairs: &[Pair], tr: &mut Tracer) -> Replayed {
    let options = MergeOptions::default();
    let mut out = Replayed {
        cells: 0,
        mismatches: 0,
    };
    for pair in pairs {
        let (f1, f2) = (&pair.f1, &pair.f2);
        let pair_span = tr.enter("replay.pair");

        let span = tr.enter("fm_align.align");
        let seq1 = linearize(f1);
        let seq2 = linearize(f2);
        let band = options
            .band
            .map(|slack| Band::from_hint(slack, pair.distance));
        let alignment = align_banded(f1, &seq1, f2, &seq2, band);
        tr.exit(span);
        out.cells += alignment.stats.cells;

        let span = tr.enter("codegen.generate");
        let generated = codegen::generate(f1, f2, &alignment, &options, &pair.merged_name);
        tr.exit(span);
        let merged = generated.and_then(|(mut merged, maps)| {
            let span = tr.enter("ssa_passes.simplify_cfg");
            ssa_passes::simplify_cfg::simplify(&mut merged);
            tr.exit(span);
            let span = tr.enter("ssa_repair");
            ssa_repair::repair(&mut merged, &maps, options.phi_coalescing);
            tr.exit(span);
            let span = tr.enter("ssa_passes.cleanup");
            ssa_passes::cleanup_function(&mut merged);
            tr.exit(span);
            if options.phi_coalescing {
                let span = tr.enter("ssa_passes.phi_dedup");
                ssa_passes::phi_dedup::absorb_undef_compatible_phis(&mut merged);
                tr.exit(span);
                let span = tr.enter("ssa_passes.cleanup");
                ssa_passes::cleanup_function(&mut merged);
                tr.exit(span);
            }
            let span = tr.enter("merge.verify");
            let valid = ssa_ir::verifier::verify_function(&merged).is_empty();
            tr.exit(span);
            valid.then_some(merged)
        });
        tr.exit(pair_span);

        if merged.map(|m| ssa_ir::print_function(&m)) != pair.expected {
            out.mismatches += 1;
        }
    }
    out
}

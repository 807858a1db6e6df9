//! End-to-end tests of the cross-module merging subsystem over generated
//! multi-module corpora — including the acceptance scenario: on an 8-module
//! corpus the pipeline commits cross-module merges, every output module
//! passes the verifier, and the semantic oracle reports zero mismatches.

use ssa_ir::verifier::verify_module;
use ssa_ir::{link_modules, print_module};
use workloads::CorpusSpec;
use xmerge::{
    xmerge_corpus, xmerge_corpus_with_index, CorpusIndex, FixpointConfig, HostPolicy, XMergeConfig,
};

fn eight_module_corpus() -> Vec<ssa_ir::Module> {
    CorpusSpec::default().generate()
}

#[test]
fn acceptance_eight_module_corpus_merges_cleanly_under_the_oracle() {
    let mut corpus = eight_module_corpus();
    assert_eq!(corpus.len(), 8);
    let config = XMergeConfig::new().with_check_semantics(true);
    let report = xmerge_corpus(&mut corpus, &config);

    assert!(
        report.num_merges() >= 1,
        "no cross-module merge committed: {report}"
    );
    assert_eq!(
        report.semantic_rejections, 0,
        "oracle rejected sound merges: {report}"
    );
    for module in &corpus {
        assert!(
            verify_module(module).is_empty(),
            "module {} failed verification after xmerge",
            module.name
        );
    }
    // Every commit crossed a module boundary and paid for itself.
    for record in &report.committed {
        assert_ne!(record.host_module, record.donor_module);
        assert!(record.profit_bytes > 0);
    }
    assert!(report.size_after < report.size_before);
    // The linked whole program is still well-formed.
    let linked = link_modules(&corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
}

/// The fixpoint acceptance scenario: on the 8-module corpus, a merged host
/// re-enters the candidate pool and merges again in a later round, with the
/// differential oracle attesting every commit (0 mismatches).
#[test]
fn fixpoint_commits_second_round_merges_under_the_oracle() {
    let mut corpus = eight_module_corpus();
    let config = XMergeConfig::new()
        .with_check_semantics(true)
        .with_fixpoint(FixpointConfig::default());
    let report = xmerge_corpus(&mut corpus, &config);

    assert!(report.rounds >= 2, "expected multiple rounds: {report}");
    assert!(
        report.round_commits.len() >= 2 && report.round_commits[1] > 0,
        "no second-round commit: {report}"
    );
    assert_eq!(report.semantic_rejections, 0, "oracle mismatches: {report}");
    // Later rounds really do merge the products of earlier rounds.
    assert!(
        report
            .committed
            .iter()
            .any(|r| r.f1.starts_with("merged.xm.") || r.f2.starts_with("merged.xm.")),
        "no merged host re-entered the pool: {report}"
    );
    for module in &corpus {
        assert!(
            verify_module(module).is_empty(),
            "module {} failed verification after fixpoint xmerge",
            module.name
        );
    }
    let linked = link_modules(&corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
    // The structural-key cache carried real traffic and planner stats add up.
    assert!(report.cache_hits > 0, "{report}");
    assert!(report.planner.candidates > 0);
    assert!(report.planner.rounds >= report.rounds);
}

/// The first fixpoint round is exactly the single-shot pipeline: its commits
/// are a prefix of the fixpoint run's commit list.
#[test]
fn fixpoint_round_one_matches_the_single_shot_pipeline() {
    let mut single = eight_module_corpus();
    let baseline = xmerge_corpus(&mut single, &XMergeConfig::new());
    let mut fix = eight_module_corpus();
    let report = xmerge_corpus(
        &mut fix,
        &XMergeConfig::new().with_fixpoint(FixpointConfig::default()),
    );
    let first_round = report.round_commits[0];
    assert_eq!(baseline.committed.len(), first_round);
    assert_eq!(baseline.committed[..], report.committed[..first_round]);
}

/// `xmerge_corpus_with_index` seeded with the index of an identical corpus
/// skips every re-summarization and commits identically.
#[test]
fn prior_index_reuse_changes_nothing_but_skips_summarization() {
    let mut baseline_corpus = eight_module_corpus();
    let (baseline, index, calls) =
        xmerge_corpus_with_index(&mut baseline_corpus, &XMergeConfig::new(), None, None);
    assert_eq!(baseline.index_reuse.reused, 0);
    assert_eq!(baseline.index_reuse.refreshed, 8);
    assert_eq!(baseline.call_index_reuse.reused, 0);
    assert_eq!(baseline.call_index_reuse.refreshed, 8);

    // Round-trip both indices through their serialized form, like `--index`
    // does (the call graph is persisted alongside the summary index).
    let reloaded = CorpusIndex::deserialize(&index.serialize()).unwrap();
    let reloaded_calls = callgraph::CorpusCallIndex::deserialize(&calls.serialize()).unwrap();
    let mut corpus = eight_module_corpus();
    let (report, _, _) = xmerge_corpus_with_index(
        &mut corpus,
        &XMergeConfig::new(),
        Some(reloaded),
        Some(reloaded_calls),
    );
    assert_eq!(report.index_reuse.reused, 8, "{report}");
    assert_eq!(report.index_reuse.refreshed, 0);
    assert_eq!(report.call_index_reuse.reused, 8, "{report}");
    assert_eq!(report.call_index_reuse.refreshed, 0);
    assert_eq!(report.committed, baseline.committed);
    for (a, b) in baseline_corpus.iter().zip(&corpus) {
        assert_eq!(print_module(a), print_module(b));
    }
}

/// The host-selection acceptance scenario: on a generated call-heavy corpus,
/// the call-graph policy forces strictly fewer cross-module call edges than
/// the size policy, with zero semantic-oracle mismatches.
#[test]
fn callgraph_host_policy_forces_strictly_fewer_cross_edges() {
    let mut size_corpus = CorpusSpec::call_heavy().generate();
    let size_report = xmerge_corpus(&mut size_corpus, &XMergeConfig::new());
    assert_eq!(size_report.host_policy, HostPolicy::Size);
    assert_eq!(
        size_report.saved_cross_edges, 0,
        "the size policy never flips, so it never saves"
    );

    let mut cg_corpus = CorpusSpec::call_heavy().generate();
    let config = XMergeConfig::new()
        .with_host_policy(HostPolicy::CallGraph)
        .with_check_semantics(true);
    let cg_report = xmerge_corpus(&mut cg_corpus, &config);
    assert_eq!(cg_report.host_policy, HostPolicy::CallGraph);
    assert!(cg_report.num_commits() >= 1, "{cg_report}");
    assert_eq!(
        cg_report.semantic_rejections, 0,
        "oracle mismatches under the callgraph policy: {cg_report}"
    );
    assert!(
        cg_report.forced_cross_edges < size_report.forced_cross_edges,
        "callgraph policy must force strictly fewer cross-module call edges: \
         {} (callgraph) vs {} (size)",
        cg_report.forced_cross_edges,
        size_report.forced_cross_edges
    );
    assert!(
        cg_report.saved_cross_edges > 0,
        "at least one placement must have been flipped profitably"
    );
    for module in &cg_corpus {
        assert!(
            verify_module(module).is_empty(),
            "module {} failed verification under the callgraph policy",
            module.name
        );
    }
    let linked = link_modules(&cg_corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
}

/// Callgraph policy + fixpoint + oracle compose on the call-heavy corpus
/// without rejections or verifier breakage.
#[test]
fn policy_and_fixpoint_compose_cleanly() {
    let mut corpus = CorpusSpec::call_heavy().generate();
    let config = XMergeConfig::new()
        .with_host_policy(HostPolicy::CallGraph)
        .with_check_semantics(true)
        .with_fixpoint(FixpointConfig::default());
    let report = xmerge_corpus(&mut corpus, &config);
    assert!(report.num_commits() >= 1, "{report}");
    assert_eq!(report.semantic_rejections, 0, "{report}");
    assert!(
        report.planner.oracle_links > 0,
        "the oracle must have linked pairs: {report}"
    );
    // The per-round before-link cache keeps links at (or below) two per
    // oracle-checked commit attempt.
    assert!(
        report.planner.oracle_links <= 2 * (report.attempts + report.num_commits()),
        "{report}"
    );
    for module in &corpus {
        assert!(verify_module(module).is_empty(), "module {}", module.name);
    }
    let linked = link_modules(&corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
}

#[test]
fn oracle_and_unchecked_runs_commit_identically_on_generated_corpora() {
    let mut plain = eight_module_corpus();
    let baseline = xmerge_corpus(&mut plain, &XMergeConfig::new());
    let mut checked = eight_module_corpus();
    let report = xmerge_corpus(
        &mut checked,
        &XMergeConfig::new().with_check_semantics(true),
    );
    assert_eq!(baseline.committed, report.committed);
    for (a, b) in plain.iter().zip(&checked) {
        assert_eq!(print_module(a), print_module(b));
    }
}

#[test]
fn xmerge_is_deterministic() {
    let run = || {
        let mut corpus = eight_module_corpus();
        let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
        (
            report.committed,
            corpus.iter().map(print_module).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn corpus_index_survives_serialization_on_generated_corpora() {
    let corpus = eight_module_corpus();
    let index = CorpusIndex::build(&corpus, fm_align::MinHash::DEFAULT_HASHES);
    assert_eq!(index.num_modules(), 8);
    assert_eq!(
        index.num_functions(),
        corpus.iter().map(|m| m.num_functions()).sum::<usize>()
    );
    let reloaded = CorpusIndex::deserialize(&index.serialize()).unwrap();
    assert_eq!(index, reloaded);
}

#[test]
fn donor_thunks_keep_every_original_symbol_exported() {
    let mut corpus = eight_module_corpus();
    let names_before: Vec<(String, String)> = corpus
        .iter()
        .flat_map(|m| {
            m.functions()
                .iter()
                .map(|f| (m.name.clone(), f.name.clone()))
        })
        .collect();
    let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
    assert!(report.num_merges() >= 1);
    let dropped: Vec<&(String, String)> = names_before
        .iter()
        .filter(|(module, name)| {
            corpus
                .iter()
                .find(|m| &m.name == module)
                .is_none_or(|m| m.function(name).is_none())
        })
        .collect();
    // Only ODR-deduped donor copies may lose their definition — and those
    // modules must still declare the symbol.
    for (module, name) in &dropped {
        let record = report
            .committed
            .iter()
            .find(|r| r.odr_dedup && &r.donor_module == module && &r.f2 == name)
            .unwrap_or_else(|| panic!("{module}:@{name} vanished without an ODR dedup record"));
        assert!(record.odr_dedup);
        let m = corpus.iter().find(|m| &m.name == module).unwrap();
        assert!(m.declarations().iter().any(|d| &d.name == name));
    }
}

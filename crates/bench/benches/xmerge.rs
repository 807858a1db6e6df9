//! Criterion benchmarks of the cross-module pipeline over generated
//! multi-module corpora: index construction, sharded candidate discovery,
//! structural-key caching on the hazard-check hot path, call-graph
//! construction/resolution, and the end-to-end xmerge run (plain, with the
//! semantic oracle, to a fixpoint, and with the call-graph host policy).

use callgraph::{CallGraph, CorpusCallIndex};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fm_align::MinHash;
use workloads::CorpusSpec;
use xmerge::{
    discover, xmerge_corpus, CorpusIndex, DiscoveryConfig, FixpointConfig, HostPolicy, XMergeConfig,
};

fn corpus(num_modules: usize) -> Vec<ssa_ir::Module> {
    CorpusSpec {
        num_modules,
        seed: 7,
        ..CorpusSpec::default()
    }
    .generate()
}

fn index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("xmerge_index");
    for n in [4usize, 8] {
        let modules = corpus(n);
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| CorpusIndex::build(&modules, MinHash::DEFAULT_HASHES).num_functions())
        });
    }
    group.finish();
}

fn candidate_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("xmerge_discover");
    let modules = corpus(8);
    let index = CorpusIndex::build(&modules, MinHash::DEFAULT_HASHES);
    group.bench_function("eight_modules", |b| {
        b.iter(|| discover(&index, &DiscoveryConfig::default()).len())
    });
    group.finish();
}

/// The hazard-check hot path: `structurally_equal` over unchanged functions.
/// `cached` amortizes one normalized print per function across the run;
/// `uncached` simulates the pre-cache behavior by invalidating the key before
/// every comparison, forcing the re-print the cache exists to avoid.
fn structural_key_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("structural_key");
    let modules = corpus(8);
    let functions: Vec<ssa_ir::Function> = modules
        .iter()
        .flat_map(|m| m.functions().iter().cloned())
        .collect();
    group.bench_function("hazard_scan_cached", |b| {
        b.iter(|| {
            let mut equal = 0usize;
            for f in &functions {
                for g in &functions {
                    if ssa_ir::structurally_equal(f, g) {
                        equal += 1;
                    }
                }
            }
            equal
        })
    });
    let mut invalidating = functions.clone();
    group.bench_function("hazard_scan_uncached", |b| {
        b.iter(|| {
            let mut equal = 0usize;
            for f in invalidating.iter_mut() {
                // Touch the function through a mutating accessor so the next
                // comparison re-prints it, like every pre-cache comparison did.
                let first = f.inst_ids().next();
                if let Some(inst) = first {
                    let _ = f.inst_mut(inst);
                }
                for g in &functions {
                    if ssa_ir::structurally_equal(f, g) {
                        equal += 1;
                    }
                }
            }
            equal
        })
    });
    group.finish();
}

/// Call-graph construction (full scan vs incremental reuse) and resolution
/// with locality summaries on a call-heavy corpus.
fn callgraph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("callgraph");
    let modules = CorpusSpec {
        num_modules: 8,
        ..CorpusSpec::call_heavy()
    }
    .generate();
    group.bench_function("scan_eight_modules", |b| {
        b.iter(|| CorpusCallIndex::build(&modules).num_call_sites())
    });
    let index = CorpusCallIndex::build(&modules);
    group.bench_function("incremental_reuse_all", |b| {
        b.iter(|| CorpusCallIndex::build_incremental(&modules, Some(&index)).1)
    });
    group.bench_function("resolve_and_locality", |b| {
        b.iter(|| {
            let graph = CallGraph::resolve(&index);
            (graph.num_edges(), graph.locality().len())
        })
    });
    group.finish();
}

fn end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("xmerge_pipeline");
    group.sample_size(10);
    for n in [4usize, 8] {
        group.bench_with_input(BenchmarkId::new("plain", n), &n, |b, &n| {
            b.iter(|| {
                let mut modules = corpus(n);
                xmerge_corpus(&mut modules, &XMergeConfig::new()).num_commits()
            })
        });
    }
    group.bench_function("eight_modules_with_oracle", |b| {
        b.iter(|| {
            let mut modules = corpus(8);
            let config = XMergeConfig::new().with_check_semantics(true);
            xmerge_corpus(&mut modules, &config).num_commits()
        })
    });
    group.bench_function("eight_modules_fixpoint", |b| {
        b.iter(|| {
            let mut modules = corpus(8);
            let config = XMergeConfig::new().with_fixpoint(FixpointConfig::default());
            let report = xmerge_corpus(&mut modules, &config);
            (report.rounds, report.num_commits())
        })
    });
    group.bench_function("call_heavy_callgraph_policy", |b| {
        b.iter(|| {
            let mut modules = CorpusSpec::call_heavy().generate();
            let config = XMergeConfig::new().with_host_policy(HostPolicy::CallGraph);
            let report = xmerge_corpus(&mut modules, &config);
            (report.num_commits(), report.forced_cross_edges)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    index_build,
    candidate_discovery,
    structural_key_cache,
    callgraph_build,
    end_to_end
);
criterion_main!(benches);

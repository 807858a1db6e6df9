//! One run of a workload's pipeline over its `.ll` texts, as the `salssa`
//! CLI runs it: parse (recovering) → work → print. The caller decides
//! whether the run is timed (tracer off, telemetry off), traced, or
//! allocation-tracked; the pipeline is the same code in every case. A timed
//! run is timed in stages (the parse, each module's merge, the print, ...),
//! each bracketed by the calibration kernel, so that even a run of several
//! seconds is calibrated by many kernel samples.

use crate::calibrate::Clock;
use crate::trace::Tracer;
use crate::workload::{Input, Kind};
use salssa::{merge_module, DriverConfig, FunctionMerger, MergeOptions, SalSsaMerger};
use ssa_ir::Module;
use std::hint::black_box;
use std::time::Instant;
use xmerge::{CorpusIndex, XMergeConfig};

/// Counts that a deterministic program must repeat exactly on every run of
/// one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    pub commits: usize,
    /// Pairs scored by speculative or inline codegen.
    pub codegens: usize,
    pub prefilter_checked: usize,
    pub prefilter_rejected: usize,
    pub align_cells: u64,
    pub out_bytes: usize,
    /// FNV-1a digest of the printed output.
    pub digest: u64,
}

pub struct RunOutput {
    /// Wall seconds of parse → work → print.
    pub wall: f64,
    /// Calibrated seconds of the same stages (0 without a clock).
    pub calibrated: f64,
    pub counters: Counters,
    /// Functions the recovering frontend skipped.
    pub skipped: usize,
    /// The output modules (the parsed inputs for `index_l`).
    pub modules: Vec<Module>,
    /// Input functions of modules that failed `verify_module` inside the
    /// pipeline (`index_l` verifies as part of its work).
    pub invalid_inputs: usize,
    /// The serialized index (`index_l` only).
    pub index_text: String,
    /// Modelled x86-like code size of the output.
    pub size_after: usize,
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash = (hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Parses every text with the recovering frontend and restores the module
/// names. Returns the modules and the number of skipped functions.
pub fn parse_all(input: &Input, tr: &mut Tracer) -> (Vec<Module>, usize) {
    let mut skipped = 0;
    let mut modules = Vec::with_capacity(input.texts.len());
    for (text, name) in input.texts.iter().zip(&input.names) {
        let span = tr.enter("ssa_ir.parser");
        let recovered = ssa_ir::parse_module_recovering(text);
        tr.exit(span);
        skipped += recovered.skipped.len();
        let mut module = recovered.module;
        module.name = name.clone();
        modules.push(module);
    }
    (modules, skipped)
}

fn print_all(modules: &[Module], tr: &mut Tracer, counters: &mut Counters) {
    let mut digest = FNV_OFFSET;
    for module in modules {
        let span = tr.enter("ssa_ir.printer");
        let text = black_box(ssa_ir::print_module(module));
        tr.exit(span);
        counters.out_bytes += text.len();
        digest = fnv1a(text.as_bytes(), digest);
    }
    counters.digest = digest;
}

/// Wall and calibrated seconds of a run, summed over its stages.
struct Stages<'c> {
    clock: Option<&'c mut Clock>,
    wall: f64,
    calibrated: f64,
}

impl Stages<'_> {
    fn time<T>(&mut self, stage: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = stage();
        let wall = start.elapsed().as_secs_f64();
        self.wall += wall;
        if let Some(clock) = self.clock.as_deref_mut() {
            self.calibrated += clock.calibrate(wall);
        }
        result
    }
}

/// The `merge_module` configuration `salssa merge -t 1 --parallel` uses.
pub fn intra_config() -> DriverConfig {
    DriverConfig::with_threshold(1).parallel()
}

/// Runs `kind` once. `merger` replaces the SalSSA merger for `intra_spec06`
/// (the traced pass records the pairs it is asked to merge); `clock`, when
/// given, brackets every stage.
pub fn run(
    kind: Kind,
    input: &Input,
    tr: &mut Tracer,
    merger: Option<&dyn FunctionMerger>,
    clock: Option<&mut Clock>,
) -> RunOutput {
    tr.next_run();
    let salssa_merger = SalSsaMerger::new(MergeOptions::default());
    let merger = merger.unwrap_or(&salssa_merger);
    let mut counters = Counters::default();
    let mut invalid_inputs = 0;
    let mut index_text = String::new();
    let mut stages = Stages {
        clock,
        wall: 0.0,
        calibrated: 0.0,
    };
    let (mut modules, skipped) = stages.time(|| parse_all(input, tr));
    match kind {
        Kind::IntraSpec06 => {
            let config = intra_config();
            for module in &mut modules {
                let report = stages.time(|| {
                    let span = tr.enter_cpu("merge_module");
                    let report = merge_module(module, merger, &config);
                    tr.exit(span);
                    report
                });
                counters.commits += report.num_merges();
                counters.codegens +=
                    report.planner.speculative_scores + report.planner.inline_scores;
                counters.prefilter_checked += report.planner.prefilter_checked;
                counters.prefilter_rejected += report.planner.prefilter_rejected;
                counters.align_cells += report.total_cells;
            }
            stages.time(|| print_all(&modules, tr, &mut counters));
        }
        Kind::XmergeM => {
            let report = stages.time(|| {
                let span = tr.enter_cpu("xmerge_corpus");
                let report = xmerge::xmerge_corpus(&mut modules, &XMergeConfig::new());
                tr.exit(span);
                report
            });
            counters.commits = report.num_commits();
            counters.codegens = report.planner.speculative_scores + report.planner.inline_scores;
            counters.prefilter_checked = report.planner.prefilter_checked;
            counters.prefilter_rejected = report.planner.prefilter_rejected;
            counters.align_cells = report.align_cells;
            stages.time(|| print_all(&modules, tr, &mut counters));
        }
        Kind::IndexL => {
            stages.time(|| {
                for module in &modules {
                    let span = tr.enter("ssa_ir.verifier");
                    let errors = ssa_ir::verifier::verify_module(module);
                    tr.exit(span);
                    if !errors.is_empty() {
                        invalid_inputs += module.num_functions();
                    }
                }
            });
            index_text = stages.time(|| {
                let span = tr.enter("xmerge.index");
                let index = CorpusIndex::build(&modules, fm_align::MinHash::DEFAULT_HASHES);
                let text = index.serialize();
                tr.exit(span);
                text
            });
            counters.out_bytes = index_text.len();
            counters.digest = fnv1a(index_text.as_bytes(), FNV_OFFSET);
        }
    }
    let size_after = modules
        .iter()
        .map(|m| ssa_passes::module_size_bytes(m, ssa_passes::Target::X86Like))
        .sum();
    RunOutput {
        wall: stages.wall,
        calibrated: stages.calibrated,
        counters,
        skipped,
        modules,
        invalid_inputs,
        index_text,
        size_after,
    }
}

//! `perfbench` — the SalSSA merger's benchmark, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <intra_spec06|xmerge_m|index_l> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark generates the workload's modules from the seed, hands the
//! program only their `.ll` text, and measures from outside: it times calls
//! into the public functions of each layer. Informational lines start with
//! `#`; the last line of standard output is one JSON object.
//!
//! * `--trace 0` times untraced runs for `--seconds` (program tracing and
//!   allocation tracking asserted off) and prints the end-to-end metrics.
//!   Allocations per function come from one run with tracking on, which
//!   also serves as the untimed warm-up. A calibration kernel brackets every
//!   run and set-up, to take the host's drifting speed out of the times
//!   (see `calibrate`).
//! * `--trace 1` alternates untraced and traced runs for `--seconds`, then
//!   replays the layers inside the merger pair by pair (see `replay`), and
//!   prints the per-layer metrics. The spans are written to
//!   `perfbench/traces/<workload>-seed<n>.jsonl`.
//!
//! Every run's output is checked (see `check`); `correct` is false when any
//! function failed, when a deterministic counter differed between runs, or
//! when the replay did not reproduce `merge_pair`.

mod calibrate;
mod check;
mod replay;
mod run;
mod trace;
mod workload;

use calibrate::Clock;
use check::Book;
use run::RunOutput;
use ssa_ir::Module;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{LayerCost, Tracer};
use workload::{Input, Kind};

/// Set-up repetitions per `--trace 0` invocation; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Fewest timed runs per invocation, however long each run takes.
const MIN_RUNS: usize = 3;

/// The layers the traced pass reports, in pipeline order.
const LAYERS: &[&str] = &[
    "ssa_ir.parser",
    "ssa_ir.verifier",
    "xmerge.index",
    "xmerge.discover",
    "callgraph",
    "fm_align.align",
    "codegen.generate",
    "ssa_passes.simplify_cfg",
    "ssa_repair",
    "ssa_passes.cleanup",
    "ssa_passes.phi_dedup",
    "merge.verify",
    "ssa_ir.printer",
];

/// The paper's SalSSA code-size reduction range on SPEC2006 (Fig. 17a),
/// printed beside `intra_spec06` for information only.
const PAPER_FIG17A_PCT: (f64, f64) = (7.9, 9.7);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <intra_spec06|xmerge_m|index_l> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: metrics in insertion order, each with its unit.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        out.push_str("}}");
        out
    }
}

/// One timed set-up: generate, clean and print the workload. Its
/// calibrated seconds go to `times`.
fn setup_rep(args: &Args, clock: &mut Clock, times: &mut Vec<f64>) -> Input {
    let start = Instant::now();
    let input = workload::generate(args.kind, args.seed);
    times.push(clock.calibrate(start.elapsed().as_secs_f64()));
    input
}

fn size_bytes(modules: &[Module]) -> usize {
    modules
        .iter()
        .map(|m| ssa_passes::module_size_bytes(m, ssa_passes::Target::X86Like))
        .sum()
}

/// Runs the pipeline once, isolating a panic (`None`).
fn guarded_run(
    args: &Args,
    input: &Input,
    tr: &mut Tracer,
    merger: Option<&dyn salssa::FunctionMerger>,
    clock: Option<&mut Clock>,
) -> Option<RunOutput> {
    catch_unwind(AssertUnwindSafe(|| {
        run::run(args.kind, input, tr, merger, clock)
    }))
    .ok()
}

/// [`guarded_run`], then the output check.
fn checked_run(
    args: &Args,
    input: &Input,
    book: &mut Book,
    tr: &mut Tracer,
    merger: Option<&dyn salssa::FunctionMerger>,
    clock: Option<&mut Clock>,
) -> Option<RunOutput> {
    let out = guarded_run(args, input, tr, merger, clock);
    book.check(out.as_ref());
    out
}

fn assert_telemetry_off() {
    assert!(
        !telemetry::tracing_enabled()
            && !telemetry::alloc_tracking_enabled()
            && !telemetry::decisions_enabled(),
        "timed runs must run with program telemetry off"
    );
}

/// Runs `body` with allocation tracking on; returns its result and the
/// number of allocations it made.
fn with_alloc_tracking<T>(body: impl FnOnce() -> T) -> (T, u64) {
    telemetry::set_alloc_tracking(true);
    let before = telemetry::alloc_snapshot().allocs;
    let result = body();
    let allocs = telemetry::alloc_snapshot().allocs - before;
    telemetry::set_alloc_tracking(false);
    (result, allocs)
}

fn info_input(args: &Args, input: &Input) {
    println!(
        "# {} seed={}: input modules={} functions={} insts={} bytes={} (nproc={})",
        args.kind.name(),
        args.seed,
        input.texts.len(),
        input.functions,
        input.insts,
        input.bytes,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
}

fn info_counters(book: &Book) {
    if let Some((c, _)) = &book.reference {
        println!(
            "# counters: commits={} codegens={} prefilter={}/{} align_cells={} out_bytes={} digest={:016x} (mismatched runs: {})",
            c.commits,
            c.codegens,
            c.prefilter_rejected,
            c.prefilter_checked,
            c.align_cells,
            c.out_bytes,
            c.digest,
            book.counter_mismatches
        );
    }
}

/// `--trace 0`: the end-to-end metrics.
fn timed(args: &Args) -> Report {
    assert_telemetry_off();
    let mut clock = Clock::new();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let input = setup_rep(args, &mut clock, &mut setup_times);
    info_input(args, &input);
    let (before, _) = run::parse_all(&input, &mut Tracer::off());
    let size_before = size_bytes(&before);
    let mut book = Book::new(args.kind, &input, &before, args.seed);

    // The allocation-tracked run doubles as the untimed warm-up: it fills
    // the caches and sets the reference counters.
    let (out, allocs) =
        with_alloc_tracking(|| guarded_run(args, &input, &mut Tracer::off(), None, None));
    book.check(out.as_ref());
    drop(out);
    clock.resync();
    let window = Instant::now();
    let deadline = window + Duration::from_secs_f64(args.seconds);
    // Wall and calibrated seconds of each timed run (see `calibrate`).
    let (mut walls, mut run_times) = (Vec::new(), Vec::new());
    let mut last = None;
    while walls.len() < MIN_RUNS || Instant::now() < deadline {
        drop(last.take());
        // The set-up repetitions are spread over the timed window, so their
        // median samples the same machine phases as the runs do.
        let due = (SETUP_REPS as f64 * window.elapsed().as_secs_f64() / args.seconds).ceil();
        while (setup_times.len() as f64) < due.min(SETUP_REPS as f64) {
            setup_rep(args, &mut clock, &mut setup_times);
        }
        assert_telemetry_off();
        let Some(out) = checked_run(
            args,
            &input,
            &mut book,
            &mut Tracer::off(),
            None,
            Some(&mut clock),
        ) else {
            break;
        };
        walls.push(out.wall);
        run_times.push(out.calibrated);
        last = Some(out);
    }
    // Read before the deep check, which links and interprets whole programs.
    let peak_rss = telemetry::peak_rss_bytes().unwrap_or(0) as f64;
    if let Some(out) = &last {
        book.deep_check(out);
    }

    let size_after = book.reference.map_or(0, |(_, size)| size);
    let size_pct = 100.0 * ratio(size_after as f64, size_before as f64);
    info_counters(&book);
    println!(
        "# timed runs={} median_wall_s={} median_calibrated_s={} walls={:?}",
        walls.len(),
        median(&walls),
        median(&run_times),
        walls
    );
    if let (Kind::IntraSpec06, Some(out)) = (args.kind, &last) {
        // The paper reports the geometric mean over programs (modules here).
        let log_sum: f64 = before
            .iter()
            .zip(&out.modules)
            .map(|(b, a)| {
                (size_bytes(std::slice::from_ref(a)) as f64
                    / size_bytes(std::slice::from_ref(b)) as f64)
                    .ln()
            })
            .sum();
        let geomean = (log_sum / before.len() as f64).exp();
        println!(
            "# size_reduction_pct={:.3} total, {:.3} geomean over modules (paper Fig. 17a SalSSA: {}-{}%; information only, not a gate)",
            100.0 - size_pct,
            100.0 * (1.0 - geomean),
            PAPER_FIG17A_PCT.0,
            PAPER_FIG17A_PCT.1
        );
    }
    clock.resync();
    while setup_times.len() < SETUP_REPS {
        setup_rep(args, &mut clock, &mut setup_times);
    }
    println!(
        "# calibration kernel: median_s={} over {} samples (nominal {} s)",
        median(clock.samples()),
        clock.samples().len(),
        calibrate::NOMINAL_S
    );
    let mut report = Report {
        correct: book.failed() == 0 && book.counter_mismatches == 0 && !walls.is_empty(),
        attempted: book.attempted,
        failed: book.failed(),
        metrics: Vec::new(),
    };
    let functions = input.functions as f64;
    report.metric("fns_per_s", ratio(functions, median(&run_times)), "1/s");
    report.metric("size_after_pct", size_pct, "%");
    report.metric("peak_rss_mb", peak_rss / 1e6, "MB");
    report.metric("allocs_per_fn", allocs as f64 / functions, "count");
    report.metric(
        "pass_ratio",
        1.0 - ratio(book.failed() as f64, book.attempted as f64),
        "ratio",
    );
    report.metric("setup_s", median(&setup_times), "s");
    report
}

/// `--trace 1`: the per-layer metrics.
fn traced(args: &Args) -> Report {
    let input = workload::generate(args.kind, args.seed);
    info_input(args, &input);
    let (before, _) = run::parse_all(&input, &mut Tracer::off());
    let mut book = Book::new(args.kind, &input, &before, args.seed);
    let mut tr = Tracer::on();

    // Untraced and traced runs alternate, so both see the same machine.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut plain, mut traced_walls, mut traced_runs) = (Vec::new(), Vec::new(), Vec::new());
    while traced_walls.is_empty() || Instant::now() < deadline {
        assert_telemetry_off();
        let Some(out) = checked_run(args, &input, &mut book, &mut Tracer::off(), None, None) else {
            break;
        };
        book.deep_check(&out);
        plain.push(out.wall);
        let Some(out) = checked_run(args, &input, &mut book, &mut tr, None, None) else {
            break;
        };
        traced_walls.push(out.wall);
        traced_runs.push(tr.current_run());
    }
    // One traced run with allocation tracking gives the direct layers'
    // allocation counts and the tracking overhead.
    let (out, _) = with_alloc_tracking(|| guarded_run(args, &input, &mut tr, None, None));
    book.check(out.as_ref());
    let tracked = (out.map(|o| o.wall), tr.current_run());

    // The layers inside the merger: replay every scored pair twice, untracked
    // for time and tracked for allocations.
    let mut candidates = 0usize;
    let pairs = match args.kind {
        Kind::IntraSpec06 => {
            let recorder = replay::Recorder::new();
            checked_run(
                args,
                &input,
                &mut book,
                &mut Tracer::off(),
                Some(&recorder),
                None,
            );
            recorder.into_pairs()
        }
        Kind::XmergeM => {
            let (index, found) = replay::xmerge_front(&before, &mut Tracer::off());
            candidates = found.len();
            replay::xmerge_pairs(&before, &index, &found)
        }
        Kind::IndexL => Vec::new(),
    };
    let replay_pass = |tr: &mut Tracer| {
        let pass = tr.next_run();
        if args.kind == Kind::XmergeM {
            replay::xmerge_front(&before, tr);
        }
        (pass, replay::replay(&pairs, tr))
    };
    let (timed_pass, replayed) = replay_pass(&mut tr);
    let ((counted_pass, _), _) = with_alloc_tracking(|| replay_pass(&mut tr));

    // Each layer is measured either around the pipeline's own calls (median
    // self time over the traced runs, allocations from the tracked run) or
    // by the replay passes; the other source has no spans of that name.
    let per_run: Vec<BTreeMap<&str, LayerCost>> =
        traced_runs.iter().map(|&r| tr.rollup(Some(r))).collect();
    let tracked_costs = tr.rollup(Some(tracked.1));
    let timed_costs = tr.rollup(Some(timed_pass));
    let counted_costs = tr.rollup(Some(counted_pass));
    let replay_s = |layer: &str| timed_costs.get(layer).map_or(0.0, |c| c.self_s);
    let cost = |layer: &str| -> (f64, u64) {
        let direct: Vec<f64> = per_run
            .iter()
            .map(|costs| costs.get(layer).map_or(0.0, |c| c.self_s))
            .collect();
        let allocs = |costs: &BTreeMap<&str, LayerCost>| costs.get(layer).map_or(0, |c| c.allocs);
        (
            median(&direct) + replay_s(layer),
            allocs(&tracked_costs) + allocs(&counted_costs),
        )
    };
    let replayed_s: f64 = LAYERS.iter().map(|layer| replay_s(layer)).sum();

    let counters = book.reference.map(|(c, _)| c).unwrap_or_default();
    let mut report = Report {
        correct: book.failed() == 0 && book.counter_mismatches == 0 && replayed.mismatches == 0,
        attempted: book.attempted,
        failed: book.failed(),
        metrics: Vec::new(),
    };
    for layer in LAYERS {
        let (self_s, allocs) = cost(layer);
        report.metric(format!("{layer}.self_s"), self_s, "s");
        report.metric(format!("{layer}.allocs"), allocs as f64, "count");
    }
    report.metric(
        "ssa_ir.parser.mb_per_s",
        ratio(input.bytes as f64 / 1e6, cost("ssa_ir.parser").0),
        "MB/s",
    );
    report.metric("xmerge.discover.candidates", candidates as f64, "count");
    report.metric("fm_align.align.cells", replayed.cells as f64, "count");
    report.metric(
        "plan.codegens_per_commit",
        ratio(counters.codegens as f64, counters.commits as f64),
        "ratio",
    );
    report.metric(
        "fm_align.prefilter.reject_ratio",
        ratio(
            counters.prefilter_rejected as f64,
            counters.prefilter_checked as f64,
        ),
        "ratio",
    );
    let printed: f64 = if args.kind.merges() {
        counters.out_bytes as f64
    } else {
        0.0
    };
    report.metric("ssa_ir.printer.out_bytes", printed, "bytes");
    // The entry's CPU seconds (its scoring runs on every worker) minus the
    // replayed layers' seconds: what the replay does not account for.
    for entry in ["merge_module", "xmerge_corpus"] {
        let cpu: Vec<f64> = traced_runs
            .iter()
            .map(|&r| tr.cpu_total(entry, r))
            .collect();
        let unattributed = if cpu.iter().any(|&c| c > 0.0) {
            median(&cpu) - replayed_s
        } else {
            0.0
        };
        report.metric(format!("{entry}.unattributed_s"), unattributed, "s");
    }
    report.metric("run.commits", counters.commits as f64, "count");
    report.metric("run.codegens", counters.codegens as f64, "count");
    report.metric(
        "run.prefilter_checked",
        counters.prefilter_checked as f64,
        "count",
    );
    report.metric(
        "run.prefilter_rejected",
        counters.prefilter_rejected as f64,
        "count",
    );
    report.metric("run.align_cells", counters.align_cells as f64, "count");
    report.metric("run.out_bytes", counters.out_bytes as f64, "bytes");
    report.metric("replay.pairs", pairs.len() as f64, "count");
    report.metric("replay.mismatches", replayed.mismatches as f64, "count");
    let plain_median = median(&plain);
    report.metric(
        "trace.overhead_ratio",
        ratio(median(&traced_walls), plain_median),
        "ratio",
    );
    report.metric(
        "alloc_tracking.overhead_ratio",
        ratio(tracked.0.unwrap_or(0.0), plain_median),
        "ratio",
    );

    info_counters(&book);
    println!(
        "# replay: {} pairs replayed beside the run's {} scored pairs ({} discovered candidates); {} printed differently from merge_pair",
        pairs.len(),
        counters.codegens,
        candidates,
        replayed.mismatches
    );
    println!(
        "# untraced runs={} median_wall_s={}; traced runs={} median_wall_s={}",
        plain.len(),
        plain_median,
        traced_walls.len(),
        median(&traced_walls)
    );
    write_trace(args, &tr);
    report
}

/// Writes the spans next to the benchmark's sources; a failure to write is
/// reported and does not change the result.
fn write_trace(args: &Args, tr: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let path = format!("{dir}/{}-seed{}.jsonl", args.kind.name(), args.seed);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    println!("{}", report.json());
    ExitCode::SUCCESS
}

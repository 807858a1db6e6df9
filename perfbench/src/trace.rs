//! The benchmark's own spans, recorded around calls into the program's
//! public functions (never inside the program).
//!
//! A span has a name, start, end, parent and run id, plus the process-wide
//! allocation count at both ends (read only while allocation tracking is on).
//! Spans stay in memory until the benchmark ends. A disabled tracer records
//! nothing: [`Tracer::enter`] returns `None` after one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    run: u32,
    parent: Option<usize>,
    /// Seconds since the tracer's origin.
    start: f64,
    end: f64,
    allocs_start: u64,
    allocs_end: u64,
    /// Process CPU seconds (all threads) at both ends, for spans entered
    /// with [`Tracer::enter_cpu`].
    cpu: Option<(f64, f64)>,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end - self.start
    }

    fn allocs(&self) -> u64 {
        self.allocs_end.saturating_sub(self.allocs_start)
    }
}

/// Self time and self allocations of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    pub self_s: f64,
    pub allocs: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// User plus system CPU seconds of the whole process, from
/// `/proc/self/stat` (fields 14 and 15, in the fixed 100 Hz user tick of
/// Linux). `None` where that file is unavailable.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized command name start at field 3.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

fn alloc_count() -> u64 {
    if telemetry::alloc_tracking_enabled() {
        telemetry::alloc_snapshot().allocs
    } else {
        0
    }
}

impl Tracer {
    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records every span.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Starts a new run id; later spans carry it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    pub fn current_run(&self) -> u32 {
        self.run
    }

    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let allocs = alloc_count();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.stack.last().copied(),
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            allocs_start: allocs,
            allocs_end: allocs,
            cpu: None,
        });
        self.stack.push(id);
        Some(id)
    }

    /// [`Tracer::enter`], also recording the process CPU time, for spans
    /// whose work runs on the program's worker threads.
    pub fn enter_cpu(&mut self, name: &'static str) -> Option<usize> {
        let id = self.enter(name)?;
        let cpu = process_cpu_s();
        self.spans[id].cpu = cpu.map(|c| (c, c));
        Some(id)
    }

    pub fn exit(&mut self, token: Option<usize>) {
        let Some(id) = token else { return };
        let end = self.origin.elapsed().as_secs_f64();
        let allocs = alloc_count();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close in LIFO order");
        let span = &mut self.spans[id];
        span.end = end;
        span.allocs_end = allocs;
        if let Some((start, _)) = span.cpu {
            span.cpu = process_cpu_s().map(|end| (start, end));
        }
    }

    /// Per-layer self cost of the spans of `run` (all runs when `None`): a
    /// span's duration and allocations minus those of its direct children.
    pub fn rollup(&self, run: Option<u32>) -> BTreeMap<&'static str, LayerCost> {
        let mut child_secs = vec![0.0f64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_secs[p] += span.secs();
                child_allocs[p] += span.allocs();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerCost> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if run.is_some_and(|r| r != span.run) {
                continue;
            }
            let cost = layers.entry(span.name).or_default();
            cost.self_s += (span.secs() - child_secs[i]).max(0.0);
            cost.allocs += span.allocs().saturating_sub(child_allocs[i]);
        }
        layers
    }

    /// CPU seconds of the spans named `name` in `run` (wall seconds for
    /// spans without a CPU reading).
    pub fn cpu_total(&self, name: &str, run: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(|s| s.cpu.map_or(s.secs(), |(start, end)| end - start))
            .sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"name":"{}","run":{},"parent":{parent},"start_s":{},"end_s":{},"allocs":{}}}"#,
                s.name,
                s.run,
                s.start,
                s.end,
                s.allocs()
            );
        }
        out
    }
}

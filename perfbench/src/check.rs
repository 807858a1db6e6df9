//! The output check every run goes through, and the tally of failed input
//! functions it feeds.
//!
//! A function fails when the recovering frontend skipped it, when it belongs
//! to an output module that fails `verify_module`, when the interpreter
//! (`ssa_interp`, independent of the merger) tells the output apart from the
//! input on it, or when its run panicked. The interpreter (the deep check)
//! runs once per distinct output digest, when the caller asks for it: runs
//! with the same digest printed the same output, and a run whose digest was
//! never deep-checked counts as failing every function. The deterministic
//! counters of every run must equal the first run's.

use crate::run::{Counters, RunOutput};
use crate::workload::{Input, Kind};
use ssa_ir::{Linkage, Module};
use std::collections::HashMap;
use xmerge::CorpusIndex;

pub struct Book<'a> {
    kind: Kind,
    input: &'a Input,
    /// The input parsed once outside any timing: the reference for checks.
    before: &'a [Module],
    seed: u64,
    /// Runs per output digest.
    runs: HashMap<u64, usize>,
    /// Failed functions per deep-checked output digest.
    deep: HashMap<u64, usize>,
    /// Failed functions found by the cheap checks.
    cheap_failed: usize,
    /// The first run's counters and output size.
    pub reference: Option<(Counters, usize)>,
    pub attempted: usize,
    pub counter_mismatches: usize,
}

impl<'a> Book<'a> {
    pub fn new(kind: Kind, input: &'a Input, before: &'a [Module], seed: u64) -> Book<'a> {
        Book {
            kind,
            input,
            before,
            seed,
            runs: HashMap::new(),
            deep: HashMap::new(),
            cheap_failed: 0,
            reference: None,
            attempted: 0,
            counter_mismatches: 0,
        }
    }

    /// Books one run and runs the cheap checks on its output; `None` is a
    /// run that panicked, which fails every function.
    pub fn check(&mut self, out: Option<&RunOutput>) {
        self.attempted += self.input.functions;
        let Some(out) = out else {
            self.cheap_failed += self.input.functions;
            return;
        };
        let mut failed = out.skipped + out.invalid_inputs;
        for (output, input) in out.modules.iter().zip(self.before) {
            if self.kind.merges() && !ssa_ir::verifier::verify_module(output).is_empty() {
                failed += input.num_functions();
            }
        }
        self.cheap_failed += failed.min(self.input.functions);
        *self.runs.entry(out.counters.digest).or_default() += 1;
        let observed = (out.counters, out.size_after);
        match self.reference {
            None => self.reference = Some(observed),
            Some(reference) if reference != observed => self.counter_mismatches += 1,
            Some(_) => {}
        }
    }

    /// Runs the deep check on `out` unless its digest was checked already.
    pub fn deep_check(&mut self, out: &RunOutput) {
        if !self.deep.contains_key(&out.counters.digest) {
            let found = self.deep_failures(out);
            self.deep.insert(out.counters.digest, found);
        }
    }

    /// Failed functions over every booked run.
    pub fn failed(&self) -> usize {
        let deep: usize = self
            .runs
            .iter()
            .map(|(digest, runs)| {
                runs * self
                    .deep
                    .get(digest)
                    .copied()
                    .unwrap_or(self.input.functions)
            })
            .sum();
        (self.cheap_failed + deep).min(self.attempted)
    }

    /// Failed functions found by the expensive checks: the interpreter for
    /// the merging workloads, an index round trip for `index_l`.
    fn deep_failures(&self, out: &RunOutput) -> usize {
        match self.kind {
            Kind::IntraSpec06 => self
                .before
                .iter()
                .zip(&out.modules)
                .map(|(before, after)| differential_failures(before, after, self.seed))
                .sum(),
            Kind::XmergeM => {
                let linked = (
                    ssa_ir::link_modules(self.before, "input"),
                    ssa_ir::link_modules(&out.modules, "output"),
                );
                match linked {
                    (Ok(before), Ok(after)) => differential_failures(&before, &after, self.seed),
                    _ => self.input.functions,
                }
            }
            Kind::IndexL => {
                let round_trip = CorpusIndex::deserialize(&out.index_text).is_ok_and(|index| {
                    index.num_functions() == self.input.functions
                        && index.serialize() == out.index_text
                });
                if round_trip {
                    0
                } else {
                    self.input.functions
                }
            }
        }
    }
}

/// Exported functions of `before` that `after` does not reproduce under the
/// interpreter's differential check.
fn differential_failures(before: &Module, after: &Module, seed: u64) -> usize {
    before
        .functions()
        .iter()
        .filter(|f| f.linkage == Linkage::External)
        .filter(|f| {
            ssa_interp::differential_check(before, after, &f.name, salssa::SEMANTIC_SAMPLES, seed)
                .is_err()
        })
        .count()
}

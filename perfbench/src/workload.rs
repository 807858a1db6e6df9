//! The three workloads: what each generates from the seed (the set-up the
//! benchmark times as `setup_s`) and why it was chosen.
//!
//! Every workload reaches the program only as `.ll` text: the generated
//! modules are cleaned the way `gen-corpus --clean` cleans them (the paper
//! merges already-optimized IR), printed, and dropped. Seed 0 reproduces the
//! repository's pinned shapes (`workloads::spec2006()`, `PerfTier::M`,
//! `PerfTier::L`); any other seed shifts every generator seed by the same
//! odd multiple, so one seed changes every module of a workload.

use ssa_ir::Module;
use workloads::PerfTier;

/// The workloads the benchmark knows, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper Fig. 17a setting: `merge_module` (t=1, parallel scoring) on each
    /// of the 19 SPEC2006-shaped modules. Large functions, so the per-pair
    /// codegen stack dominates.
    IntraSpec06,
    /// ThinLTO-style `xmerge_corpus` over tier M (48 modules, 779 small
    /// functions, half of them cross-module clones): scoring plus the
    /// cross-module commit path.
    XmergeM,
    /// Read-only `salssa index` scan of tier L (96 modules, 2304 functions):
    /// parse, verify, index, serialize. Nothing is merged, so a change to
    /// scoring must leave it unchanged.
    IndexL,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "intra_spec06" => Some(Kind::IntraSpec06),
            "xmerge_m" => Some(Kind::XmergeM),
            "index_l" => Some(Kind::IndexL),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::IntraSpec06 => "intra_spec06",
            Kind::XmergeM => "xmerge_m",
            Kind::IndexL => "index_l",
        }
    }

    /// Whether the workload rewrites its input (and so has merge outputs to
    /// check against the interpreter).
    pub fn merges(self) -> bool {
        self != Kind::IndexL
    }
}

/// One workload's input: named `.ll` texts plus their size.
pub struct Input {
    /// Module names as the generator chose them. `parse_module` names every
    /// module `parsed`, so the benchmark restores these after parsing;
    /// cross-module discovery skips same-module pairs and would otherwise
    /// find nothing.
    pub names: Vec<String>,
    pub texts: Vec<String>,
    pub functions: usize,
    pub insts: usize,
    pub bytes: usize,
}

/// Shifts a pinned generator seed by the benchmark seed (0 keeps it).
fn shifted(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Generates, cleans and prints the workload's modules.
pub fn generate(kind: Kind, seed: u64) -> Input {
    let mut modules: Vec<Module> = match kind {
        Kind::IntraSpec06 => workloads::spec2006()
            .into_iter()
            .map(|mut spec| {
                spec.seed = shifted(spec.seed, seed);
                spec.generate()
            })
            .collect(),
        Kind::XmergeM | Kind::IndexL => {
            let tier = if kind == Kind::XmergeM {
                PerfTier::M
            } else {
                PerfTier::L
            };
            let mut spec = tier.spec();
            spec.seed = shifted(spec.seed, seed);
            spec.generate()
        }
    };
    for module in &mut modules {
        for function in module.functions_mut() {
            ssa_passes::cleanup_function(function);
        }
    }
    let texts: Vec<String> = modules.iter().map(ssa_ir::print_module).collect();
    Input {
        names: modules.iter().map(|m| m.name.clone()).collect(),
        functions: modules.iter().map(Module::num_functions).sum(),
        insts: modules.iter().map(Module::total_insts).sum(),
        bytes: texts.iter().map(String::len).sum(),
        texts,
    }
}

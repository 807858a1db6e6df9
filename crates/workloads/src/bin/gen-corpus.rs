//! `gen-corpus` — write a deterministic multi-module corpus to a directory.
//!
//! The generated corpus is the input of the cross-module pipeline:
//!
//! ```text
//! cargo run -p workloads --bin gen-corpus -- --modules 8 --out-dir corpus/
//! cargo run --release --bin salssa -- xmerge corpus/
//! ```
//!
//! One `.ll` file is written per module (`<name>_m<i>.ll`); clone families
//! are scattered across modules and a few functions are duplicated verbatim
//! into two modules (the ODR/inline case), so the corpus genuinely exercises
//! cross-module discovery, merging and deduplication.

use ssa_ir::print_module;
use std::process::ExitCode;
use std::str::FromStr;
use workloads::{CorpusSpec, Divergence, PerfTier};

const USAGE: &str = "\
usage: gen-corpus --out-dir <dir> [options]

options:
  --tier <S|M|L>            start from a pinned perf tier's spec (later flags
                            still override single parameters)
  --seed <n>                generator seed
  --modules <n>             number of modules
  --functions <n>           functions per module
  --clone-fraction <f>      share of functions in cross-module clone families
  --family-span <n>         modules one clone family spreads over
  --odr-duplicates <n>      functions duplicated verbatim into two modules
  --call-heavy              use the call-heavy corpus's intra-module call sites
  --intra-call-sites <n>    intra-module call sites per function
  --divergence <low|medium|high>
                            how far clone family members diverge
  --name <name>             module name prefix
  --min-size <n>            smallest function, in instructions
  --max-size <n>            largest function, in instructions
  --clean                   fold constant branches and strip dead code, like
                            already-optimized input IR
  -h, --help                show this help
";

/// Parses a flag's numeric value.
fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("bad {flag} '{value}': {e}"))
}

/// Rejects an empty function size range.
fn check_size_range((min, max): (usize, usize)) -> Result<(), String> {
    if min > max {
        return Err(format!("--min-size {min} exceeds --max-size {max}"));
    }
    Ok(())
}

/// Parses the command line into the corpus spec, the output directory and
/// the `--clean` switch; `Err("")` asks for the usage text.
fn parse_args(args: &[String]) -> Result<(CorpusSpec, String, bool), String> {
    let mut spec = CorpusSpec::default();
    let mut out_dir: Option<String> = None;
    let mut clean = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            // --tier replaces the whole spec; later flags can still override
            // individual parameters.
            "--tier" => {
                let t = value()?;
                spec = PerfTier::parse(&t)
                    .ok_or_else(|| format!("unknown tier '{t}' (S|M|L)"))?
                    .spec();
            }
            "--seed" => spec.seed = number(flag, &value()?)?,
            "--modules" => spec.num_modules = number(flag, &value()?)?,
            "--functions" => spec.functions_per_module = number(flag, &value()?)?,
            "--clone-fraction" => spec.cross_clone_fraction = number(flag, &value()?)?,
            "--family-span" => spec.family_span = number(flag, &value()?)?,
            "--odr-duplicates" => spec.odr_duplicates = number(flag, &value()?)?,
            "--call-heavy" => spec.intra_call_sites = CorpusSpec::call_heavy().intra_call_sites,
            "--intra-call-sites" => spec.intra_call_sites = number(flag, &value()?)?,
            "--divergence" => {
                spec.divergence = match value()?.as_str() {
                    "low" => Divergence::low(),
                    "medium" => Divergence::medium(),
                    "high" => Divergence::high(),
                    other => return Err(format!("unknown divergence '{other}' (low|medium|high)")),
                };
            }
            "--name" => spec.name = value()?,
            "--min-size" => spec.size_range.0 = number(flag, &value()?)?,
            "--max-size" => spec.size_range.1 = number(flag, &value()?)?,
            "--out-dir" => out_dir = Some(value()?),
            "--clean" => clean = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let out_dir = out_dir.ok_or("--out-dir <dir> is required")?;
    check_size_range(spec.size_range)?;
    Ok((spec, out_dir, clean))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, out_dir, clean) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match write_corpus(&spec, &out_dir, clean) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Generates the corpus and writes one `.ll` file per module plus the
/// manifest into `out_dir`.
fn write_corpus(spec: &CorpusSpec, out_dir: &str, clean: bool) -> Result<(), String> {
    let mut modules = spec.generate();
    if clean {
        // Model already-optimized input IR (the paper merges after -O2):
        // fold constant branches and strip dead code from every function so
        // the corpus carries no cleanup slack into the merge pipeline.
        for module in &mut modules {
            for function in module.functions_mut() {
                ssa_passes::cleanup_function(function);
            }
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    for module in &modules {
        let errors = ssa_ir::verifier::verify_module(module);
        assert!(
            errors.is_empty(),
            "generated module {} is invalid: {errors:?}",
            module.name
        );
        let path = format!("{}/{}.ll", out_dir.trim_end_matches('/'), module.name);
        std::fs::write(&path, print_module(module))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // The manifest echoes every generation parameter (seed included), so a
    // corpus — and any BENCH_xmerge.json entry measured on it — is exactly
    // reproducible. The corpus loader only reads `.ll` files, so the
    // manifest rides along inertly.
    let manifest = format!(
        "{{\"spec\":{},\"clean\":{},\"modules\":{},\"functions\":{}}}\n",
        spec.manifest_json(),
        clean,
        modules.len(),
        modules
            .iter()
            .map(ssa_ir::Module::num_functions)
            .sum::<usize>()
    );
    let manifest_path = format!("{}/manifest.json", out_dir.trim_end_matches('/'));
    std::fs::write(&manifest_path, manifest)
        .map_err(|e| format!("cannot write {manifest_path}: {e}"))?;
    eprintln!(
        "wrote {} modules ({} functions) to {}",
        modules.len(),
        modules
            .iter()
            .map(ssa_ir::Module::num_functions)
            .sum::<usize>(),
        out_dir
    );
    Ok(())
}

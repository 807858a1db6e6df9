//! `gen-module` — print a deterministic synthetic SSA module to stdout.
//!
//! Used to (re)generate the `.ll` inputs shipped under `examples/`, e.g.:
//!
//! ```text
//! cargo run -p workloads --bin gen-module -- --seed 7 --functions 24 \
//!     --clone-fraction 0.6 --name clone_heavy > examples/clone_heavy.ll
//! ```

use ssa_ir::print_module;
use std::process::ExitCode;
use std::str::FromStr;
use workloads::{BenchmarkSpec, Divergence};

const USAGE: &str = "\
usage: gen-module [options] > module.ll

options:
  --seed <n>              generator seed (default 7)
  --functions <n>         number of functions (default 24)
  --clone-fraction <f>    share of functions in clone families (default 0.6)
  --family-size <n>       functions per clone family (default 3)
  --name <name>           module name (default clone_heavy)
  --min-size <n>          smallest function, in instructions (default 12)
  --max-size <n>          largest function, in instructions (default 40)
  --demote                register-demote every function (reg2mem)
  -h, --help              show this help
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

/// Parses the command line into the module spec and the `--demote` switch;
/// `Err("")` asks for the usage text.
fn parse_args(args: &[String]) -> Result<(BenchmarkSpec, bool), String> {
    let mut spec = BenchmarkSpec {
        name: "clone_heavy".to_string(),
        num_functions: 24,
        size_range: (12, 40),
        clone_fraction: 0.6,
        family_size: 3,
        divergence: Divergence::medium(),
        seed: 7,
    };
    let mut demote = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_str();
        let mut value = || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag {
            "--seed" => spec.seed = number(flag, &value()?)?,
            "--functions" => spec.num_functions = number(flag, &value()?)?,
            "--clone-fraction" => spec.clone_fraction = number(flag, &value()?)?,
            "--family-size" => spec.family_size = number(flag, &value()?)?,
            "--name" => spec.name = value()?,
            "--min-size" => spec.size_range.0 = number(flag, &value()?)?,
            "--max-size" => spec.size_range.1 = number(flag, &value()?)?,
            // Register-demote every function (reg2mem), producing the
            // FMSA-shaped long-sequence inputs of the Figure 22/23
            // experiments without needing the FMSA driver.
            "--demote" => demote = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    check_size_range(spec.size_range)?;
    Ok((spec, demote))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, demote) = match parse_args(&args) {
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
    let mut module = spec.generate();
    if demote {
        for function in module.functions_mut() {
            ssa_passes::reg2mem::demote_function(function);
        }
    }
    let errors = ssa_ir::verifier::verify_module(&module);
    assert!(errors.is_empty(), "generated module is invalid: {errors:?}");
    print!("{}", print_module(&module));
    ExitCode::SUCCESS
}

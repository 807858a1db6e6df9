//! Command-line behaviour of the `gen-corpus` and `gen-module` binaries:
//! `--help` prints usage and succeeds, and every usage error exits 2 with an
//! `error:` line instead of a panic backtrace. None of these invocations
//! writes a file — argument errors are reported before any generation.

use std::process::Command;

const GEN_CORPUS: &str = env!("CARGO_BIN_EXE_gen-corpus");
const GEN_MODULE: &str = env!("CARGO_BIN_EXE_gen-module");

/// Runs `bin` with `args`, returning (exit code, stdout, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for bin in [GEN_CORPUS, GEN_MODULE] {
        for flag in ["-h", "--help"] {
            let (code, stdout, stderr) = run(bin, &[flag]);
            assert_eq!(code, 0, "{bin} {flag}: {stderr}");
            assert!(stdout.starts_with("usage: "), "{bin} {flag}: {stdout}");
        }
    }
}

#[test]
fn usage_errors_exit_two_without_a_backtrace() {
    let cases: &[(&str, &[&str], &str)] = &[
        (GEN_CORPUS, &["--bogus"], "unknown option '--bogus'"),
        (
            GEN_CORPUS,
            &["--seed", "x", "--out-dir", "unused"],
            "bad --seed",
        ),
        (GEN_CORPUS, &["--out-dir"], "--out-dir requires a value"),
        (
            GEN_CORPUS,
            &["--tier", "Q", "--out-dir", "unused"],
            "unknown tier",
        ),
        (
            GEN_CORPUS,
            &["--divergence", "wild", "--out-dir", "unused"],
            "unknown divergence",
        ),
        (GEN_CORPUS, &["--clean"], "--out-dir <dir> is required"),
        (
            GEN_CORPUS,
            &["--min-size", "9", "--max-size", "3", "--out-dir", "unused"],
            "exceeds --max-size",
        ),
        (GEN_MODULE, &["--bogus"], "unknown option '--bogus'"),
        (GEN_MODULE, &["--functions", "many"], "bad --functions"),
        (GEN_MODULE, &["--seed"], "--seed requires a value"),
        (
            GEN_MODULE,
            &["--clone-fraction", "half"],
            "bad --clone-fraction",
        ),
    ];
    for (bin, args, message) in cases {
        let (code, stdout, stderr) = run(bin, args);
        assert_eq!(code, 2, "{bin} {args:?}: {stderr}");
        assert!(stdout.is_empty(), "{bin} {args:?} printed: {stdout}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(message),
            "{bin} {args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
}

//! Command-line behaviour of the `experiments` binary: `--help` prints usage
//! and succeeds, and every usage error exits 2 with an `error:` line and the
//! usage text before any experiment runs.

use std::process::Command;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

/// Runs `experiments` with `args`, returning (exit code, stdout, stderr).
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(EXPERIMENTS)
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["-h", "--help"] {
        let (code, stdout, stderr) = run(&[flag]);
        assert_eq!(code, 0, "{flag}: {stderr}");
        assert!(stdout.starts_with("usage: "), "{flag}: {stdout}");
    }
}

#[test]
fn usage_errors_exit_two_without_a_backtrace() {
    let cases: &[(&[&str], &str)] = &[
        (&["--bogus"], "unknown option '--bogus'"),
        (&["fig5", "--scale"], "--scale requires a value"),
        (&["fig5", "--threshold"], "--threshold requires a value"),
        (&["fig5", "--scale", "abc"], "bad --scale 'abc'"),
        (&["fig5", "--scale", "-1"], "bad --scale '-1'"),
        (&["fig5", "--scale", "0"], "bad --scale '0'"),
        (&["fig5", "--scale", "inf"], "bad --scale 'inf'"),
        (&["fig5", "--scale", "NaN"], "bad --scale 'NaN'"),
        (&["fig17a", "--threshold", "0"], "bad --threshold '0'"),
        (&["fig17a", "--threshold", "1.5"], "bad --threshold '1.5'"),
        (&["fig17a", "--threshold", "-3"], "bad --threshold '-3'"),
        (&["fig99"], "unknown experiment 'fig99'"),
        (&["fig5", "fig17a"], "more than one experiment"),
    ];
    for (args, message) in cases {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} printed: {stdout}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(message),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

//! The `cargo xtask lint` command line: its exit status is the CI gate.

use std::process::Command;

fn xtask(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("xtask runs")
}

#[test]
fn lint_exits_zero_on_the_clean_workspace() {
    let text = xtask(&["lint"]);
    let stderr = String::from_utf8_lossy(&text.stderr);
    assert!(text.status.success(), "{stderr}");
    assert!(stderr.contains("workspace is clean"), "{stderr}");
    assert!(stderr.contains("findings: 0"), "{stderr}");

    let github = xtask(&["lint", "--format", "github"]);
    assert!(github.status.success());
    assert!(github.stdout.is_empty(), "no annotations on a clean tree");
}

#[test]
fn lint_rejects_unknown_formats_and_flags() {
    for args in [
        &["lint", "--format", "xml"][..],
        &["lint", "--format"],
        &["lint", "--fix"],
        &["frobnicate"],
    ] {
        let out = xtask(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("error:"),
            "{args:?}"
        );
    }
}

//! The benchmark's self-check: every workload for a moment in both modes,
//! asserting every catalogued metric is printed, finite and carries its
//! unit, and that no check failed.

use std::path::Path;
use std::process::Command;

#[test]
fn every_workload_prints_every_metric_with_nothing_failed() {
    let exe = Path::new(env!("CARGO_BIN_EXE_manet-perfbench"));
    let profile_dir = exe.parent().expect("binary lives in a profile directory");
    let manet = profile_dir.join("manet");
    if !manet.exists() {
        // `jobs_mix` drives the real server binary: build it into the same
        // target directory and profile.
        let target = profile_dir
            .parent()
            .expect("profile directory has a parent");
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
        let mut build = Command::new(env!("CARGO"));
        build
            .args([
                "build",
                "--offline",
                "--quiet",
                "--bin",
                "manet",
                "--manifest-path",
                root,
            ])
            .env("CARGO_TARGET_DIR", target);
        if profile_dir.file_name().is_some_and(|n| n == "release") {
            build.arg("--release");
        }
        assert!(
            build.status().expect("cargo runs").success(),
            "building manet"
        );
    }
    let out = Command::new(exe)
        .arg("--self-check")
        .arg("--manet")
        .arg(&manet)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "self-check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        stdout.matches(" ok (").count(),
        8,
        "4 workloads × 2 modes:\n{stdout}"
    );
}

//! Shared test fixtures: reduced input sizes and the `smo` binary.

#![allow(dead_code)]

use smo_e2e::{ServeSizes, Sizes};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root (the benchmark package sits one level below).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from(".."))
}

/// Every workload's code paths on inputs small enough for a test.
pub fn reduced() -> Sizes {
    Sizes {
        datapath: (200, 2),
        mid: (40, 2),
        serve: ServeSizes {
            small_latches: 8,
            check_latches: 30,
            large_latches: 60,
            sweep_latches: 10,
            pool: 4,
            hot: 2,
            min_requests: 20,
        },
    }
}

/// The release `smo` binary, built into the repository's own target
/// directory.
pub fn smo_binary() -> PathBuf {
    let root = repo_root();
    let target = root.join("target");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "smo"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .status();
    assert!(
        matches!(status, Ok(s) if s.success()),
        "building smo failed: {status:?}"
    );
    target.join("release").join("smo")
}

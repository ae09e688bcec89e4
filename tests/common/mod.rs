//! The harness the CLI suites share: the `goofi` binary's runner, its
//! checked stdout, a self-cleaning temporary directory and the essence
//! rows of a campaign database.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `goofi` binary with `args` and waits for it.
pub fn goofi(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_goofi"))
        .args(args)
        .output()
        .expect("spawn goofi")
}

/// The command's stdout, once it is known to have succeeded; a failure
/// shows both streams.
pub fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A fresh temporary directory, removed when dropped. Unique per call:
/// the tests of one binary share a pid and run on parallel threads.
pub struct TempDir {
    pub path: PathBuf,
}

impl TempDir {
    pub fn new(name: &str) -> TempDir {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "goofi-{}-{}-{}-{name}",
            env!("CARGO_CRATE_NAME"),
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("mkdir");
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The experiment rows that define a run's essence, sorted for
/// order-independent comparison.
pub fn essence_rows(db: &str) -> Vec<String> {
    let out = stdout(&goofi(&[
        "sql",
        db,
        "SELECT experimentName, termination, stateVector, validity FROM LoggedSystemState",
    ]));
    let mut rows: Vec<String> = out.lines().map(str::to_string).collect();
    rows.sort();
    rows
}

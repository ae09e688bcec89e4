//! End-to-end tests of the campaign service through the real CLI:
//! `goofi serve`, `goofi submit`, and the spawned `goofi worker`
//! processes, all against the Thor target.
//!
//! The oracle throughout: a service-run campaign must leave the database
//! essence-equal to `goofi run` executing the same campaign serially.

mod common;

use common::{essence_rows, goofi, stdout, TempDir};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `goofi serve` daemon with its stdout tapped.
struct Daemon {
    child: Child,
    addr: String,
    lines: std::sync::mpsc::Receiver<String>,
}

impl Daemon {
    /// Spawns `goofi serve <db> --addr 127.0.0.1:0 <extra...>` and waits
    /// for its banner to learn the bound address.
    fn spawn(db: &str, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_goofi"))
            .arg("serve")
            .arg(db)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn goofi serve");
        let out = child.stdout.take().expect("daemon stdout");
        let (tx, lines) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let addr = loop {
            let line = lines
                .recv_timeout(Duration::from_secs(30))
                .expect("daemon banner");
            if let Some(rest) = line.strip_prefix("goofi daemon on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address in banner")
                    .to_string();
            }
        };
        Daemon { child, addr, lines }
    }

    /// Blocks until the daemon prints a line containing `needle`.
    fn await_line(&self, needle: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = self
                .lines
                .recv_timeout(left)
                .unwrap_or_else(|_| panic!("daemon never printed `{needle}`"));
            if line.contains(needle) {
                return line;
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill(); // SIGKILL: no clean shutdown path runs
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Creates a small Thor campaign in `<dir>/<file>` and returns the path.
fn make_campaign(dir: &std::path::Path, file: &str, experiments: &str) -> String {
    let db = dir.join(file).to_string_lossy().into_owned();
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "c1",
        "--workload",
        "crc32",
        "--experiments",
        experiments,
        "--seed",
        "42",
        "--max-instr",
        "200000",
        "--on-error",
        "skip",
    ]));
    db
}

#[test]
fn chaos_drill_survives_worker_kills_and_matches_serial_run() {
    let guard = TempDir::new("chaos");
    let db = make_campaign(&guard.path, "service.gdb", "10");
    let serial = make_campaign(&guard.path, "serial.gdb", "10");
    stdout(&goofi(&["run", &serial, "--name", "c1"]));

    // Every shard's first lease is chaos-killed mid-shard; the service
    // must reassign and still converge on the serial run's results.
    let mut daemon = Daemon::spawn(&db, &["--chaos", "kill-after=2,seed=3", "--workers", "2"]);
    let out = stdout(&goofi(&[
        "submit",
        &daemon.addr,
        "--name",
        "c1",
        "--workers",
        "2",
        "--watch",
    ]));
    assert!(out.contains("accepted as job-"), "{out}");
    assert!(out.contains(": done "), "watch must end in done: {out}");

    let got = essence_rows(&db);
    let want = essence_rows(&serial);
    assert!(!want.is_empty());
    assert_eq!(got, want, "merged database diverged from serial run");

    // Status shows the finished job; shutdown stops the daemon cleanly.
    let status = stdout(&goofi(&["submit", &daemon.addr, "--status"]));
    assert!(status.contains("done"), "{status}");
    stdout(&goofi(&["submit", &daemon.addr, "--shutdown"]));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if daemon.child.try_wait().expect("wait daemon").is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "daemon ignored shutdown");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Live processes with `arg` as one of their command-line arguments.
#[cfg(target_os = "linux")]
fn processes_naming(arg: &str) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|entry| {
            let pid = entry.file_name().to_str()?.parse().ok()?;
            let cmdline = std::fs::read(entry.path().join("cmdline")).ok()?;
            cmdline
                .split(|&b| b == 0)
                .any(|a| a == arg.as_bytes())
                .then_some(pid)
        })
        .collect()
}

#[test]
fn sigkilled_daemon_resumes_the_job_on_restart() {
    let guard = TempDir::new("resume");
    let db = make_campaign(&guard.path, "service.gdb", "8");
    let serial = make_campaign(&guard.path, "serial.gdb", "8");
    stdout(&goofi(&["run", &serial, "--name", "c1"]));

    // Phase 1: workers stall on every attempt, so the job cannot finish
    // while this daemon lives — it limps forward one experiment per lease.
    let mut daemon = Daemon::spawn(
        &db,
        &[
            "--chaos",
            "kill-after=1,seed=5,kills=999,mode=stall",
            "--lease-ms",
            "400",
            "--poison-after",
            "100000",
            "--workers",
            "2",
        ],
    );
    let out = stdout(&goofi(&["submit", &daemon.addr, "--name", "c1"]));
    let job = out
        .lines()
        .find_map(|l| l.strip_prefix("accepted as "))
        .expect("job id in submit output")
        .trim()
        .to_string();

    // Wait for journaled progress, then SIGKILL the daemon mid-job.
    let spool = PathBuf::from(format!("{db}.spool"));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let journaled = std::fs::read_dir(spool.join(&job))
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".gjl"))
                    .filter_map(|e| e.metadata().ok())
                    .any(|m| m.len() > 0)
            })
            .unwrap_or(false);
        if journaled {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no journaled progress before kill"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    daemon.kill();
    assert!(
        !spool.join(&job).join("done").exists(),
        "job must still be in flight when the daemon dies"
    );
    // The stalled workers notice they are orphaned and exit.
    #[cfg(target_os = "linux")]
    {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let alive = processes_naming(&db);
            if alive.is_empty() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "processes {alive:?} outlived their SIGKILLed daemon"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    // Phase 2: a fresh daemon (chaos off) recovers the spool and the job
    // completes; watching it attaches to the resumed run.
    let daemon2 = Daemon::spawn(&db, &["--workers", "2"]);
    daemon2.await_line(&format!("resumed in-flight {job}"));
    let out = stdout(&goofi(&["submit", &daemon2.addr, "--job", &job, "--watch"]));
    assert!(out.contains(": done "), "resumed job must finish: {out}");

    let got = essence_rows(&db);
    let want = essence_rows(&serial);
    assert!(!want.is_empty());
    assert_eq!(got, want, "resumed database diverged from serial run");
}

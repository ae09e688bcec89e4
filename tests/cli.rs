//! Integration tests of the `goofi` CLI — the operator workflow the
//! paper's GUI provided, driven end to end through a database file.

mod common;

use common::{essence_rows, goofi, stdout, TempDir};

fn tmp_db(name: &str) -> (TempDir, String) {
    let dir = TempDir::new(name);
    let path = dir.path.join("campaign.gdb").to_string_lossy().into_owned();
    (dir, path)
}

#[test]
fn help_and_listings() {
    let out = stdout(&goofi(&["help"]));
    assert!(out.contains("usage:"));

    let out = stdout(&goofi(&["workloads"]));
    for name in [
        "bubblesort",
        "matmul",
        "crc32",
        "primes",
        "fibonacci",
        "pi-control",
    ] {
        assert!(out.contains(name), "{out}");
    }

    let out = stdout(&goofi(&["targets"]));
    assert!(out.contains("thor-rd"));
    assert!(out.contains("internal"));
    assert!(out.contains("icache"));
}

#[test]
fn full_campaign_workflow() {
    let (_guard, db) = tmp_db("flow");
    // Set-up phase.
    let out = stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "c1",
        "--workload",
        "bubblesort",
        "--experiments",
        "25",
        "--seed",
        "9",
        "--time-window",
        "0:2000",
    ]));
    assert!(out.contains("25 experiments"), "{out}");

    // Fault-injection phase.
    let out = stdout(&goofi(&["run", &db, "--name", "c1"]));
    assert!(out.contains("25 experiments logged"), "{out}");

    // Analysis phase.
    let out = stdout(&goofi(&["report", &db, "--name", "c1"]));
    assert!(out.contains("outcome"), "{out}");
    assert!(out.contains("error detection coverage"), "{out}");

    // Ad-hoc SQL over the analysis results.
    let out = stdout(&goofi(&[
        "sql",
        &db,
        "SELECT COUNT(*) AS n FROM LoggedSystemState WHERE campaignName = 'c1'",
    ]));
    assert!(out.contains("26"), "reference + 25 experiments: {out}"); // 25 + reference
}

/// A campaign name with a quote in it reaches the analysis queries as an
/// SQL literal, so `report` prints its escaped experiments.
#[test]
fn report_runs_on_a_campaign_name_with_a_quote() {
    let (_guard, db) = tmp_db("quote");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "o'brien",
        "--workload",
        "crc32",
        "--experiments",
        "20",
    ]));
    stdout(&goofi(&["run", &db, "--name", "o'brien"]));
    let out = stdout(&goofi(&["report", &db, "--name", "o'brien"]));
    assert!(
        out.contains("candidates for detail-mode re-run (escaped errors):\n  o'brien/exp"),
        "{out}"
    );
}

/// The snapshot fast path must be invisible in the results, even with
/// fault-model decorators stacked on the target: a flaky transport (with
/// read verification) forwards snapshots cleanly, and a wedgeable target
/// vetoes prefix reuse entirely — either way the logged essence must be
/// bit-identical to a `--no-snapshot` run of the same campaign.
#[test]
fn snapshot_path_matches_slow_path_under_fault_stacks() {
    let stacks: [(&str, &[&str]); 2] = [
        (
            "link",
            &[
                "--link-faults",
                "seed=42,corrupt=0.01,drop=0.002,stall=0.001",
                "--verify-reads",
            ],
        ),
        ("wedge", &["--wedge", "seed=7,hang=0.05,recover=power"]),
    ];
    for (label, extra) in stacks {
        let guard = TempDir::new(&format!("snapeq-{label}"));
        let mut dbs = Vec::new();
        for mode in ["fast", "slow"] {
            let db = guard
                .path
                .join(format!("{mode}.gdb"))
                .to_string_lossy()
                .into_owned();
            stdout(&goofi(&[
                "new",
                &db,
                "--name",
                "c1",
                "--workload",
                "crc32",
                "--experiments",
                "8",
                "--seed",
                "42",
                "--max-instr",
                "200000",
                "--on-error",
                "skip",
            ]));
            let mut args = vec!["run", &db, "--name", "c1"];
            args.extend_from_slice(extra);
            if mode == "slow" {
                args.push("--no-snapshot");
            }
            stdout(&goofi(&args));
            dbs.push(db);
        }
        let fast = essence_rows(&dbs[0]);
        let slow = essence_rows(&dbs[1]);
        assert!(!fast.is_empty(), "{label}: no rows logged");
        assert_eq!(fast, slow, "{label}: snapshot path diverged from slow path");
    }
}

#[test]
fn swifi_campaign_via_cli() {
    let (_guard, db) = tmp_db("swifi");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "s1",
        "--workload",
        "primes",
        "--experiments",
        "10",
        "--technique",
        "swifi-pre",
    ]));
    let out = stdout(&goofi(&["run", &db, "--name", "s1"]));
    assert!(out.contains("10 experiments logged"), "{out}");
    let out = stdout(&goofi(&["report", &db, "--name", "s1"]));
    assert!(out.contains("effectiveness"), "{out}");
}

/// Collapses every digit run to `N` and every space run to one space, so
/// a timing table can be compared against a golden shape even though the
/// measured durations differ run to run.
fn normalize_timings(line: &str) -> String {
    let mut out = String::new();
    let mut in_digits = false;
    for c in line.trim_end().chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push('N');
            }
            in_digits = true;
        } else {
            in_digits = false;
            if c == ' ' && out.ends_with(' ') {
                continue;
            }
            out.push(c);
        }
    }
    out
}

#[test]
fn report_timings_matches_golden_table() {
    let (guard, db) = tmp_db("timings");
    let trace = guard.path.join("c.trace").to_string_lossy().into_owned();
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "t1",
        "--workload",
        "bubblesort",
        "--experiments",
        "8",
        "--seed",
        "7",
        "--time-window",
        "0:2000",
    ]));
    // The run records the trace; --metrics prints the live summary too.
    let out = stdout(&goofi(&[
        "run",
        &db,
        "--name",
        "t1",
        "--trace",
        &trace,
        "--metrics",
    ]));
    assert!(out.contains("per-stage timings:"), "{out}");
    assert!(out.contains("counters:"), "{out}");
    assert!(out.contains("completed"), "{out}");

    // The report appends its classify spans to the same trace, then
    // rebuilds the per-stage histograms from the file.
    let out = stdout(&goofi(&[
        "report",
        &db,
        "--name",
        "t1",
        "--trace",
        &trace,
        "--timings",
        &trace,
    ]));
    let section = out
        .lines()
        .skip_while(|l| !l.starts_with("per-stage timings (from "))
        .skip(1)
        .take(10)
        .map(normalize_timings)
        .collect::<Vec<_>>();
    let golden = [
        "stage spans total_us mean_us pN<=us pN<=us",
        "load N N N N N",
        "run N N N N N",
        "inject N N N N N",
        "scan N N N N N",
        "classify N N N N N",
        "db-write N N N N N",
        "probe N N N N N",
        "recover N N N N N",
        "snapshot-restore N N N N N",
    ];
    assert_eq!(section, golden, "full output:\n{out}");

    // The trace itself is well-formed JSONL with the whole hierarchy.
    let text = std::fs::read_to_string(&trace).expect("trace file");
    assert!(text.lines().count() > 8, "{text}");
    for kind in [
        "\"kind\":\"campaign\"",
        "\"kind\":\"experiment\"",
        "\"kind\":\"stage\"",
    ] {
        assert!(text.contains(kind), "{text}");
    }
}

#[test]
fn errors_are_reported() {
    let (_guard, db) = tmp_db("errs");
    let out = goofi(&["new", &db, "--name", "x", "--workload", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));

    let out = goofi(&["run", &db, "--name", "missing"]);
    assert!(!out.status.success());

    let out = goofi(&["bogus"]);
    assert!(!out.status.success());

    let out = goofi(&["sql", &db, "SELEKT"]);
    assert!(!out.status.success());
}

/// A flag the command does not read fails it before it touches anything,
/// rather than being silently ignored (here: a serial, journal-less run).
#[test]
fn unknown_flags_fail_the_command_and_leave_the_database_untouched() {
    let (guard, db) = tmp_db("unknown-flag");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "c",
        "--workload",
        "fibonacci",
        "--experiments",
        "5",
    ]));
    let before = std::fs::read(&db).unwrap();
    let journal = guard.path.join("j.gjl");
    let journal = journal.to_str().unwrap();
    let out = goofi(&[
        "run", &db, "--name", "c", "--worker", "4", "--jurnal", journal,
    ]);
    assert!(!out.status.success(), "a mistyped flag must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`--jurnal`"), "{stderr}");
    assert!(stderr.contains("`--worker`"), "{stderr}");
    assert!(stderr.contains("`goofi run`"), "{stderr}");
    assert_eq!(std::fs::read(&db).unwrap(), before);
    assert!(!std::path::Path::new(journal).exists());

    // A boolean flag's typo is refused too, not mistaken for a value flag.
    let out = goofi(&["run", &db, "--name", "c", "--metric"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--metric`"), "{stderr}");
    assert_eq!(std::fs::read(&db).unwrap(), before);
}

/// `run` and `resume` refuse `--workers 0`, and `resume` refuses a journal
/// that does not exist, each before it loads the database or touches a
/// journal.
#[test]
fn zero_workers_and_a_missing_journal_fail_before_anything_is_touched() {
    let (guard, db) = tmp_db("front-door");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "c",
        "--workload",
        "crc32",
        "--experiments",
        "4",
    ]));
    let journal = guard.path.join("j.gjl");
    let journal = journal.to_str().unwrap();
    stdout(&goofi(&["run", &db, "--name", "c", "--journal", journal]));
    let db_before = std::fs::read(&db).unwrap();
    let journal_before = std::fs::read(journal).unwrap();

    for command in ["run", "resume"] {
        let out = goofi(&[
            command,
            &db,
            "--name",
            "c",
            "--journal",
            journal,
            "--workers",
            "0",
        ]);
        assert!(!out.status.success(), "{command} ran with no workers");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("`--workers` must be at least 1"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{command} printed before refusing");
        assert_eq!(std::fs::read(&db).unwrap(), db_before, "{command}");
        assert_eq!(std::fs::read(journal).unwrap(), journal_before, "{command}");
    }

    let missing = guard.path.join("missing.gjl");
    let missing = missing.to_str().unwrap();
    let out = goofi(&["resume", &db, "--name", "c", "--journal", missing]);
    assert!(!out.status.success(), "resumed from a missing journal");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("journal {missing} does not exist")),
        "{stderr}"
    );
    assert!(stderr.contains("`goofi run"), "{stderr}");
    assert!(!stderr.contains("I/O error"), "{stderr}");
    assert!(out.stdout.is_empty(), "resume printed before refusing");
    assert_eq!(std::fs::read(&db).unwrap(), db_before);
    assert!(!std::path::Path::new(missing).exists());
}

/// `serve` refuses 0 for `--lease-ms`, `--poison-after` and `--workers`
/// before it binds its address or creates the spool: a 0 lease expires
/// every shard's lease at once, and the job ends with every shard
/// poisoned and its experiments stubbed as hangs.
#[test]
fn serve_refuses_zero_counts_before_binding_or_spooling() {
    let (_guard, db) = tmp_db("serve-zero");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "c",
        "--workload",
        "fibonacci",
        "--experiments",
        "4",
    ]));
    let before = std::fs::read(&db).unwrap();
    for flag in ["--lease-ms", "--poison-after", "--workers"] {
        let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_goofi"))
            .args(["serve", &db, "--addr", "127.0.0.1:0", flag, "0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn goofi serve");
        // A daemon that took the flag would serve until stopped.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while daemon.try_wait().unwrap().is_none() {
            if std::time::Instant::now() > deadline {
                let _ = daemon.kill();
                let _ = daemon.wait();
                panic!("`serve {flag} 0` is serving");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let out = daemon.wait_with_output().unwrap();
        assert!(!out.status.success(), "serve took {flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{flag}` must be at least 1")),
            "{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "serve {flag} 0 printed before refusing"
        );
        assert!(!std::path::Path::new(&format!("{db}.spool")).exists());
        assert_eq!(std::fs::read(&db).unwrap(), before, "{flag}");
    }
}

#[test]
fn fsck_reports_classes_and_repairs() {
    let (_guard, db) = tmp_db("fsck");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "f1",
        "--workload",
        "crc32",
        "--experiments",
        "5",
    ]));
    stdout(&goofi(&["run", &db, "--name", "f1"]));

    // A healthy database passes and exits zero.
    let out = stdout(&goofi(&["fsck", &db]));
    assert!(out.contains("fsck: clean"), "{out}");

    // Flip one stored byte: plain fsck names the class and exits non-zero.
    let text = std::fs::read_to_string(&db).expect("db file");
    std::fs::write(&db, text.replacen("T:end", "T:foo", 1)).unwrap();
    let out = goofi(&["fsck", &db]);
    assert!(!out.status.success(), "plain fsck must fail on corruption");
    let printed =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    assert!(printed.contains("db-checksum-mismatch"), "{printed}");
    assert!(printed.contains("--repair"), "{printed}");

    // --repair salvages, and a second pass is clean again.
    let out = stdout(&goofi(&["fsck", &db, "--repair"]));
    assert!(out.contains("repaired"), "{out}");
    let out = stdout(&goofi(&["fsck", &db]));
    assert!(out.contains("fsck: clean"), "{out}");
}

/// The service's campaign-only read returns what a full load returns, on
/// either CPU; it reads past damage outside the campaign tables, and
/// fails on damage inside them as the full load does.
#[test]
fn campaign_only_read_matches_the_full_load_on_both_cpus() {
    use goofi::core::vfs::RealFs;
    use goofi::core::{dbio, GoofiError};
    use goofi::goofidb::DbError;

    let (_guard, db) = tmp_db("campaign-read");
    let campaigns = [
        ("c-thor", "thor", "crc32", "thor-rd"),
        ("c-riscv", "riscv", "rv-memcpy", "rv32i"),
    ];
    for (name, target, workload, _) in campaigns {
        stdout(&goofi(&[
            "new",
            &db,
            "--name",
            name,
            "--target",
            target,
            "--workload",
            workload,
            "--experiments",
            "5",
            "--seed",
            "7",
        ]));
        stdout(&goofi(&["run", &db, "--name", name]));
    }
    let full = dbio::load_database(&RealFs, &db).unwrap();
    for (name, _, _, system) in campaigns {
        let read = dbio::load_campaign_from(&RealFs, &db, name).unwrap();
        assert_eq!(read.target_system, system);
        assert_eq!(read, dbio::load_campaign(&full, name).unwrap());
    }

    // `from` → `to` at the first `from` inside the named table's block.
    let text = std::fs::read_to_string(&db).unwrap();
    let garble = |table: &str, from: &str, to: &str| {
        let block = text.find(&format!("TABLE {table}\n")).unwrap();
        let at = block + text[block..].find(from).unwrap();
        format!("{}{to}{}", &text[..at], &text[at + from.len()..])
    };

    std::fs::write(&db, garble("LoggedSystemState", "T:end", "T:foo")).unwrap();
    assert!(dbio::load_database(&RealFs, &db).is_err());
    for (name, ..) in campaigns {
        assert_eq!(
            dbio::load_campaign_from(&RealFs, &db, name).unwrap(),
            dbio::load_campaign(&full, name).unwrap()
        );
    }

    std::fs::write(&db, garble("CampaignData", "T:crc32", "T:crc33")).unwrap();
    match dbio::load_campaign_from(&RealFs, &db, "c-thor") {
        Err(GoofiError::Db(DbError::Corrupt { table, detail })) => {
            assert_eq!(table, "CampaignData");
            assert!(detail.contains("goofi fsck --repair"), "{detail}");
        }
        other => panic!("expected a corrupt CampaignData, got {other:?}"),
    }
}

#[test]
fn db_file_is_portable_across_invocations() {
    let (_guard, db) = tmp_db("portable");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "p1",
        "--workload",
        "fibonacci",
        "--experiments",
        "5",
    ]));
    stdout(&goofi(&["run", &db, "--name", "p1"]));
    // A second campaign lands in the same file.
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "p2",
        "--workload",
        "crc32",
        "--experiments",
        "5",
    ]));
    stdout(&goofi(&["run", &db, "--name", "p2"]));
    let out = stdout(&goofi(&[
        "sql",
        &db,
        "SELECT campaignName, COUNT(*) AS n FROM LoggedSystemState GROUP BY campaignName ORDER BY campaignName",
    ]));
    assert!(out.contains("p1"), "{out}");
    assert!(out.contains("p2"), "{out}");
}

#[test]
fn worker_salvages_an_empty_shard_journal_and_completes_its_range() {
    let (guard, db) = tmp_db("worker-empty-journal");
    stdout(&goofi(&[
        "new",
        &db,
        "--name",
        "c",
        "--workload",
        "crc32",
        "--experiments",
        "6",
        "--seed",
        "7",
    ]));
    // A shard journal a crash left empty: resume moves it aside.
    let journal = guard.path.join("shard-0.gjl");
    std::fs::write(&journal, "").unwrap();
    stdout(&goofi(&[
        "worker",
        "--db",
        &db,
        "--campaign",
        "c",
        "--shard",
        "0",
        "--range",
        "0:6",
        "--journal",
        &journal.to_string_lossy(),
        "--attempt",
        "2",
    ]));
    assert!(guard.path.join("shard-0.gjl.corrupt").exists());
    let state = goofi::core::journal::ExperimentJournal::load(&journal, "c").unwrap();
    assert!(state.reference.is_some());
    assert_eq!(
        state.completed.keys().copied().collect::<Vec<_>>(),
        [0, 1, 2, 3, 4, 5]
    );
}

//! The on-disk formats, pinned by files an earlier build wrote. Each
//! database under `tests/fixtures/` re-saves to its own bytes, each
//! journal re-encodes entry by entry to its own lines, and each
//! golden-cache file is rewritten to its own bytes.
//!
//! The fixtures are what `goofi new <cpu>.gdb --name fixture-<cpu>
//! --experiments 12 --seed 7` then `goofi run <cpu>.gdb --name
//! fixture-<cpu> --journal <cpu>.gjl` write: on Thor with `--workload
//! crc32 --with-caches`, on RV32I with `--workload rv-memcpy`. They are
//! marked `-text` in `.gitattributes`, so no checkout rewrites them.

mod common;

use common::TempDir;
use goofi::core::dbio;
use goofi::core::golden::GoldenCache;
use goofi::core::journal::{parse_entry, Entry, ExperimentJournal};
use goofi::core::vfs::RealFs;
use goofi::goofidb::Database;
use std::path::{Path, PathBuf};

/// Each fixture's file stem and campaign name.
const FIXTURES: [(&str, &str); 2] = [("thor", "fixture-thor"), ("riscv", "fixture-riscv")];

fn fixture_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(file)
}

fn fixture_text(file: &str) -> String {
    std::fs::read_to_string(fixture_path(file)).expect("fixture")
}

#[test]
fn each_fixture_database_resaves_byte_for_byte() {
    for (cpu, _) in FIXTURES {
        let text = fixture_text(&format!("{cpu}.gdb"));
        let db = Database::load_from_string(&text).expect("load");
        // Not `assert_eq!`: a mismatch would print two 20 KB files.
        assert!(
            db.save_to_string() == text,
            "{cpu}.gdb re-saves differently"
        );
    }
}

#[test]
fn each_fixture_journal_reencodes_to_its_own_lines() {
    for (cpu, campaign) in FIXTURES {
        let text = fixture_text(&format!("{cpu}.gjl"));
        let dir = TempDir::new(cpu);
        let copy = dir.path.join("copy.gjl");
        let mut journal = ExperimentJournal::create(&copy, campaign).expect("create");
        for line in text.lines().skip(2) {
            let appended = match parse_entry(line, campaign).expect("a valid entry") {
                Entry::Reference(record) => journal.append_record(None, &record),
                Entry::Completed(index, record) => journal.append_record(Some(index), &record),
                Entry::Failed(failure) => journal.append_failure(&failure),
            };
            appended.expect("append");
        }
        drop(journal);
        let written = std::fs::read_to_string(&copy).expect("read back");
        assert!(written == text, "{cpu}.gjl re-encodes differently");
    }
}

#[test]
fn each_fixture_golden_cache_file_is_rewritten_to_its_own_bytes() {
    for (cpu, campaign) in FIXTURES {
        let db = Database::load_from_string(&fixture_text(&format!("{cpu}.gdb"))).expect("load");
        let campaign = dbio::load_campaign(&db, campaign).expect("campaign");
        let state = ExperimentJournal::load(fixture_path(&format!("{cpu}.gjl")), &campaign.name)
            .expect("journal");
        let reference = state.reference.expect("a reference entry");
        let dir = TempDir::new(&format!("golden-{cpu}"));
        // The CLI keys the cache by the environment's name, `none` here.
        let cache = GoldenCache::new(&RealFs, &dir.path.join("run.gjl"), &campaign, "none");
        assert!(cache.store(&reference));
        let file = cache.path().file_name().expect("file name");
        let pinned = std::fs::read(fixture_path(&file.to_string_lossy())).expect("fixture");
        assert_eq!(
            std::fs::read(cache.path()).expect("written"),
            pinned,
            "{cpu}"
        );
    }
}

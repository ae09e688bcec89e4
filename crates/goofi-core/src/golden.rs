//! Memoized golden-run cache — the reference-log half of the hot path.
//!
//! Every campaign run, resume, revalidation batch and service worker
//! starts by recomputing the fault-free reference run, which costs a full
//! workload download plus a complete execution. The reference is a pure
//! function of the campaign configuration (workload image, termination,
//! logging, observe list, watchdog policy) and the environment model, so
//! the [`GoldenCache`] persists it next to the journal keyed by a digest
//! of exactly those inputs: a later run with the same key loads the
//! stored record instead of re-executing.
//!
//! Trust rules, in line with the durability contract (DESIGN.md §7):
//!
//! * the cache is consulted only where the slow path would blindly trust
//!   its own fresh reference — never by golden-run *revalidation* or the
//!   supervisor's smoke probe, whose entire purpose is to genuinely
//!   re-execute;
//! * a revalidation drift deletes the entry
//!   ([`GoldenCache::invalidate`]); a clean revalidation stores it again
//!   unless this run already loaded or stored it;
//! * any decode failure — torn write, bit rot, version or key mismatch —
//!   is silently a miss: the reference is recomputed and the entry
//!   rewritten. `goofi fsck` never needs to learn about cache files
//!   because a damaged cache can only cost time, not correctness.

use crate::campaign::Campaign;
use crate::journal::{encode_record, parse_entry, push_entry, Entry};
use crate::logging::{digest_words, ExperimentRecord};
use crate::vfs::{atomic_write, read_lossy, Vfs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// First line of every cache file.
const MAGIC: &str = "#goofi-golden v1";

/// Whether a file name is a cache entry's, `golden-<key>.gc` (the name
/// [`GoldenCache::new`] gives it).
pub(crate) fn is_cache_file(name: &str) -> bool {
    name.starts_with("golden-") && name.ends_with(".gc")
}

/// A persisted golden-run cache entry location plus the [`Vfs`] to reach
/// it. One instance serves one campaign run; the file lives next to the
/// journal as `golden-<key>.gc`.
#[derive(Debug)]
pub struct GoldenCache<'v> {
    vfs: &'v dyn Vfs,
    path: PathBuf,
    key: String,
    /// This instance loaded or stored the entry, and has not invalidated
    /// it since.
    current: AtomicBool,
}

impl<'v> GoldenCache<'v> {
    /// A cache entry for `campaign` under `env_tag` (the environment
    /// model's `name()` — two runs of the same campaign against different
    /// environments must never share a golden), stored beside
    /// `journal_path`.
    pub fn new(
        vfs: &'v dyn Vfs,
        journal_path: &Path,
        campaign: &Campaign,
        env_tag: &str,
    ) -> GoldenCache<'v> {
        let key = cache_key(campaign, env_tag);
        let file = format!("golden-{key}.gc");
        let path = journal_path
            .parent()
            .map_or_else(|| PathBuf::from(&file), |dir| dir.join(&file));
        GoldenCache {
            vfs,
            path,
            key,
            current: AtomicBool::new(false),
        }
    }

    /// The cache file's location (for reporting).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads the cached reference record, or `None` on any kind of miss:
    /// absent file, damaged file, key mismatch, undecodable record.
    pub fn load(&self, campaign: &Campaign) -> Option<ExperimentRecord> {
        let text = read_lossy(self.vfs, &self.path).ok()?;
        let mut lines = text.lines();
        if lines.next()? != MAGIC {
            return None;
        }
        if lines.next()? != self.key {
            return None;
        }
        // The record line reuses the journal's checksummed entry format,
        // so a torn tail fails the checksum and reads as a miss.
        let record = match parse_entry(lines.next()?, &campaign.name)? {
            Entry::Reference(record) => record,
            _ => return None,
        };
        self.current.store(true, Ordering::Relaxed);
        Some(record)
    }

    /// Persists `reference` atomically and reports whether that succeeded.
    /// A failure is otherwise swallowed: a cache that cannot be written
    /// only costs the next run a recomputation.
    pub fn store(&self, reference: &ExperimentRecord) -> bool {
        let mut body = format!("{MAGIC}\n{}\n", self.key);
        push_entry(&mut body, |out| encode_record(out, None, reference));
        let stored = atomic_write(self.vfs, &self.path, body.as_bytes()).is_ok();
        self.current.store(stored, Ordering::Relaxed);
        stored
    }

    /// Whether this instance loaded or stored the entry and has not
    /// invalidated it since: storing it again would rewrite the same
    /// bytes.
    pub(crate) fn is_current(&self) -> bool {
        self.current.load(Ordering::Relaxed)
    }

    /// Deletes the entry (golden-run revalidation observed drift, so the
    /// stored golden can no longer be trusted by future runs). Removal
    /// failures are swallowed for the same reason as store failures —
    /// except that a stale entry *would* matter, which is why the next
    /// load also re-checks the key and checksum.
    pub fn invalidate(&self) {
        self.current.store(false, Ordering::Relaxed);
        let _ = self.vfs.remove_file(&self.path);
    }
}

/// FNV-64 digest (hex) over every campaign field that shapes the
/// reference run, plus the environment tag. Fault lists are included:
/// over-keying can only cost a recomputation, never serve a wrong golden.
fn cache_key(campaign: &Campaign, env_tag: &str) -> String {
    let mut text = String::new();
    text.push_str(&campaign.name);
    text.push('\x1f');
    text.push_str(&campaign.target_system);
    text.push('\x1f');
    text.push_str(campaign.technique.encode());
    text.push('\x1f');
    text.push_str(&campaign.workload.name);
    text.push('\x1f');
    text.push_str(&format!(
        "{:016x}/{}/{}",
        digest_words(&campaign.workload.words),
        campaign.workload.code_words,
        campaign.workload.entry
    ));
    text.push('\x1f');
    for fault in &campaign.faults {
        text.push_str(&fault.encode());
        text.push('\x1e');
    }
    text.push('\x1f');
    text.push_str(&format!(
        "{}/{:?}",
        campaign.termination.max_instructions, campaign.termination.max_iterations
    ));
    text.push('\x1f');
    text.push_str(campaign.logging.encode());
    text.push('\x1f');
    for chain in &campaign.observe.chains {
        text.push_str(chain);
        text.push('\x1e');
    }
    text.push_str(&campaign.observe.output.encode());
    text.push('\x1f');
    for input in &campaign.initial_inputs {
        text.push_str(&format!("{input:x}/"));
    }
    text.push('\x1f');
    text.push_str(&campaign.env_exchange.encode());
    text.push('\x1f');
    text.push_str(&campaign.policy.encode());
    text.push('\x1f');
    text.push_str(env_tag);
    format!("{:016x}", fnv64(text.as_bytes()))
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, WorkloadImage};
    use crate::fault::{FaultLocation, FaultModel, FaultSpec};
    use crate::logging::{StateSnapshot, TerminationCause, Validity};
    use crate::trigger::Trigger;
    use crate::vfs::RealFs;

    fn campaign(name: &str) -> Campaign {
        Campaign::builder(name)
            .target_system("sim")
            .workload(WorkloadImage {
                name: "wl".into(),
                words: vec![1, 2, 3],
                code_words: 3,
                entry: 0,
            })
            .fault(FaultSpec {
                model: FaultModel::TransientBitFlip,
                trigger: Trigger::AfterInstructions(5),
                locations: vec![FaultLocation::Memory { addr: 0, bit: 0 }],
            })
            .build()
            .unwrap()
    }

    fn reference(campaign: &Campaign) -> ExperimentRecord {
        ExperimentRecord {
            name: format!("{}/reference", campaign.name),
            parent: None,
            campaign: campaign.name.clone(),
            fault: None,
            termination: TerminationCause::WorkloadEnd,
            state: StateSnapshot {
                outputs: vec![7, 8],
                memory_digest: 42,
                ..StateSnapshot::default()
            },
            trace: Vec::new(),
            validity: Validity::Valid,
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("goofi-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("roundtrip.journal");
        let c = campaign("gc-roundtrip");
        let cache = GoldenCache::new(&RealFs, &journal, &c, "none");
        assert!(cache.load(&c).is_none());
        let reference = reference(&c);
        assert!(cache.store(&reference));
        assert_eq!(cache.load(&c), Some(reference));
        cache.invalidate();
        assert!(cache.load(&c).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_configs_and_environments() {
        let c1 = campaign("gc-key");
        let mut c2 = campaign("gc-key");
        c2.workload.words = vec![9, 9, 9];
        assert_ne!(cache_key(&c1, "none"), cache_key(&c2, "none"));
        assert_ne!(cache_key(&c1, "none"), cache_key(&c1, "dc-motor"));
        assert_eq!(
            cache_key(&c1, "none"),
            cache_key(&campaign("gc-key"), "none")
        );
    }

    #[test]
    fn damaged_entry_is_a_miss_not_an_error() {
        let dir = std::env::temp_dir().join(format!("goofi-golden-dmg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("dmg.journal");
        let c = campaign("gc-dmg");
        let cache = GoldenCache::new(&RealFs, &journal, &c, "none");
        assert!(cache.store(&reference(&c)));
        // Flip a byte in the record line: the checksum fails, load misses.
        let mut bytes = std::fs::read(cache.path()).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0x40;
        std::fs::write(cache.path(), &bytes).unwrap();
        assert!(cache.load(&c).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

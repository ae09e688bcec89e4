//! Virtual filesystem: every durable artifact goes through here, so the
//! torture harness can inject faults into *us*.
//!
//! GOOFI's value rests on durable state surviving crashes — database,
//! experiment journal, spool manifests, shard journals. This module is the
//! single seam between that persistence code and the operating system: a
//! [`Vfs`] trait with a passthrough [`RealFs`] for production and a seeded
//! [`FaultFs`] that deterministically injects torn writes, garbled writes,
//! dropped fsyncs, power cuts, `ENOSPC`, `EIO`, and crash-points at any
//! file operation. The same philosophy the paper applies to target
//! systems — prove behaviour by injecting faults, not by hoping — applied
//! to the framework's own storage layer.
//!
//! A [`FaultPlan`] names the mutating operation it strikes, the
//! [`FaultKind`] that happens there and the seed of its torn-write cut
//! points and garbage bytes.
//!
//! Mutating operations (file create, data write, fsync, rename, unlink)
//! are counted from 1; reads are free. After a crash-kind fault fires, the
//! [`FaultFs`] refuses every further operation — the process is "dead" and
//! the test harness switches to a fresh [`RealFs`] to play the part of the
//! rebooted machine running `goofi fsck`.

use crate::{GoofiError, Result};
use scanchain::plan::mix;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open file handle obtained from a [`Vfs`].
pub trait VfsFile: Send {
    /// Writes the whole buffer.
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn write_all(&mut self, data: &[u8]) -> io::Result<()>;

    /// Syncs file data to stable storage (`fsync`).
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn sync(&mut self) -> io::Result<()>;
}

/// The filesystem operations the framework's persistence layer needs.
///
/// Deliberately small: whole-file reads, create/append writes, rename,
/// unlink, directory listing. Everything `dbio`, the journal, and the
/// service spool do is expressible in these, which is what makes the
/// fault matrix exhaustive.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Reads a whole file as UTF-8 text: [`Vfs::read_bytes`], then strict
    /// UTF-8, as `std::fs::read_to_string` reads.
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors, and
    /// [`io::ErrorKind::InvalidData`] when the file is not UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        String::from_utf8(self.read_bytes(path)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Reads a whole file as raw bytes — the recovery path's read: a
    /// garbled sector is rarely valid UTF-8, and fsck must still be able
    /// to look at it.
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Creates (or truncates) a file for writing.
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens an existing file for appending.
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Renames `from` to `to` (atomic on POSIX when same-directory).
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and its parents (idempotent).
    ///
    /// # Errors
    ///
    /// Propagated I/O errors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists a directory's entries (full paths, unsorted).
    ///
    /// # Errors
    ///
    /// Propagated I/O errors.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether the path exists.
    fn exists(&self, path: &Path) -> bool;

    /// Syncs a directory so a rename within it is durable. Callers treat
    /// failure as best-effort (not every filesystem supports it).
    ///
    /// # Errors
    ///
    /// Propagated (or injected) I/O errors.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

/// Shared, cloneable handle to a [`Vfs`] implementation.
pub type VfsHandle = Arc<dyn Vfs>;

/// The production filesystem: [`RealFs`] behind a [`VfsHandle`].
pub fn real() -> VfsHandle {
    Arc::new(RealFs)
}

/// Reads a file as text, replacing invalid UTF-8 with `U+FFFD` — the read
/// of every journal, spool manifest and golden-cache file, which must be
/// readable even where garbled bytes are no longer valid UTF-8. Valid
/// text is not copied.
///
/// # Errors
///
/// Propagated (or injected) I/O errors.
pub fn read_lossy(vfs: &dyn Vfs, path: &Path) -> io::Result<String> {
    vfs.read_bytes(path).map(|bytes| lossy(bytes).0)
}

/// `bytes` as text, with `U+FFFD` for invalid UTF-8, and whether they were
/// valid UTF-8. Valid text is not copied.
pub(crate) fn lossy(bytes: Vec<u8>) -> (String, bool) {
    match String::from_utf8(bytes) {
        Ok(text) => (text, true),
        Err(e) => (String::from_utf8_lossy(e.as_bytes()).into_owned(), false),
    }
}

/// Writes `data` to `path` and syncs it — *not* atomic; use
/// [`atomic_write`] for files whose old content must survive a crash.
///
/// # Errors
///
/// Propagated (or injected) I/O errors.
pub fn write_file(vfs: &dyn Vfs, path: &Path, data: &[u8]) -> io::Result<()> {
    let mut file = vfs.create(path)?;
    file.write_all(data)?;
    file.sync()
}

/// Atomically replaces `path` with `data`: write the sibling
/// [`temp_path`], `fsync` it, rename it over `path`, and best-effort sync
/// the directory. A crash at any point leaves either the old file or the
/// new file. The temporary file is removed on failure.
///
/// # Errors
///
/// Propagated (or injected) I/O errors from any step but the directory
/// sync.
pub fn atomic_write(vfs: &dyn Vfs, path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let write = (|| {
        let mut file = vfs.create(&tmp)?;
        file.write_all(data)?;
        file.sync()
    })();
    if let Err(e) = write {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = vfs.rename(&tmp, path) {
        let _ = vfs.remove_file(&tmp);
        return Err(e);
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = vfs.sync_dir(dir);
    }
    Ok(())
}

/// The sibling `<path>.tmp` that [`atomic_write`] writes and renames over
/// `path`. A crash mid-save can leave it behind; `goofi fsck` looks for it.
pub fn temp_path(path: &Path) -> PathBuf {
    sibling(path, ".tmp")
}

/// Renames a damaged file aside to `<path>.corrupt` (never deleting it)
/// and returns that quarantine path.
///
/// # Errors
///
/// A failed rename, surfaced as [`GoofiError::Io`].
pub fn quarantine(vfs: &dyn Vfs, path: &Path) -> Result<PathBuf> {
    let aside = sibling(path, ".corrupt");
    vfs.rename(path, &aside)
        .map_err(|e| GoofiError::io("quarantining", path, &e))?;
    Ok(aside)
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

// ---------------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------------

/// Passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        self.0.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Vfs for RealFs {
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
}

// ---------------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------------

/// What happens at the planned operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write at the crash point is torn: a seeded prefix of the buffer
    /// reaches the file, then the "machine" dies. Non-write operations at
    /// the crash point simply never happen.
    Torn,
    /// Like [`FaultKind::Torn`], but the surviving prefix is followed by
    /// seeded garbage bytes — a misdirected or bit-rotted sector.
    Garble,
    /// Every `fsync` is silently dropped from the start; at the crash
    /// point the power fails and every file rolls back to its last
    /// *acknowledged-synced* length. Exposes any consumer that relies on
    /// unsynced data surviving a rename.
    LostSync,
    /// Every `fsync` is honest; at the crash point the operation never
    /// happens, the power fails and every file rolls back to its last
    /// synced length. Exposes any consumer that acknowledges work it has
    /// not synced yet.
    PowerCut,
    /// The operation fails with `ENOSPC` (disk full). Transient: the
    /// process survives and later operations succeed.
    Enospc,
    /// The operation fails with `EIO`. Transient, like
    /// [`FaultKind::Enospc`].
    Eio,
}

impl FaultKind {
    /// Stable text form (`torn`, `lost-sync`, …).
    pub fn encode(self) -> &'static str {
        match self {
            FaultKind::Torn => "torn",
            FaultKind::Garble => "garble",
            FaultKind::LostSync => "lost-sync",
            FaultKind::PowerCut => "power-cut",
            FaultKind::Enospc => "enospc",
            FaultKind::Eio => "eio",
        }
    }
}

/// A seeded single-fault schedule for a [`FaultFs`]. The whole drill is a
/// pure function of the plan, so every torture run replays bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The 1-based mutating-operation ordinal at which the fault fires.
    pub at: u64,
    /// What the fault does.
    pub kind: FaultKind,
    /// Seed for torn-write cut points and garbage bytes.
    pub seed: u64,
}

#[derive(Default)]
struct FaultState {
    ops: u64,
    crashed: bool,
    /// Last synced length per path, tracked for the power-failure
    /// rollback of [`FaultKind::LostSync`] and [`FaultKind::PowerCut`].
    synced: HashMap<PathBuf, u64>,
}

/// A filesystem that injects exactly one planned fault, deterministically.
///
/// All I/O goes to the real filesystem until the plan's operation count is
/// reached; the handle is cloneable and thread-safe, so it can be threaded
/// through journal, database, and spool code alike.
#[derive(Clone)]
pub struct FaultFs {
    plan: FaultPlan,
    state: Arc<parking_lot::Mutex<FaultState>>,
}

impl fmt::Debug for FaultFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("FaultFs")
            .field("plan", &self.plan)
            .field("ops", &state.ops)
            .field("crashed", &state.crashed)
            .finish()
    }
}

impl FaultFs {
    /// A fault filesystem executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultFs {
        FaultFs {
            plan,
            state: Arc::new(parking_lot::Mutex::new(FaultState::default())),
        }
    }

    /// A counting filesystem that never faults: run a workload through it
    /// once to learn how many mutating operations a crash-point walk must
    /// cover.
    pub fn counting() -> FaultFs {
        FaultFs::new(FaultPlan {
            at: u64::MAX,
            kind: FaultKind::Torn,
            seed: 0,
        })
    }

    /// Mutating operations performed so far.
    pub fn ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether the planned crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    fn crashed_err() -> io::Error {
        io::Error::other("faultfs: machine crashed at planned fault point")
    }

    fn injected_err(kind: FaultKind) -> io::Error {
        match kind {
            // ENOSPC / EIO by raw errno, so callers see realistic kinds.
            FaultKind::Enospc => io::Error::from_raw_os_error(28),
            FaultKind::Eio => io::Error::from_raw_os_error(5),
            _ => FaultFs::crashed_err(),
        }
    }

    /// Rolls every tracked file back to its last synced length — the
    /// power failure of [`FaultKind::LostSync`] and
    /// [`FaultKind::PowerCut`].
    fn roll_back_unsynced(state: &FaultState) {
        for (path, len) in &state.synced {
            if let Ok(file) = OpenOptions::new().write(true).open(path) {
                let _ = file.set_len(*len);
            }
        }
    }

    /// Counts one mutating operation. `Ok(None)`: proceed normally.
    /// `Ok(Some(op))`: this is the fault point (op number returned for
    /// seeding). `Err`: refuse (already crashed, or transient error).
    fn account(&self, kind_is_write: bool) -> io::Result<Option<u64>> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(FaultFs::crashed_err());
        }
        state.ops += 1;
        if state.ops != self.plan.at {
            return Ok(None);
        }
        match self.plan.kind {
            FaultKind::Enospc | FaultKind::Eio => Err(FaultFs::injected_err(self.plan.kind)),
            FaultKind::Torn | FaultKind::Garble if kind_is_write => Ok(Some(state.ops)),
            // A non-write op at a torn/garble crash point simply never
            // happens; a power failure rolls the world back first.
            kind => {
                state.crashed = true;
                if matches!(kind, FaultKind::LostSync | FaultKind::PowerCut) {
                    FaultFs::roll_back_unsynced(&state);
                }
                Err(FaultFs::crashed_err())
            }
        }
    }

    /// Marks the machine dead after a torn/garbled write landed.
    fn crash_after_write(&self) {
        self.state.lock().crashed = true;
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.state.lock().crashed {
            Err(FaultFs::crashed_err())
        } else {
            Ok(())
        }
    }

    /// The seeded prefix length for a torn write of `len` bytes.
    fn cut_point(&self, op: u64, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        (mix(self.plan.seed, op, len as u64) % len as u64) as usize
    }
}

struct FaultFile {
    fs: FaultFs,
    file: File,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        match self.fs.account(true)? {
            None => self.file.write_all(data),
            Some(op) => {
                // Torn or garbled write: a prefix lands, then the crash.
                let cut = self.fs.cut_point(op, data.len());
                let mut surviving = data[..cut].to_vec();
                if self.fs.plan.kind == FaultKind::Garble {
                    let n = 1 + (mix(self.fs.plan.seed, op, 1) % 16) as usize;
                    for i in 0..n {
                        surviving.push((mix(self.fs.plan.seed, op, 2 + i as u64) % 256) as u8);
                    }
                }
                let _ = self.file.write_all(&surviving);
                let _ = self.file.sync_data();
                self.fs.crash_after_write();
                Err(FaultFs::crashed_err())
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.fs.account(false)?;
        if self.fs.plan.kind == FaultKind::LostSync {
            // The fsync is acknowledged but silently dropped: the synced
            // length is *not* advanced.
            return Ok(());
        }
        let result = self.file.sync_data();
        if result.is_ok() {
            let len = self.file.metadata().map(|m| m.len()).unwrap_or(0);
            self.fs.state.lock().synced.insert(self.path.clone(), len);
        }
        result
    }
}

impl Vfs for FaultFs {
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        std::fs::read(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.account(false)?;
        let file = File::create(path)?;
        self.state.lock().synced.insert(path.to_path_buf(), 0);
        Ok(Box::new(FaultFile {
            fs: self.clone(),
            file,
            path: path.to_path_buf(),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.check_alive()?;
        let file = OpenOptions::new().append(true).open(path)?;
        let len = file.metadata().map(|m| m.len()).unwrap_or(0);
        self.state
            .lock()
            .synced
            .entry(path.to_path_buf())
            .or_insert(len);
        Ok(Box::new(FaultFile {
            fs: self.clone(),
            file,
            path: path.to_path_buf(),
        }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.account(false)?;
        std::fs::rename(from, to)?;
        let mut state = self.state.lock();
        if let Some(len) = state.synced.remove(from) {
            state.synced.insert(to.to_path_buf(), len);
        }
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.account(false)?;
        std::fs::remove_file(path)?;
        self.state.lock().synced.remove(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_alive()?;
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.check_alive()?;
        RealFs.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.account(false)?;
        if self.plan.kind == FaultKind::LostSync {
            return Ok(());
        }
        File::open(path)?.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        // Unique per call: the tests of one binary share a pid and run on
        // parallel threads, so the pid alone does not keep their dirs apart.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "goofi-vfs-test-{}-{}-{name}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        p
    }

    #[test]
    fn real_fs_atomic_write_roundtrips() {
        let path = temp_path("atomic");
        let vfs = real();
        atomic_write(vfs.as_ref(), &path, b"hello\n").unwrap();
        assert_eq!(vfs.read_to_string(&path).unwrap(), "hello\n");
        atomic_write(vfs.as_ref(), &path, b"world\n").unwrap();
        assert_eq!(vfs.read_to_string(&path).unwrap(), "world\n");
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_to_string_is_strict_utf8_over_read_bytes() {
        let path = temp_path("utf8");
        std::fs::write(&path, b"ok \xFF").unwrap();
        let err = RealFs.read_to_string(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(RealFs.read_bytes(&path).unwrap(), b"ok \xFF");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_leaves_prefix_then_refuses_everything() {
        let dir = temp_path("torn-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        // Counting pass: one create + one write + one sync.
        let fs = FaultFs::counting();
        write_file(&fs, &path, b"0123456789").unwrap();
        assert_eq!(fs.ops(), 3);

        // Crash on the write (op 2).
        let fs = FaultFs::new(FaultPlan {
            at: 2,
            kind: FaultKind::Torn,
            seed: 11,
        });
        let err = write_file(&fs, &path, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("crashed"), "{err}");
        assert!(fs.crashed());
        let left = std::fs::read(&path).unwrap();
        assert!(left.len() < 10, "torn write kept {} bytes", left.len());
        assert!(b"0123456789".starts_with(&left[..]));
        // Everything after the crash is refused, reads included.
        assert!(fs.read_to_string(&path).is_err());
        assert!(fs.create(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_is_transient() {
        let dir = temp_path("enospc-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        let fs = FaultFs::new(FaultPlan {
            at: 2,
            kind: FaultKind::Enospc,
            seed: 0,
        });
        let err = write_file(&fs, &path, b"data").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert!(!fs.crashed());
        // The next attempt succeeds: the disk "freed up".
        write_file(&fs, &path, b"data").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "data");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lost_sync_rolls_back_to_synced_length() {
        let dir = temp_path("lostsync-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        // Ops: create(1) write(2) sync(3, dropped) write(4) sync(5,
        // dropped) write(6) → crash at 7 rolls back to length 0.
        let fs = FaultFs::new(FaultPlan {
            at: 7,
            kind: FaultKind::LostSync,
            seed: 3,
        });
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"aaa").unwrap();
        f.sync().unwrap();
        f.write_all(b"bbb").unwrap();
        f.sync().unwrap();
        f.write_all(b"ccc").unwrap();
        assert!(f.sync().is_err()); // op 7: power cut
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn power_cut_keeps_exactly_the_synced_bytes() {
        let dir = temp_path("powercut-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        // Ops: create(1) write(2) sync(3) write(4) → the sync at 5 never
        // happens: the power fails and the unsynced write is gone.
        let fs = FaultFs::new(FaultPlan {
            at: 5,
            kind: FaultKind::PowerCut,
            seed: 3,
        });
        let mut f = fs.create(&path).unwrap();
        f.write_all(b"aaa").unwrap();
        f.sync().unwrap();
        f.write_all(b"bbb").unwrap();
        assert!(f.sync().is_err());
        assert!(fs.crashed());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"aaa");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garble_appends_seeded_garbage() {
        let dir = temp_path("garble-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f");
        let fs = FaultFs::new(FaultPlan {
            at: 2,
            kind: FaultKind::Garble,
            seed: 5,
        });
        assert!(write_file(&fs, &path, b"0123456789").is_err());
        let a = std::fs::read(&path).unwrap();
        // Deterministic: the same plan garbles the same way.
        let fs = FaultFs::new(FaultPlan {
            at: 2,
            kind: FaultKind::Garble,
            seed: 5,
        });
        assert!(write_file(&fs, &path, b"0123456789").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), a);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

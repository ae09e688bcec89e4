//! A [`Vfs`] that records every mutating operation before passing it on,
//! numbered as [`goofi_core::vfs::FaultFs`] counts them: the journal
//! ordering tests read it to see when an entry was written and when a
//! sync made it durable. It also records whole-file reads, which
//! `FaultFs` does not count, so the service tests can count how often a
//! job reads each file.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

use goofi_core::vfs::{Vfs, VfsFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One recorded filesystem operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// `create`, `write`, `sync`, `rename`, `remove` or `sync-dir`, or
    /// `read` for a whole-file read.
    pub what: &'static str,
    /// The file (for a rename, the destination).
    pub path: PathBuf,
    /// What a write wrote.
    pub text: String,
}

impl Op {
    /// A write of one journal entry (the header excluded).
    pub fn journal_entry(&self) -> bool {
        self.what == "write" && self.on_journal() && !self.text.starts_with('#')
    }

    /// A sync of a journal.
    pub fn journal_sync(&self) -> bool {
        self.what == "sync" && self.on_journal()
    }

    fn on_journal(&self) -> bool {
        self.path.extension().is_some_and(|e| e == "gjl")
    }
}

/// Journal entries written after the last journal sync in `ops`.
pub fn unsynced(ops: &[Op]) -> usize {
    ops.iter()
        .rev()
        .take_while(|op| !op.journal_sync())
        .filter(|op| op.journal_entry())
        .count()
}

/// Journal entries still unsynced when the first linked re-run
/// (`…/rerun1`) was journaled: zero when every quarantine mark was synced
/// before its re-run started.
pub fn unsynced_before_rerun(ops: &[Op]) -> usize {
    let rerun = ops
        .iter()
        .position(|op| op.journal_entry() && op.text.contains("/rerun1\t"))
        .expect("no re-run was journaled");
    unsynced(&ops[..rerun])
}

/// Records the mutating operations made through it, then forwards them to
/// `inner`.
#[derive(Debug, Clone)]
pub struct Recorder<V> {
    inner: V,
    ops: Arc<Mutex<Vec<Op>>>,
}

impl<V: Vfs> Recorder<V> {
    pub fn new(inner: V) -> Self {
        Recorder {
            inner,
            ops: Arc::default(),
        }
    }

    /// Every mutating operation so far, in order.
    pub fn ops(&self) -> Vec<Op> {
        let ops = self.ops.lock().unwrap();
        ops.iter().filter(|op| op.what != "read").cloned().collect()
    }

    /// How many whole-file reads of `path` went through so far.
    pub fn reads(&self, path: &Path) -> usize {
        let ops = self.ops.lock().unwrap();
        ops.iter()
            .filter(|op| op.what == "read" && op.path == path)
            .count()
    }

    fn file(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(RecordedFile {
            inner,
            path: path.to_path_buf(),
            ops: Arc::clone(&self.ops),
        })
    }
}

fn record(ops: &Mutex<Vec<Op>>, what: &'static str, path: &Path, text: &[u8]) {
    ops.lock().unwrap().push(Op {
        what,
        path: path.to_path_buf(),
        text: String::from_utf8_lossy(text).into_owned(),
    });
}

struct RecordedFile {
    inner: Box<dyn VfsFile>,
    path: PathBuf,
    ops: Arc<Mutex<Vec<Op>>>,
}

impl VfsFile for RecordedFile {
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        record(&self.ops, "write", &self.path, data);
        self.inner.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        record(&self.ops, "sync", &self.path, b"");
        self.inner.sync()
    }
}

impl<V: Vfs> Vfs for Recorder<V> {
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        record(&self.ops, "read", path, b"");
        self.inner.read_bytes(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        record(&self.ops, "create", path, b"");
        Ok(self.file(path, self.inner.create(path)?))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.file(path, self.inner.open_append(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        record(&self.ops, "rename", to, b"");
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        record(&self.ops, "remove", path, b"");
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        record(&self.ops, "sync-dir", path, b"");
        self.inner.sync_dir(path)
    }
}

//! The storage backend abstraction: a tiny, object-safe flat-namespace
//! file API with an explicit durability boundary.
//!
//! Two implementations ship:
//!
//! * [`DirStorage`] — real files under one directory, `fsync` on
//!   [`Storage::sync`], atomic replace via write-to-temp + rename.
//! * [`MemStorage`] — an in-memory double that models the
//!   written-vs-durable split exactly: appended bytes sit in a
//!   *written* buffer until `sync` promotes them to the *durable*
//!   image, and [`MemStorage::crashed`] returns a fresh handle holding
//!   only the durable image — what a machine would find on disk after
//!   power loss. The kill-at-any-byte recovery certification drives
//!   this double through [`MemStorage::truncated_at`] and
//!   [`MemStorage::bit_flipped`], so every persisted byte offset is
//!   exercised without a real SIGKILL.
//!
//! The API is deliberately append-only plus atomic-replace: the WAL
//! only ever appends, checkpoints and the manifest only ever replace,
//! so no implementation needs seek-and-overwrite (the operation whose
//! crash semantics are unportable).

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A flat namespace of named byte files with an explicit durability
/// boundary. All methods take `&self`; implementations synchronize
/// internally (the shard engine appends from worker threads).
pub trait Storage: Send {
    /// Full contents of `name`, or `ErrorKind::NotFound`.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Appends `bytes` to `name`, creating it if absent. The bytes are
    /// *written* but not necessarily durable until [`sync`](Self::sync).
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Atomically replaces `name` with `bytes` (write temp + rename)
    /// and makes the replacement durable before returning. After a
    /// crash the file holds either the old or the new contents, never
    /// a mix.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Makes all bytes previously appended to `name` durable.
    fn sync(&self, name: &str) -> io::Result<()>;

    /// Deletes `name` (idempotent: deleting a missing file is `Ok`).
    fn remove(&self, name: &str) -> io::Result<()>;

    /// All file names, sorted — recovery iterates this, so ordering
    /// must be deterministic.
    fn list(&self) -> io::Result<Vec<String>>;
}

impl Storage for Box<dyn Storage> {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        (**self).read(name)
    }
    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).append(name, bytes)
    }
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        (**self).write_atomic(name, bytes)
    }
    fn sync(&self, name: &str) -> io::Result<()> {
        (**self).sync(name)
    }
    fn remove(&self, name: &str) -> io::Result<()> {
        (**self).remove(name)
    }
    fn list(&self) -> io::Result<Vec<String>> {
        (**self).list()
    }
}

fn validate_name(name: &str) -> io::Result<()> {
    if name.is_empty() || name.contains('/') || name.contains('\\') || name == "." || name == ".." {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("invalid storage file name {name:?}"),
        ));
    }
    Ok(())
}

/// Real files under one directory. `sync` is `File::sync_data`;
/// `write_atomic` writes `<name>.tmp`, fsyncs it, renames over `name`,
/// and fsyncs the directory so the rename itself is durable.
///
/// The file last appended to (the WAL's current segment) stays open,
/// so a record costs one `write`, not an `open` as well; `sync` of that
/// name uses the same handle. `remove` or `write_atomic` of that name
/// drops it first, so no append can land in a replaced or deleted file.
pub struct DirStorage {
    dir: PathBuf,
    appending: Mutex<Option<(String, std::fs::File)>>,
}

impl DirStorage {
    /// Opens (creating if needed) the directory at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(DirStorage {
            dir,
            appending: Mutex::new(None),
        })
    }

    /// Closes the append handle if it is open on `name`.
    fn release_handle(&self, name: &str) {
        let mut open = self.appending.lock().expect("append handle");
        if open.as_ref().is_some_and(|(n, _)| n == name) {
            *open = None;
        }
    }

    /// The directory backing this storage.
    pub fn path(&self) -> &std::path::Path {
        &self.dir
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Directory fsync pins renames/creates; not supported on every
        // platform (e.g. Windows), where the rename is already the best
        // available crash boundary.
        if let Ok(d) = std::fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

impl Storage for DirStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        validate_name(name)?;
        let mut f = std::fs::File::open(self.dir.join(name))?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        validate_name(name)?;
        let mut open = self.appending.lock().expect("append handle");
        match &mut *open {
            Some((n, f)) if n == name => f.write_all(bytes),
            _ => {
                // Forget the previous handle before opening, so a
                // failed open leaves none behind.
                *open = None;
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(name))?;
                f.write_all(bytes)?;
                *open = Some((name.to_string(), f));
                Ok(())
            }
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        validate_name(name)?;
        self.release_handle(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.dir.join(name))?;
        self.sync_dir()
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        validate_name(name)?;
        if let Some((n, f)) = &*self.appending.lock().expect("append handle") {
            if n == name {
                return f.sync_data();
            }
        }
        match std::fs::File::open(self.dir.join(name)) {
            Ok(f) => f.sync_data(),
            // Nothing appended yet: nothing to make durable.
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        validate_name(name)?;
        self.release_handle(name);
        match std::fs::remove_file(self.dir.join(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Some(n) = entry.file_name().to_str() {
                    // Skip torn write_atomic temporaries: a crash
                    // between create and rename leaves one behind, and
                    // it is by definition not durable state.
                    if !n.ends_with(".tmp") {
                        names.push(n.to_string());
                    }
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }
}

/// One in-memory file: the durable image plus the not-yet-synced
/// written tail.
#[derive(Clone, Default)]
struct MemFile {
    durable: Vec<u8>,
    written: Vec<u8>,
}

impl MemFile {
    fn full(&self) -> Vec<u8> {
        let mut v = self.durable.clone();
        v.extend_from_slice(&self.written);
        v
    }
}

/// The in-memory test double. `Clone` shares the same underlying
/// "disk" (an `Arc`), so a handle kept outside an engine survives the
/// engine — exactly like a directory survives a process.
#[derive(Clone, Default)]
pub struct MemStorage {
    disk: Arc<Mutex<BTreeMap<String, MemFile>>>,
    /// When set, every mutating call fails with this kind — for
    /// exercising the typed `RestoreError::Io` path.
    fail_writes: Arc<Mutex<Option<io::ErrorKind>>>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// A new **independent** storage holding only the durable image of
    /// this one: what a machine would find after power loss. Un-synced
    /// appends are gone; `write_atomic` files are whole.
    pub fn crashed(&self) -> MemStorage {
        let disk = self.disk.lock().expect("mem disk");
        let copy: BTreeMap<String, MemFile> = disk
            .iter()
            .filter(|(_, f)| !f.durable.is_empty())
            .map(|(n, f)| {
                (
                    n.clone(),
                    MemFile {
                        durable: f.durable.clone(),
                        written: Vec::new(),
                    },
                )
            })
            .collect();
        MemStorage {
            disk: Arc::new(Mutex::new(copy)),
            fail_writes: Arc::new(Mutex::new(None)),
        }
    }

    /// The durable `(name, bytes)` image, sorted by name — the byte
    /// universe the kill-at-any-byte certification sweeps.
    pub fn durable_files(&self) -> Vec<(String, Vec<u8>)> {
        let disk = self.disk.lock().expect("mem disk");
        disk.iter()
            .filter(|(_, f)| !f.durable.is_empty())
            .map(|(n, f)| (n.clone(), f.durable.clone()))
            .collect()
    }

    /// An independent crashed copy with `name` cut to its first `len`
    /// bytes — simulating the kill landing mid-write at that offset.
    pub fn truncated_at(&self, name: &str, len: usize) -> MemStorage {
        let copy = self.crashed();
        {
            let mut disk = copy.disk.lock().expect("mem disk");
            if let Some(f) = disk.get_mut(name) {
                f.durable.truncate(len);
                if f.durable.is_empty() {
                    disk.remove(name);
                }
            }
        }
        copy
    }

    /// An independent crashed copy with bit `bit` (absolute, from the
    /// start of the file) of `name` flipped — simulating a single-bit
    /// media corruption at that offset.
    pub fn bit_flipped(&self, name: &str, bit: u64) -> MemStorage {
        let copy = self.crashed();
        {
            let mut disk = copy.disk.lock().expect("mem disk");
            if let Some(f) = disk.get_mut(name) {
                let byte = (bit / 8) as usize;
                if byte < f.durable.len() {
                    f.durable[byte] ^= 1 << (bit % 8);
                }
            }
        }
        copy
    }

    /// Makes every subsequent mutating call fail with `kind` (`None`
    /// restores normal operation) — for exercising `RestoreError::Io`.
    pub fn set_fail_writes(&self, kind: Option<io::ErrorKind>) {
        *self.fail_writes.lock().expect("fail flag") = kind;
    }

    fn check_writable(&self) -> io::Result<()> {
        if let Some(kind) = *self.fail_writes.lock().expect("fail flag") {
            return Err(io::Error::new(kind, "injected storage failure"));
        }
        Ok(())
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        validate_name(name)?;
        let disk = self.disk.lock().expect("mem disk");
        match disk.get(name) {
            // Reads see written-but-unsynced bytes, like a live OS page
            // cache; only a crash loses them.
            Some(f) => Ok(f.full()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such mem file {name:?}"),
            )),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        validate_name(name)?;
        self.check_writable()?;
        let mut disk = self.disk.lock().expect("mem disk");
        disk.entry(name.to_string())
            .or_default()
            .written
            .extend_from_slice(bytes);
        Ok(())
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        validate_name(name)?;
        self.check_writable()?;
        let mut disk = self.disk.lock().expect("mem disk");
        disk.insert(
            name.to_string(),
            MemFile {
                durable: bytes.to_vec(),
                written: Vec::new(),
            },
        );
        Ok(())
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        validate_name(name)?;
        self.check_writable()?;
        let mut disk = self.disk.lock().expect("mem disk");
        if let Some(f) = disk.get_mut(name) {
            let tail = std::mem::take(&mut f.written);
            f.durable.extend_from_slice(&tail);
        }
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        validate_name(name)?;
        self.check_writable()?;
        self.disk.lock().expect("mem disk").remove(name);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self
            .disk
            .lock()
            .expect("mem disk")
            .keys()
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_crash_loses_unsynced_appends_only() {
        let s = MemStorage::new();
        s.append("wal", b"durable").unwrap();
        s.sync("wal").unwrap();
        s.append("wal", b"+lost").unwrap();
        s.write_atomic("manifest", b"m1").unwrap();

        let dead = s.crashed();
        assert_eq!(dead.read("wal").unwrap(), b"durable");
        assert_eq!(dead.read("manifest").unwrap(), b"m1");
        // The live handle still sees everything written.
        assert_eq!(s.read("wal").unwrap(), b"durable+lost");
    }

    #[test]
    fn mem_clone_shares_the_disk() {
        let a = MemStorage::new();
        let b = a.clone();
        a.append("f", b"x").unwrap();
        a.sync("f").unwrap();
        assert_eq!(b.read("f").unwrap(), b"x");
    }

    #[test]
    fn mem_damage_helpers_are_independent_copies() {
        let s = MemStorage::new();
        s.append("f", &[0xFF, 0xFF]).unwrap();
        s.sync("f").unwrap();
        let cut = s.truncated_at("f", 1);
        assert_eq!(cut.read("f").unwrap(), &[0xFF]);
        let flipped = s.bit_flipped("f", 8);
        assert_eq!(flipped.read("f").unwrap(), &[0xFF, 0xFE]);
        assert_eq!(s.read("f").unwrap(), &[0xFF, 0xFF], "original untouched");
    }

    #[test]
    fn dir_storage_round_trips_and_lists_sorted() {
        let dir = std::env::temp_dir().join(format!("td-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = DirStorage::open(&dir).unwrap();
        s.append("b-wal", b"rec").unwrap();
        s.sync("b-wal").unwrap();
        s.write_atomic("a-manifest", b"m").unwrap();
        assert_eq!(s.read("b-wal").unwrap(), b"rec");
        assert_eq!(s.list().unwrap(), vec!["a-manifest", "b-wal"]);
        s.remove("b-wal").unwrap();
        s.remove("b-wal").unwrap(); // idempotent
        assert_eq!(s.list().unwrap(), vec!["a-manifest"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dir_storage_append_handle_follows_replace_and_remove() {
        let dir = std::env::temp_dir().join(format!("td-persist-handle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = DirStorage::open(&dir).unwrap();
        s.append("seg", b"ab").unwrap();
        s.append("seg", b"cd").unwrap();
        s.sync("seg").unwrap();
        // A crash-tail repair replaces the open segment: later appends
        // must extend the replacement, not the unlinked original.
        s.write_atomic("seg", b"a").unwrap();
        s.append("seg", b"x").unwrap();
        assert_eq!(s.read("seg").unwrap(), b"ax");
        // Appending elsewhere moves the handle; the first file is intact.
        s.append("next", b"1").unwrap();
        s.append("seg", b"y").unwrap();
        assert_eq!(s.read("seg").unwrap(), b"axy");
        s.remove("seg").unwrap();
        s.append("seg", b"z").unwrap();
        s.sync("seg").unwrap();
        assert_eq!(s.read("seg").unwrap(), b"z");
        assert_eq!(s.read("next").unwrap(), b"1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn names_with_separators_are_rejected() {
        let s = MemStorage::new();
        assert!(s.append("../evil", b"x").is_err());
        assert!(s.read("a/b").is_err());
    }

    #[test]
    fn injected_write_failure_carries_its_kind() {
        let s = MemStorage::new();
        s.set_fail_writes(Some(io::ErrorKind::StorageFull));
        let err = s.append("wal", b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        s.set_fail_writes(None);
        s.append("wal", b"x").unwrap();
    }
}

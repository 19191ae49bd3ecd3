//! The store's filesystem seam as the benchmark uses it: files held in
//! memory, every call counted.
//!
//! The benchmark may only write inside its checkout, which sits on a
//! shared virtio disk. There one fsync costs 100 to 700 us and varies 2x
//! between runs, where a put of this program's own code costs a few
//! microseconds; even without fsync, ext4 create-and-rename made
//! `persist_churn` throughput spread 17 % between runs of the same code.
//! Device and kernel-filesystem behaviour on that host is not a property of
//! this program, so the store runs over this in-memory [`StoreFs`] and its
//! I/O discipline is reported as exact call counts (`store.syncs_per_put`
//! and friends), which two commits compare exactly.

use caba_store::StoreFs;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Call counts since the filesystem was made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    pub reads: u64,
    /// `write_sync` calls: one per object or snapshot file written.
    pub write_syncs: u64,
    /// `append_sync` calls: one per touch-log line.
    pub append_syncs: u64,
    pub dir_syncs: u64,
    pub renames: u64,
    pub bytes_written: u64,
}

impl FsCounts {
    /// Every call that flushes the device under `RealFs`.
    pub fn syncs(&self) -> u64 {
        self.write_syncs + self.append_syncs + self.dir_syncs
    }

    pub fn since(&self, earlier: &FsCounts) -> FsCounts {
        FsCounts {
            reads: self.reads - earlier.reads,
            write_syncs: self.write_syncs - earlier.write_syncs,
            append_syncs: self.append_syncs - earlier.append_syncs,
            dir_syncs: self.dir_syncs - earlier.dir_syncs,
            renames: self.renames - earlier.renames,
            bytes_written: self.bytes_written - earlier.bytes_written,
        }
    }

    pub fn add(&mut self, d: &FsCounts) {
        self.reads += d.reads;
        self.write_syncs += d.write_syncs;
        self.append_syncs += d.append_syncs;
        self.dir_syncs += d.dir_syncs;
        self.renames += d.renames;
        self.bytes_written += d.bytes_written;
    }
}

#[derive(Default)]
struct State {
    /// Path -> contents. Directories are implied by their files.
    files: BTreeMap<String, Vec<u8>>,
    counts: FsCounts,
}

/// A handle on one in-memory filesystem. Clones share the files, so a
/// second `Store` can be opened on a root the first one filled.
#[derive(Clone, Default)]
pub struct MemFs(Arc<Mutex<State>>);

impl MemFs {
    pub fn new() -> Self {
        MemFs::default()
    }

    /// This filesystem, boxed for `Store::open_with_fs`.
    pub fn boxed(&self) -> Box<dyn StoreFs> {
        Box::new(self.clone())
    }

    pub fn counts(&self) -> FsCounts {
        self.state().counts
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.0.lock().expect("no holder of this lock panics")
    }
}

fn key(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
}

impl StoreFs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.state();
        st.counts.reads += 1;
        st.files
            .get(&key(path))
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state();
        st.counts.write_syncs += 1;
        st.counts.bytes_written += bytes.len() as u64;
        st.files.insert(key(path), bytes.to_vec());
        Ok(())
    }

    fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state();
        st.counts.append_syncs += 1;
        st.counts.bytes_written += bytes.len() as u64;
        st.files
            .entry(key(path))
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.state();
        st.counts.renames += 1;
        let bytes = st.files.remove(&key(from)).ok_or_else(|| not_found(from))?;
        st.files.insert(key(to), bytes);
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        self.state().counts.dir_syncs += 1;
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let prefix = format!("{}/", key(dir).trim_end_matches('/'));
        Ok(self
            .state()
            .files
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(k, _)| {
                let name = &k[prefix.len()..];
                (!name.contains('/')).then(|| name.to_string())
            })
            .collect())
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.state()
            .files
            .remove(&key(path))
            .map(drop)
            .ok_or_else(|| not_found(path))
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        Ok(self.state().files.get(&key(path)).map(|b| b.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caba_store::Store;

    #[test]
    fn a_store_works_over_it_and_every_call_is_counted() {
        let fs = MemFs::new();
        let store = Store::open_with_fs("/mem/root", fs.boxed()).expect("open");
        let before = fs.counts();
        store.put_result(7, "label", b"payload").expect("put");
        let put = fs.counts().since(&before);
        // Temp file, rename onto the object, directory sync, touch-log line.
        assert_eq!(
            (
                put.write_syncs,
                put.renames,
                put.dir_syncs,
                put.append_syncs
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(put.syncs(), 3);

        let before = fs.counts();
        assert_eq!(
            store.get_result(7).expect("get").as_deref(),
            Some(&b"payload"[..])
        );
        assert_eq!(store.get_result(8).expect("miss"), None);
        let got = fs.counts().since(&before);
        assert_eq!((got.reads, got.append_syncs, got.write_syncs), (2, 1, 0));

        // A second handle on the same files sees the entry; listing is
        // sorted, and only direct children count.
        let again = Store::open_with_fs("/mem/root", fs.boxed()).expect("reopen");
        assert!(again.get_result(7).expect("get").is_some());
        assert!(again.scrub().expect("scrub").is_clean());
        store.put_result(3, "label", b"x").expect("put");
        let names = fs.list(Path::new("/mem/root/objects/rs")).expect("list");
        assert_eq!(names.len(), 2);
        assert!(names.windows(2).all(|w| w[0] < w[1]));
        assert!(fs
            .list(Path::new("/mem/root"))
            .expect("list")
            .contains(&"lru.log".to_string()));
        assert!(
            MemFs::new().read(Path::new("/mem/root/lru.log")).is_err(),
            "filesystems are separate"
        );
    }
}

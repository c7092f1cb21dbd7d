//! A timing decorator around [`DirStore`]: counts puts, commits and
//! committed bytes, and times staging writes, commits and reads. It
//! delegates every method, `local_path` and `local_root` included, so
//! subprocess workers that open the directory themselves still find the
//! store.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use telco_store::{DirStore, ObjectStore};

/// Counters shared by the store and the writers and readers it hands out.
/// Every counter is a statistic that publishes no other data, so the
/// atomics are `Relaxed`.
#[derive(Default)]
pub struct StoreStats {
    puts: AtomicU64,
    commits: AtomicU64,
    bytes_committed: AtomicU64,
    put_ns: AtomicU64,
    commit_ns: AtomicU64,
    get_ns: AtomicU64,
    /// Bytes written so far to each staged object, moved into
    /// `bytes_committed` when the object commits.
    staged: Mutex<HashMap<String, u64>>,
}

/// A point-in-time copy of [`StoreStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreCounts {
    /// Objects staged with `put`.
    pub puts: u64,
    /// Objects committed.
    pub commits: u64,
    /// Bytes of the committed objects.
    pub bytes_committed: u64,
    /// Nanoseconds in `put` and in writes to staged objects.
    pub put_ns: u64,
    /// Nanoseconds in `commit`.
    pub commit_ns: u64,
    /// Nanoseconds in `get` and in reads from committed objects.
    pub get_ns: u64,
}

impl StoreStats {
    /// Copy the counters.
    pub fn counts(&self) -> StoreCounts {
        StoreCounts {
            puts: self.puts.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            bytes_committed: self.bytes_committed.load(Ordering::Relaxed),
            put_ns: self.put_ns.load(Ordering::Relaxed),
            commit_ns: self.commit_ns.load(Ordering::Relaxed),
            get_ns: self.get_ns.load(Ordering::Relaxed),
        }
    }

    fn add_ns(counter: &AtomicU64, since: Instant) {
        counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn staged(&self) -> std::sync::MutexGuard<'_, HashMap<String, u64>> {
        self.staged.lock().expect("staged-bytes map poisoned by a panicking writer")
    }
}

/// [`DirStore`] with [`StoreStats`] kept on the side.
pub struct TimingStore {
    inner: DirStore,
    stats: Arc<StoreStats>,
}

impl TimingStore {
    /// Wrap `inner`, counting into `stats`.
    pub fn new(inner: DirStore, stats: Arc<StoreStats>) -> Self {
        TimingStore { inner, stats }
    }
}

struct TimedWriter {
    inner: Box<dyn Write + Send>,
    name: String,
    stats: Arc<StoreStats>,
}

impl Write for TimedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let n = self.inner.write(buf)?;
        StoreStats::add_ns(&self.stats.put_ns, t);
        *self.stats.staged().entry(self.name.clone()).or_default() += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let out = self.inner.flush();
        StoreStats::add_ns(&self.stats.put_ns, t);
        out
    }
}

struct TimedReader {
    inner: Box<dyn Read + Send>,
    stats: Arc<StoreStats>,
}

impl Read for TimedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let out = self.inner.read(buf);
        StoreStats::add_ns(&self.stats.get_ns, t);
        out
    }
}

impl ObjectStore for TimingStore {
    fn put(&self, name: &str) -> std::io::Result<Box<dyn Write + Send>> {
        let t = Instant::now();
        let inner = self.inner.put(name)?;
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats.staged().insert(name.to_string(), 0);
        StoreStats::add_ns(&self.stats.put_ns, t);
        Ok(Box::new(TimedWriter { inner, name: name.to_string(), stats: Arc::clone(&self.stats) }))
    }

    fn commit(&self, name: &str) -> std::io::Result<()> {
        let t = Instant::now();
        self.inner.commit(name)?;
        StoreStats::add_ns(&self.stats.commit_ns, t);
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        let bytes = self.stats.staged().remove(name).unwrap_or(0);
        self.stats.bytes_committed.fetch_add(bytes, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, name: &str) -> std::io::Result<Box<dyn Read + Send>> {
        let t = Instant::now();
        let inner = self.inner.get(name)?;
        StoreStats::add_ns(&self.stats.get_ns, t);
        Ok(Box::new(TimedReader { inner, stats: Arc::clone(&self.stats) }))
    }

    fn exists(&self, name: &str) -> std::io::Result<bool> {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> std::io::Result<()> {
        self.inner.delete(name)
    }

    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }

    fn append(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(name, bytes)
    }

    fn local_path(&self, name: &str) -> Option<PathBuf> {
        self.inner.local_path(name)
    }

    fn local_root(&self) -> Option<&Path> {
        self.inner.local_root()
    }
}

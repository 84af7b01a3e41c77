//! Named shared-memory segments keyed by (host, IPC namespace).
//!
//! A [`Segment`] is a fixed-size array of atomically accessed bytes —
//! the simulation equivalent of an `mmap`ed `shm_open` region. Using
//! `AtomicU8` for every byte gives the same guarantee the paper leans on
//! ("the byte is the smallest granularity of memory access without the
//! lock"): concurrent single-byte writes from different ranks are safe
//! without any locking.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::sync::Arc;

use cmpi_cluster::{HostId, NamespaceId};
// Byte cells and the init lock are shim-synchronized so the model
// checker can explore attach/publish races; the registry map lock stays
// plain (no model-visible operation happens under it).
use cmpi_model::sync::{AtomicU8, Mutex, Ordering};
use parking_lot::Mutex as PlainMutex;

/// A shared-memory segment: a named, fixed-size region of bytes.
pub struct Segment {
    name: String,
    bytes: Box<[AtomicU8]>,
    /// Serializes header validation / re-initialization on attach (the
    /// simulation analogue of `O_EXCL` + `flock` on the segment file).
    /// Steady-state byte traffic never takes it.
    init_lock: Mutex<()>,
}

impl Segment {
    fn new(name: String, len: usize) -> Self {
        let bytes = (0..len)
            .map(|_| AtomicU8::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Segment {
            name,
            bytes,
            init_lock: Mutex::new(()),
        }
    }

    /// Segment name (e.g. `"locality"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Segment length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for a zero-length segment.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Read one byte.
    #[inline]
    pub fn load(&self, offset: usize) -> u8 {
        self.bytes[offset].load(Ordering::Acquire)
    }

    /// Write one byte (release ordering so readers observing the byte also
    /// observe everything the writer did before publishing it).
    #[inline]
    pub fn store(&self, offset: usize, val: u8) {
        self.bytes[offset].store(val, Ordering::Release);
    }

    /// Atomically replace the byte at `offset` iff it still equals
    /// `current`; returns the previously stored byte on failure.
    #[inline]
    pub fn compare_exchange(&self, offset: usize, current: u8, new: u8) -> Result<u8, u8> {
        self.bytes[offset].compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Hold the segment's initialization lock for the duration of `f`.
    /// Attachers use this to make header validation + recovery atomic
    /// with respect to each other.
    pub fn with_init_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.init_lock.lock();
        f()
    }

    /// Bulk copy into the segment.
    pub fn write(&self, offset: usize, data: &[u8]) {
        assert!(
            offset + data.len() <= self.bytes.len(),
            "segment '{}' overflow: {}+{} > {}",
            self.name,
            offset,
            data.len(),
            self.bytes.len()
        );
        for (i, &b) in data.iter().enumerate() {
            self.bytes[offset + i].store(b, Ordering::Release);
        }
    }

    /// Bulk copy out of the segment.
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        assert!(
            offset + out.len() <= self.bytes.len(),
            "segment '{}' overrun: {}+{} > {}",
            self.name,
            offset,
            out.len(),
            self.bytes.len()
        );
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.bytes[offset + i].load(Ordering::Acquire);
        }
    }

    /// Snapshot the whole segment.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len()];
        self.read(0, &mut v);
        v
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Segment({:?}, {} bytes)", self.name, self.len())
    }
}

/// Key identifying a segment: it exists *per host, per IPC namespace* —
/// two containers resolve the same name to the same segment only when they
/// share both.
type SegKey = (HostId, NamespaceId, String);

/// Cluster-wide registry of shared-memory segments — the simulation's
/// `/dev/shm`.
#[derive(Default)]
pub struct ShmRegistry {
    segments: PlainMutex<HashMap<SegKey, Arc<Segment>>>,
}

impl ShmRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `shm_open(name, O_CREAT)`: return the segment named `name` in the
    /// given host/IPC-namespace scope, creating it with `len` bytes if it
    /// does not exist yet.
    ///
    /// # Panics
    /// Panics if the segment exists with a different length (mirrors the
    /// `ftruncate` mismatch a real implementation would surface).
    pub fn open_or_create(
        &self,
        host: HostId,
        ipc_ns: NamespaceId,
        name: &str,
        len: usize,
    ) -> Arc<Segment> {
        let mut map = self.segments.lock();
        let seg = map
            .entry((host, ipc_ns, name.to_string()))
            .or_insert_with(|| Arc::new(Segment::new(name.to_string(), len)))
            .clone();
        assert_eq!(
            seg.len(),
            len,
            "segment '{name}' reopened with mismatched length ({} vs {len})",
            seg.len()
        );
        seg
    }

    /// Look up an existing segment without creating it.
    pub fn open(&self, host: HostId, ipc_ns: NamespaceId, name: &str) -> Option<Arc<Segment>> {
        self.segments
            .lock()
            .get(&(host, ipc_ns, name.to_string()))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn same_scope_sees_same_segment() {
        let reg = ShmRegistry::new();
        let a = reg.open_or_create(HostId(0), NamespaceId(7), "locality", 16);
        let b = reg.open_or_create(HostId(0), NamespaceId(7), "locality", 16);
        assert!(Arc::ptr_eq(&a, &b));
        a.store(3, 42);
        assert_eq!(b.load(3), 42);
    }

    #[test]
    fn different_ipc_namespace_isolates() {
        let reg = ShmRegistry::new();
        let a = reg.open_or_create(HostId(0), NamespaceId(1), "locality", 16);
        let b = reg.open_or_create(HostId(0), NamespaceId(2), "locality", 16);
        assert!(!Arc::ptr_eq(&a, &b));
        a.store(0, 9);
        assert_eq!(b.load(0), 0);
    }

    #[test]
    fn different_host_isolates() {
        let reg = ShmRegistry::new();
        let a = reg.open_or_create(HostId(0), NamespaceId(1), "locality", 16);
        let b = reg.open_or_create(HostId(1), NamespaceId(1), "locality", 16);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn bulk_read_write_roundtrip() {
        let reg = ShmRegistry::new();
        let s = reg.open_or_create(HostId(0), NamespaceId(0), "buf", 64);
        let data: Vec<u8> = (0..32).collect();
        s.write(8, &data);
        let mut out = vec![0u8; 32];
        s.read(8, &mut out);
        assert_eq!(out, data);
        assert_eq!(s.snapshot()[0..8], [0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflowing_write_panics() {
        let reg = ShmRegistry::new();
        let s = reg.open_or_create(HostId(0), NamespaceId(0), "buf", 8);
        s.write(4, &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "mismatched length")]
    fn reopen_with_wrong_length_panics() {
        let reg = ShmRegistry::new();
        reg.open_or_create(HostId(0), NamespaceId(0), "x", 8);
        reg.open_or_create(HostId(0), NamespaceId(0), "x", 16);
    }

    #[test]
    fn concurrent_byte_writes_do_not_interfere() {
        // The container-list property: 64 threads each own one byte.
        let reg = Arc::new(ShmRegistry::new());
        let seg = reg.open_or_create(HostId(0), NamespaceId(0), "locality", 64);
        thread::scope(|s| {
            for i in 0..64usize {
                let seg = Arc::clone(&seg);
                s.spawn(move || seg.store(i, (i as u8).wrapping_add(1)));
            }
        });
        for i in 0..64usize {
            assert_eq!(seg.load(i), (i as u8).wrapping_add(1));
        }
    }
}

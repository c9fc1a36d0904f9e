//! A counting [`BackingStore`] around the in-memory `MemBacking`.
//!
//! The log runs all of `acx_storage`'s own code (record encoding, CRC
//! framing, the flush policy) and stops at the medium: a file-backed
//! log would put the host's fsync latency inside every reorganization
//! pass, and that varies far more from run to run than the program does.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use acx_storage::{BackingStore, MemBacking};

use crate::trace::{self, Layer};

/// Counters shared between the benchmark and the store inside the log.
/// Statistics only: every field is `Relaxed` and publishes nothing else.
#[derive(Debug, Default)]
pub struct WalCounters {
    pub appends: AtomicU64,
    pub bytes: AtomicU64,
    pub flushes: AtomicU64,
    /// Nanoseconds inside `append` and `flush`, counted while `timed`.
    pub busy_ns: AtomicU64,
    /// Time the calls and record spans (the traced run only).
    pub timed: AtomicBool,
}

/// A snapshot of [`WalCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WalTally {
    pub appends: u64,
    pub bytes: u64,
    pub flushes: u64,
    pub busy_ns: u64,
}

impl WalCounters {
    pub fn tally(&self) -> WalTally {
        WalTally {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

impl WalTally {
    pub fn since(self, earlier: WalTally) -> WalTally {
        WalTally {
            appends: self.appends - earlier.appends,
            bytes: self.bytes - earlier.bytes,
            flushes: self.flushes - earlier.flushes,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

#[derive(Debug)]
pub struct CountingStore {
    inner: MemBacking,
    counters: Arc<WalCounters>,
}

impl CountingStore {
    pub fn new(counters: Arc<WalCounters>) -> Self {
        Self {
            inner: MemBacking::new(),
            counters,
        }
    }

    /// The log image written so far.
    pub fn bytes(&self) -> &[u8] {
        self.inner.bytes()
    }
}

/// Runs one call into the medium, timing it and recording its span
/// while the counters say so.
fn timed_call<R>(counters: &WalCounters, f: impl FnOnce() -> R) -> R {
    if !counters.timed.load(Ordering::Relaxed) {
        return f();
    }
    let started = Instant::now();
    let out = trace::scoped(Layer::StorageWal, f);
    counters
        .busy_ns
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

impl BackingStore for CountingStore {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let (inner, counters) = (&mut self.inner, &self.counters);
        timed_call(counters, || inner.append(bytes))
    }

    fn flush(&mut self) -> io::Result<()> {
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        let (inner, counters) = (&mut self.inner, &self.counters);
        timed_call(counters, || inner.flush())
    }

    fn read_durable(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_durable()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

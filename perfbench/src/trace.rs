//! In-memory spans recorded around the calls into each layer.
//!
//! Only the traced run installs a tracer; without one every call
//! returns at once, so the untraced run pays no tracing cost. Spans live
//! in a thread-local vector (every layer call of the benchmark happens
//! on its one load-generating thread) and are written out once, at the
//! end of the run.

use std::cell::RefCell;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// A layer boundary the benchmark records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One operation of the workload (root span); its self time is the
    /// benchmark's own share, outside every layer.
    Op,
    /// `acx_core` read phase: `query_recorded_with`, `acx_geom` kernels
    /// included.
    CoreRead,
    /// `acx_core` statistics: `apply_stats` outside its reorganization.
    CoreApply,
    /// `acx_core` reorganization pass inside `apply_stats`.
    CoreReorg,
    /// `acx_core` mutation: `insert`, `update` or `remove`.
    CoreMutate,
    /// `acx_storage` backing-store calls under the WAL.
    StorageWal,
    /// `acx_serve` fan-out: one blocking `submit`.
    ServeSubmit,
    /// `acx_serve` answer collection: `drain_results` after the flush.
    ServeCollect,
    /// `acx_serve` barrier: `flush` at the end of a round.
    ServeFlush,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Op,
        Layer::CoreRead,
        Layer::CoreApply,
        Layer::CoreReorg,
        Layer::CoreMutate,
        Layer::StorageWal,
        Layer::ServeSubmit,
        Layer::ServeCollect,
        Layer::ServeFlush,
    ];

    /// Stable name used in the span file and the metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "bench",
            Layer::CoreRead => "core.read",
            Layer::CoreApply => "core.apply",
            Layer::CoreReorg => "core.reorg",
            Layer::CoreMutate => "core.mutate",
            Layer::StorageWal => "storage.wal",
            Layer::ServeSubmit => "serve.submit",
            Layer::ServeCollect => "serve.collect",
            Layer::ServeFlush => "serve.flush",
        }
    }
}

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One closed interval of work at a layer boundary. Times are
/// nanoseconds since the tracer was installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Operation the span belongs to.
    pub op: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs an empty tracer on this thread.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
            op: 0,
        })
    });
}

/// Removes this thread's tracer and returns its spans.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Opens a span; its parent is the innermost open span. A no-op
/// returning [`ROOT`] when no tracer is installed.
pub fn begin(layer: Layer) -> u32 {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(tr) = guard.as_mut() else {
            return ROOT;
        };
        let now = tr.t0.elapsed().as_nanos() as u64;
        let idx = tr.spans.len() as u32;
        if tr.open.is_empty() {
            tr.op += 1;
        }
        tr.spans.push(Span {
            layer,
            start: now,
            end: now,
            parent: tr.open.last().copied().unwrap_or(ROOT),
            op: tr.op,
        });
        tr.open.push(idx);
        idx
    })
}

/// Closes the span `idx` opened by [`begin`], returning its duration.
pub fn end(idx: u32) -> u64 {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(tr) = guard.as_mut() else {
            return 0;
        };
        let now = tr.t0.elapsed().as_nanos() as u64;
        let popped = tr.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let span = &mut tr.spans[idx as usize];
        span.end = now;
        span.duration()
    })
}

/// Runs `f` inside a span at `layer`.
pub fn scoped<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let idx = begin(layer);
    let out = f();
    end(idx);
    out
}

/// Adds a closed span of `nanos` ending where the (closed) span
/// `parent` ends, and moves under it the children of `parent` recorded
/// since `first_child` that start inside it. The reorganization pass
/// runs at the tail of `apply_stats` and reports only its length, so
/// its span is placed there.
pub fn tail_child(parent: u32, first_child: usize, layer: Layer, nanos: u64) {
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let Some(tr) = guard.as_mut() else {
            return;
        };
        let host = tr.spans[parent as usize];
        let start = host.end.saturating_sub(nanos).max(host.start);
        let idx = tr.spans.len() as u32;
        for s in &mut tr.spans[first_child..] {
            if s.parent == parent && s.start >= start {
                s.parent = idx;
            }
        }
        tr.spans.push(Span {
            layer,
            start,
            end: host.end,
            parent,
            op: host.op,
        });
    });
}

/// Per-layer self time: each span's duration minus the part its
/// children cover, summed by layer (indexed like [`Layer::ALL`]). The
/// sum over layers equals the summed duration of the root spans.
pub fn self_times(spans: &[Span]) -> [u64; Layer::ALL.len()] {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            covered[s.parent as usize] += s.duration();
        }
    }
    let mut out = [0u64; Layer::ALL.len()];
    for (s, c) in spans.iter().zip(&covered) {
        let k = Layer::ALL
            .iter()
            .position(|&l| l == s.layer)
            .expect("listed");
        out[k] += s.duration().saturating_sub(*c);
    }
    out
}

/// Durations of every span at `layer`, ascending.
pub fn durations(spans: &[Span], layer: Layer) -> Vec<u64> {
    let mut d: Vec<u64> = spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(Span::duration)
        .collect();
    d.sort_unstable();
    d
}

/// Writes one tab-separated line per span:
/// `index op layer start_ns end_ns parent`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(fs::File::create(path)?);
    writeln!(w, "index\top\tlayer\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{}\t{parent}",
            s.op,
            s.layer.name(),
            s.start,
            s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: u32) -> Span {
        Span {
            layer,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_times_sum_to_the_roots() {
        let spans = [
            span(Layer::Op, 0, 100, ROOT),
            span(Layer::CoreRead, 5, 60, 0),
            span(Layer::CoreApply, 60, 95, 0),
            span(Layer::StorageWal, 70, 80, 2),
            span(Layer::CoreReorg, 75, 95, 2),
        ];
        let t = self_times(&spans);
        let at = |l: Layer| t[Layer::ALL.iter().position(|&x| x == l).unwrap()];
        assert_eq!(at(Layer::Op), 10);
        assert_eq!(at(Layer::CoreRead), 55);
        assert_eq!(at(Layer::CoreApply), 5);
        assert_eq!(at(Layer::StorageWal), 10);
        assert_eq!(at(Layer::CoreReorg), 20);
        assert_eq!(t.iter().sum::<u64>(), 100);
    }

    #[test]
    fn nesting_and_tail_child() {
        install();
        let root = begin(Layer::Op);
        let apply = begin(Layer::CoreApply);
        scoped(Layer::StorageWal, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        end(apply);
        tail_child(apply, 2, Layer::CoreReorg, u64::MAX);
        end(root);
        let second = begin(Layer::Op);
        end(second);
        let spans = take();
        assert!(take().is_empty(), "take removes the tracer");
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, 0);
        // The pass covers the whole apply span, so the WAL span moves under it.
        assert_eq!(spans[2].parent, 3);
        assert_eq!(spans[3].parent, 1);
        assert_eq!(spans[3].layer, Layer::CoreReorg);
        assert_eq!((spans[0].op, spans[4].op), (1, 2));
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, spans[0].duration() + spans[4].duration());
    }
}

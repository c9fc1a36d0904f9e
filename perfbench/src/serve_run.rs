//! `serve_flood`: a hash-partitioned `ShardedIndex` with one shard per
//! core, flooded by one thread through blocking `submit`.

use std::time::Instant;

use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch};
use acx_geom::{ObjectId, SpatialQuery};
use acx_serve::{ServeConfig, ShardBy, ShardedIndex};
use acx_storage::AccessStats;

use crate::common::{Checks, Clustering, Metrics};
use crate::model::Model;
use crate::runner::{self, put_clustering, put_read, put_reorg, put_wal, Runner, Sample};
use crate::stats::{median_f64, percentile};
use crate::store::WalTally;
use crate::trace::{self, Layer};
use crate::workload::{Op, Source, Spec};
use crate::Args;

/// Events replayed read-only on every shard after the traced phase to
/// count the read phase's work.
const READ_PROBE: usize = 256;

pub struct Live {
    serving: ShardedIndex,
    model: Model,
    source: Source,
    load_ns: u64,
    warmup_ns: u64,
    /// The events of the last round, for the read probe.
    last_events: Vec<SpatialQuery>,
}

/// What the traced run records beside the timing.
#[derive(Debug, Default)]
pub struct Layers {
    flush_ns: Vec<u64>,
}

pub fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Runner for Live {
    type Extra = Layers;

    fn set_up(spec: &Spec, seed: u64, checks: &mut Checks) -> Live {
        let mut source = Source::new(spec, seed);
        let initial = source.initial();
        let warmup: Vec<Vec<Op>> = (0..spec.warmup_rounds).map(|_| source.round()).collect();
        let mut model = Model::new(spec.dims);
        for (i, rect) in initial.iter().enumerate() {
            model.insert(i as u32, rect);
        }
        // The program's default queue capacity.
        let config = ServeConfig::new(IndexConfig::memory(spec.dims))
            .with_shards(shards())
            .with_shard_by(ShardBy::Hash)
            .retaining_results();

        let started = Instant::now();
        let serving = ShardedIndex::new(config).expect("valid config");
        let objects = initial
            .into_iter()
            .enumerate()
            .map(|(i, r)| (ObjectId(i as u32), r));
        if let Err(e) = serving.insert_all(objects) {
            checks.fail(format!("load failed: {e}"));
        }
        let load_ns = started.elapsed().as_nanos() as u64;
        let mut live = Live {
            serving,
            model,
            source,
            load_ns,
            warmup_ns: 0,
            last_events: Vec::new(),
        };
        let mut warm = Sample::default();
        for ops in &warmup {
            live.run_round(ops, &mut warm, false, checks);
        }
        live.warmup_ns = warm.t.busy_ns;
        live
    }

    fn setup_ns(&self) -> u64 {
        self.load_ns + self.warmup_ns
    }

    fn next_round(&mut self) -> Vec<Op> {
        self.source.round()
    }

    /// Submits every event of the round, then `flush`es and takes the
    /// answers. An event's latency is the time its `submit` blocked the
    /// caller: under the flood, the wait for room in the shards' queues.
    fn run_round(&mut self, ops: &[Op], s: &mut Sample<Layers>, traced: bool, checks: &mut Checks) {
        let events: Vec<SpatialQuery> = ops
            .iter()
            .map(|op| match op {
                Op::Event(q) => q.clone(),
                _ => unreachable!("serve_flood only sends events"),
            })
            .collect();
        self.last_events = events.clone();
        let mut seqs = Vec::with_capacity(events.len());
        let serving = &self.serving;
        let round_started = Instant::now();
        for q in events {
            let root = trace::begin(Layer::Op);
            let t = Instant::now();
            let sub = trace::begin(Layer::ServeSubmit);
            seqs.push(serving.submit(q));
            let traced_ns = trace::end(sub);
            s.t.event_ns.push(if traced {
                traced_ns
            } else {
                t.elapsed().as_nanos() as u64
            });
            trace::end(root);
        }
        let root = trace::begin(Layer::Op);
        let f = trace::begin(Layer::ServeFlush);
        let t = Instant::now();
        serving.flush();
        s.x.flush_ns.push(t.elapsed().as_nanos() as u64);
        trace::end(f);
        let c = trace::begin(Layer::ServeCollect);
        let results = serving.drain_results();
        trace::end(c);
        trace::end(root);
        let busy_ns = round_started.elapsed().as_nanos() as u64;
        s.t.end_round(ops.len(), busy_ns);

        let first = seqs.first().copied().unwrap_or(0);
        if seqs
            .iter()
            .enumerate()
            .any(|(k, &seq)| seq != first + k as u64)
        {
            checks.fail("submit returned sequence numbers out of order".into());
        }
        let mut answers: Vec<Option<Vec<ObjectId>>> = vec![None; ops.len()];
        for r in results {
            match r.seq.checked_sub(first).map(|k| k as usize) {
                Some(k) if k < answers.len() => answers[k] = Some(r.matches),
                _ => checks.fail(format!("an answer for unknown event {}", r.seq)),
            }
        }
        let missing = answers.iter().filter(|a| a.is_none()).count();
        if missing > 0 {
            checks.fail(format!("{missing} submitted events never completed"));
        }
        let answers: Vec<Vec<ObjectId>> =
            answers.into_iter().map(Option::unwrap_or_default).collect();
        checks.verify_round(&mut self.model, ops, &answers, &[]);
    }

    /// Zero rejections, every event completed, per-shard invariants, and
    /// the resident count equal to the model's.
    fn final_checks(&mut self, checks: &mut Checks) {
        let serving = &self.serving;
        serving.flush();
        let stats = serving.stats();
        if stats.queue_full_rejections != 0 {
            checks.fail(format!(
                "{} submissions rejected",
                stats.queue_full_rejections
            ));
        }
        if stats.events_completed != stats.events_submitted {
            checks.fail(format!(
                "{} of {} events completed",
                stats.events_completed, stats.events_submitted
            ));
        }
        let mut resident = 0;
        for i in 0..serving.shards() {
            let (invariants, len) = serving.with_shard(i, |ix: &mut AdaptiveClusterIndex| {
                (ix.check_invariants(), ix.len())
            });
            if let Err(e) = invariants {
                checks.fail(format!("shard {i}: check_invariants failed: {e}"));
            }
            resident += len;
        }
        if resident != self.model.len() || serving.len() != self.model.len() {
            checks.fail(format!(
                "shards hold {resident} (routes {}), the model {}",
                serving.len(),
                self.model.len()
            ));
        }
    }

    /// Per-shard clustering, summed.
    fn clustering(&self) -> Clustering {
        let serving = &self.serving;
        (0..serving.shards())
            .map(|i| serving.with_shard(i, |ix: &mut AdaptiveClusterIndex| Clustering::of(ix)))
            .fold(Clustering::default(), Clustering::add)
    }

    /// Opens the serving tier's statistics window with the traced phase.
    fn trace_window(&mut self, open: bool) {
        if open {
            self.serving.reset_stats_window();
        }
    }
}

/// The traced run and its per-layer metrics.
pub fn run_traced(spec: &Spec, args: &Args, checks: &mut Checks) -> Metrics {
    let runner::Traced {
        plain,
        mut live,
        mut s,
        spans,
        before,
        after,
    } = runner::run_traced::<Live>(spec, args, checks);
    let stats = live.serving.stats();
    let probe = read_probe(&live.serving, &live.last_events);
    live.final_checks(checks);

    let mut m = Metrics::default();
    let us = |v: u64| v as f64 / 1e3;
    let mut read_ns: Vec<u64> = probe.iter().map(|r| r.0).collect();
    read_ns.sort_unstable();
    let mut access = AccessStats::default();
    let mut matches = 0u64;
    for (_, a, n) in &probe {
        access.merge(a);
        matches += n;
    }
    let probed = live.last_events.len().min(READ_PROBE) as u64;
    put_read(&mut m, &read_ns, &access, matches, probed);
    m.put("core.apply_us_p50", 0.0, "us");
    let shards = live.serving.shards() as u64;
    put_reorg(
        &mut m,
        stats.reorg_passes,
        0,
        0,
        stats.reorg_stall_ns,
        s.t.busy_ns * shards,
    );
    put_clustering(&mut m, before, after);
    m.put("core.mutate_us_p50", 0.0, "us");
    m.put(
        "core.load_us_per_object",
        live.load_ns as f64 / 1e3 / spec.objects as f64,
        "us",
    );
    m.put("core.warmup_s", live.warmup_ns as f64 / 1e9, "s");
    put_wal(&mut m, WalTally::default(), 0, 0);
    let mut submit_ns = s.t.event_ns.clone();
    submit_ns.sort_unstable();
    s.x.flush_ns.sort_unstable();
    m.put(
        "serve.submit_us_p50",
        us(percentile(&submit_ns, 50.0)),
        "us",
    );
    m.put(
        "serve.submit_stall_share",
        stats.submit_stall_ns as f64 / s.t.busy_ns.max(1) as f64,
        "share",
    );
    m.put(
        "serve.reorg_stall_share",
        stats.reorg_stall_ns as f64 / (s.t.busy_ns * shards).max(1) as f64,
        "share",
    );
    let depth: Vec<f64> = stats
        .shards
        .iter()
        .map(|sh| sh.queue_depth_p50 as f64)
        .collect();
    m.put("serve.queue_depth_p50", median_f64(&depth), "count");
    m.put(
        "serve.drain_ms",
        percentile(&s.x.flush_ns, 50.0) as f64 / 1e6,
        "ms",
    );
    crate::put_trace(&mut m, &spans, &s.t, plain.ns_per_op());
    m
}

/// Replays `queries` read-only (`query_with`) on every shard's worker:
/// per shard and query, the read time, the access counters and the
/// match count. Reads record no statistics, so the clustering is left
/// as it was.
fn read_probe(serving: &ShardedIndex, queries: &[SpatialQuery]) -> Vec<(u64, AccessStats, u64)> {
    let queries: Vec<SpatialQuery> = queries.iter().take(READ_PROBE).cloned().collect();
    let mut out = Vec::new();
    for i in 0..serving.shards() {
        let qs = queries.clone();
        out.extend(serving.with_shard(i, move |ix: &mut AdaptiveClusterIndex| {
            let mut scratch = QueryScratch::new();
            qs.iter()
                .map(|q| {
                    let t = Instant::now();
                    let m = ix.query_with(q, &mut scratch);
                    let d = t.elapsed().as_nanos() as u64;
                    (d, m.stats, scratch.matches().len() as u64)
                })
                .collect::<Vec<_>>()
        }));
    }
    out
}

//! `pubsub_settled` and `drift_churn`: one `AdaptiveClusterIndex`
//! driven by one thread.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use acx_core::{AdaptiveClusterIndex, IndexConfig, QueryScratch, StatsDelta};
use acx_geom::{HyperRect, ObjectId, SpatialQuery};
use acx_storage::{AccessStats, BackingStore, FlushPolicy, MemBacking, Wal};

use crate::common::{check_index, Checks, Clustering, Metrics};
use crate::model::{flat, Model};
use crate::runner::{self, put_clustering, put_read, put_reorg, put_wal, Runner, Sample};
use crate::stats::percentile;
use crate::store::{CountingStore, WalCounters, WalTally};
use crate::trace::{self, Layer};
use crate::workload::{Op, Source, Spec};
use crate::Args;

/// The fixed flush policy of the logged workload.
const FLUSH: FlushPolicy = FlushPolicy::PerBatch(64);

/// A loaded, warmed-up index with its model and input source.
pub struct Live {
    spec: Spec,
    index: AdaptiveClusterIndex,
    model: Model,
    source: Source,
    /// The log's counters, when logged.
    wal: Option<Arc<WalCounters>>,
    /// The log's tally when the traced phase opened, then what it added.
    wal_traced: WalTally,
    load_ns: u64,
    warmup_ns: u64,
    /// Time `recover` took in the end-of-run checks.
    recover_ns: u64,
    /// The traced run's stand-ins for the pair `execute` keeps inside
    /// the index: reused for the whole run, cleared per event.
    delta: StatsDelta,
    scratch: QueryScratch,
}

/// What the traced run records beside the timing.
#[derive(Debug, Default)]
pub struct Layers {
    read_ns: Vec<u64>,
    apply_ns: Vec<u64>,
    pass_ns: Vec<u64>,
    access: AccessStats,
    matches: u64,
}

fn config(spec: &Spec) -> IndexConfig {
    IndexConfig::memory(spec.dims)
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
        let wal = spec.wal.then(|| Arc::new(WalCounters::default()));

        let started = Instant::now();
        let mut index = AdaptiveClusterIndex::new(config(spec)).expect("valid config");
        if let Some(counters) = &wal {
            let store = Box::new(CountingStore::new(Arc::clone(counters)));
            let log = Wal::create(store, FLUSH, spec.dims).expect("in-memory log");
            index.attach_wal(log).expect("fresh log");
        }
        for (i, rect) in initial.into_iter().enumerate() {
            if index.insert(ObjectId(i as u32), rect).is_err() {
                checks.fail(format!("load: insert of #{i} failed"));
            }
        }
        let load_ns = started.elapsed().as_nanos() as u64;

        let mut live = Live {
            spec: spec.clone(),
            index,
            model,
            source,
            wal,
            wal_traced: WalTally::default(),
            load_ns,
            warmup_ns: 0,
            recover_ns: 0,
            delta: StatsDelta::new(),
            scratch: QueryScratch::new(),
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

    fn run_round(&mut self, ops: &[Op], s: &mut Sample<Layers>, traced: bool, checks: &mut Checks) {
        let mut answers: Vec<Vec<ObjectId>> = Vec::with_capacity(ops.len());
        let mut applied: Vec<bool> = Vec::new();
        // Owned copies for the mutation calls, made before the clock starts.
        let mut rects = ops
            .iter()
            .filter_map(|op| match op {
                Op::Insert(_, r) | Op::Update(_, r) => Some(r.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
            .into_iter();
        let (index, delta, scratch) = (&mut self.index, &mut self.delta, &mut self.scratch);
        let round_started = Instant::now();
        if traced {
            for op in ops {
                let root = trace::begin(Layer::Op);
                if let Op::Event(q) = op {
                    traced_event(index, q, delta, scratch, &mut s.x);
                    answers.push(scratch.matches().to_vec());
                    s.t.event_ns.push(trace::end(root));
                } else {
                    let m = trace::begin(Layer::CoreMutate);
                    applied.push(mutate(index, op, &mut rects));
                    trace::end(m);
                    s.t.mutation_ns.push(trace::end(root));
                }
            }
        } else {
            for op in ops {
                let started = Instant::now();
                if let Op::Event(q) = op {
                    let r = index.execute(q);
                    s.t.event_ns.push(started.elapsed().as_nanos() as u64);
                    answers.push(r.matches);
                } else {
                    let ok = mutate(index, op, &mut rects);
                    s.t.mutation_ns.push(started.elapsed().as_nanos() as u64);
                    applied.push(ok);
                }
            }
        }
        let busy_ns = round_started.elapsed().as_nanos() as u64;
        s.t.end_round(ops.len(), busy_ns);
        checks.verify_round(&mut self.model, ops, &answers, &applied);
    }

    /// Invariants and size; for the logged workload also a sync,
    /// recovery from the log alone, and comparison of the recovered
    /// id → rectangle map with the model.
    fn final_checks(&mut self, checks: &mut Checks) {
        check_index(checks, self.spec.name, &self.index, self.model.len());
        if self.wal.is_none() {
            return;
        }
        if let Err(e) = self.index.sync_wal() {
            checks.fail(format!("sync_wal failed: {e}"));
        }
        let Some(log) = self.index.detach_wal() else {
            checks.fail("the log is no longer attached".into());
            return;
        };
        let store = log.into_store();
        let bytes = store
            .as_any()
            .downcast_ref::<CountingStore>()
            .expect("the benchmark's store")
            .bytes()
            .to_vec();
        let started = Instant::now();
        let recovered = AdaptiveClusterIndex::recover(
            None,
            Box::new(MemBacking::from_bytes(bytes)) as Box<dyn BackingStore>,
            FLUSH,
            config(&self.spec),
        );
        self.recover_ns = started.elapsed().as_nanos() as u64;
        match recovered {
            Err(e) => checks.fail(format!("recover failed: {e}")),
            Ok((index, _)) => {
                let mut ids: Vec<ObjectId> = index.object_ids().collect();
                ids.sort_unstable();
                let entries = self.model.entries();
                let same = ids.len() == entries.len()
                    && ids.iter().zip(&entries).all(|(id, (want_id, want))| {
                        id.0 == *want_id && index.get(*id).is_some_and(|r| flat(&r) == *want)
                    });
                if !same {
                    checks.fail(format!(
                        "recovered map differs from the model ({} vs {} objects)",
                        ids.len(),
                        entries.len()
                    ));
                }
            }
        }
    }

    fn clustering(&self) -> Clustering {
        Clustering::of(&self.index)
    }

    /// Times the log's backing-store calls during the traced phase and
    /// keeps what the phase added to its tally.
    fn trace_window(&mut self, open: bool) {
        let Some(c) = &self.wal else {
            return;
        };
        c.timed.store(open, Ordering::Relaxed);
        self.wal_traced = if open {
            c.tally()
        } else {
            c.tally().since(self.wal_traced)
        };
    }
}

/// `execute` split into its read phase and `apply_stats`, each in a span.
fn traced_event(
    index: &mut AdaptiveClusterIndex,
    q: &SpatialQuery,
    delta: &mut StatsDelta,
    scratch: &mut QueryScratch,
    x: &mut Layers,
) {
    delta.clear();
    let r = trace::begin(Layer::CoreRead);
    let metrics = index.query_recorded_with(q, delta, scratch);
    x.read_ns.push(trace::end(r));
    x.access.merge(&metrics.stats);
    x.matches += scratch.matches().len() as u64;

    let (passes, wall) = (index.reorganizations(), index.reorg_wall_ns());
    let a = trace::begin(Layer::CoreApply);
    index.apply_stats(delta);
    let apply_ns = trace::end(a);
    if index.reorganizations() > passes {
        let pass_ns = index.reorg_wall_ns() - wall;
        trace::tail_child(a, a as usize + 1, Layer::CoreReorg, pass_ns);
        x.pass_ns.push(pass_ns);
    } else {
        x.apply_ns.push(apply_ns);
    }
}

fn mutate(
    index: &mut AdaptiveClusterIndex,
    op: &Op,
    rects: &mut impl Iterator<Item = HyperRect>,
) -> bool {
    match op {
        Op::Insert(id, _) => {
            let rect = rects.next().expect("copied");
            index.insert(ObjectId(*id), rect).is_ok()
        }
        Op::Update(id, _) => {
            let rect = rects.next().expect("copied");
            index.update(ObjectId(*id), rect).is_ok()
        }
        Op::Remove(id) => index.remove(ObjectId(*id)).is_ok(),
        Op::Event(_) => unreachable!("events are executed, not applied"),
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
    live.final_checks(checks);

    let mut m = Metrics::default();
    let x = &mut s.x;
    x.read_ns.sort_unstable();
    x.apply_ns.sort_unstable();
    x.pass_ns.sort_unstable();
    let mutate_ns = trace::durations(&spans, Layer::CoreMutate);
    let us = |v: u64| v as f64 / 1e3;
    put_read(
        &mut m,
        &x.read_ns,
        &x.access,
        x.matches,
        s.t.event_ns.len() as u64,
    );
    m.put("core.apply_us_p50", us(percentile(&x.apply_ns, 50.0)), "us");
    put_reorg(
        &mut m,
        x.pass_ns.len() as u64,
        percentile(&x.pass_ns, 50.0),
        x.pass_ns.last().copied().unwrap_or(0),
        x.pass_ns.iter().sum(),
        s.t.busy_ns,
    );
    put_clustering(&mut m, before, after);
    m.put("core.mutate_us_p50", us(percentile(&mutate_ns, 50.0)), "us");
    m.put(
        "core.load_us_per_object",
        live.load_ns as f64 / 1e3 / spec.objects as f64,
        "us",
    );
    m.put("core.warmup_s", live.warmup_ns as f64 / 1e9, "s");
    put_wal(
        &mut m,
        live.wal_traced,
        s.t.mutation_ns.len() as u64,
        live.recover_ns,
    );
    crate::put_serve_absent(&mut m);
    crate::put_trace(&mut m, &spans, &s.t, plain.ns_per_op());
    m
}

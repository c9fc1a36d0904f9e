//! Reference figures, not metrics: `SeqScan`, the R*-tree and the
//! adaptive index, each timed alone on `pubsub_settled`'s inputs.

use std::time::Instant;

use acx_baselines::{RStarConfig, RStarTree, SeqScan};
use acx_core::{AdaptiveClusterIndex, IndexConfig};
use acx_geom::{ObjectId, SpatialQuery};
use acx_storage::StorageScenario;

use crate::model::{sorted_ids, Model};
use crate::stats::percentile;
use crate::workload::{Op, Source, Spec};
use crate::Args;

/// Times `execute` over `events` in a loop for about `seconds`, then
/// checks one pass of answers against the model. Returns events/s and
/// the median latency in µs.
fn time(
    label: &str,
    seconds: f64,
    events: &[SpatialQuery],
    model: &Model,
    mut execute: impl FnMut(&SpatialQuery) -> Vec<ObjectId>,
) {
    let mut lat = Vec::new();
    let started = Instant::now();
    'outer: loop {
        for q in events {
            let t = Instant::now();
            std::hint::black_box(execute(q));
            lat.push(t.elapsed().as_nanos() as u64);
            if started.elapsed().as_secs_f64() >= seconds {
                break 'outer;
            }
        }
    }
    let busy: u64 = lat.iter().sum();
    lat.sort_unstable();
    let wrong = events
        .iter()
        .take(500)
        .filter(|q| sorted_ids(&execute(q)) != model.answer(q))
        .count();
    println!(
        "{label:<8} {:>10.0} events/s  p50 {:>8.1} us  ({} events timed, {wrong} wrong answers in 500 checked)",
        lat.len() as f64 / (busy.max(1) as f64 / 1e9),
        percentile(&lat, 50.0) as f64 / 1e3,
        lat.len()
    );
}

pub fn run(args: &Args) {
    let spec = Spec::named("pubsub_settled").expect("known workload");
    let mut source = Source::new(&spec, args.seed);
    let objects = source.initial();
    let events: Vec<SpatialQuery> = (0..40)
        .flat_map(|_| source.round())
        .filter_map(|op| match op {
            Op::Event(q) => Some(q),
            _ => None,
        })
        .collect();
    let (warmup, timed) = events.split_at(events.len() / 2);
    let mut model = Model::new(spec.dims);
    let mut ss = SeqScan::new(spec.dims, StorageScenario::Memory);
    let mut rs = RStarTree::new(RStarConfig::memory(spec.dims));
    let mut ac = AdaptiveClusterIndex::new(IndexConfig::memory(spec.dims)).expect("valid config");
    for (i, rect) in objects.iter().enumerate() {
        let id = ObjectId(i as u32);
        model.insert(id.0, rect);
        ss.insert(id, rect);
        rs.insert(id, rect);
        ac.insert(id, rect.clone()).expect("fresh id");
    }
    for q in warmup {
        ac.execute(q);
    }
    println!(
        "reference: {} subscriptions, point offers only, seed {}, {} clusters after {} warm-up events",
        spec.objects,
        args.seed,
        ac.cluster_count(),
        warmup.len()
    );
    let share = args.seconds as f64 / 3.0;
    time("SeqScan", share, timed, &model, |q| ss.execute(q).matches);
    time("R*-tree", share, timed, &model, |q| rs.execute(q).matches);
    time("AC", share, timed, &model, |q| ac.execute(q).matches);
}

//! The three workloads: their inputs, made from the seed alone, and the
//! fixed rounds of operations every run attempts.

use acx_geom::{HyperRect, SpatialQuery};
use acx_workloads::{
    AdaptiveScenario, EventStream, MixedTraffic, PubSubGenerator, UniformWorkload, Workload,
    WorkloadConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation of a round.
#[derive(Debug, Clone)]
pub enum Op {
    Event(SpatialQuery),
    Insert(u32, HyperRect),
    Update(u32, HyperRect),
    Remove(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Event,
    Insert,
    Update,
    Remove,
}

use Slot::{Event as E, Insert as I, Remove as R, Update as U};

/// Where a workload's events come from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Events {
    /// Point offers from `EventStream`.
    PointOffers,
    /// Range offers of this half-width from `EventStream`.
    RangeOffers(f32),
    /// `MixedTraffic`: all four kinds over a hotspot relocating every
    /// this many queries.
    Mixed(u64),
}

/// Which subscriptions a workload holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Objects {
    Apartments,
    /// Uniform 8-d rectangles with interval lengths up to this bound.
    Uniform(f32),
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub dims: usize,
    /// Subscriptions loaded at set-up.
    pub objects: usize,
    objects_kind: Objects,
    events: Events,
    /// One repetition of the operation pattern; a round is
    /// `round_repeats` of them.
    pattern: &'static [Slot],
    round_repeats: usize,
    /// Rounds run as warm-up inside set-up.
    pub warmup_rounds: usize,
    /// Of the run's set-ups, how many are measured (the last ones), each
    /// for an equal share of the run.
    pub measured_instances: u64,
    /// Log every mutation through a WAL (`batch:64` on a counting
    /// in-memory store).
    pub wal: bool,
    /// Serve through a `ShardedIndex` instead of one index.
    pub sharded: bool,
}

/// `pubsub_settled` and `serve_flood`: events only, as in the paper's
/// pub/sub traffic.
const EVENTS: &[Slot] = &[E];
/// `drift_churn`: seven queries and three logged mutations in ten.
const CHURN: &[Slot] = &[E, E, U, E, E, I, E, E, R, E];

/// Events per `serve_flood` round: four times the serving tier's
/// default queue capacity, so that for most of a round the queues are
/// full and every `submit` waits for room.
const ROUND_EVENTS_FLOOD: usize = 4 * acx_serve::DEFAULT_QUEUE_CAP;

pub const NAMES: [&str; 3] = ["pubsub_settled", "drift_churn", "serve_flood"];

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let spec = match name {
            "pubsub_settled" => Spec {
                name: "pubsub_settled",
                dims: 8,
                objects: 20_000,
                objects_kind: Objects::Apartments,
                events: Events::PointOffers,
                pattern: EVENTS,
                round_repeats: 256,
                warmup_rounds: 16,
                measured_instances: 3,
                wal: false,
                sharded: false,
            },
            "drift_churn" => Spec {
                name: "drift_churn",
                dims: 8,
                objects: 10_000,
                objects_kind: Objects::Uniform(0.5),
                events: Events::Mixed(800),
                pattern: CHURN,
                round_repeats: 25,
                warmup_rounds: 8,
                measured_instances: 1,
                wal: true,
                sharded: false,
            },
            "serve_flood" => Spec {
                name: "serve_flood",
                dims: 8,
                objects: 100_000,
                objects_kind: Objects::Apartments,
                events: Events::RangeOffers(0.05),
                pattern: EVENTS,
                round_repeats: ROUND_EVENTS_FLOOD,
                warmup_rounds: 1,
                measured_instances: 1,
                wal: false,
                sharded: true,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Operations in one round.
    pub fn round_len(&self) -> usize {
        self.pattern.len() * self.round_repeats
    }

    /// A human-readable description of the inputs.
    pub fn describe(&self) -> String {
        let objects = match self.objects_kind {
            Objects::Apartments => "apartment subscriptions".to_string(),
            Objects::Uniform(l) => format!("uniform rectangles (interval length <= {l})"),
        };
        let events = match self.events {
            Events::PointOffers => "point offers".to_string(),
            Events::RangeOffers(f) => format!("range offers (half-width {f})"),
            Events::Mixed(p) => format!("mixed four-kind queries (hotspot moves every {p})"),
        };
        let mutations = self.pattern.iter().filter(|&&s| s != E).count() * self.round_repeats;
        format!(
            "{} {}-d {objects}; {events}; round = {} operations, {mutations} of them \
             mutations; warm-up = {} rounds",
            self.objects,
            self.dims,
            self.round_len(),
            self.warmup_rounds
        )
    }
}

/// Live subscription ids, for drawing mutation targets.
#[derive(Debug, Clone)]
struct LiveIds {
    ids: Vec<u32>,
    pos: Vec<u32>,
    next: u32,
}

impl LiveIds {
    fn new(n: u32) -> Self {
        Self {
            ids: (0..n).collect(),
            pos: (0..n).collect(),
            next: n,
        }
    }

    fn pick(&self, rng: &mut StdRng) -> u32 {
        self.ids[rng.gen_range(0..self.ids.len())]
    }

    fn add(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        self.pos.push(self.ids.len() as u32);
        self.ids.push(id);
        id
    }

    fn remove(&mut self, id: u32) {
        let p = self.pos[id as usize] as usize;
        self.ids.swap_remove(p);
        if let Some(&moved) = self.ids.get(p) {
            self.pos[moved as usize] = p as u32;
        }
    }
}

enum EventSource {
    Stream(EventStream),
    Mixed(MixedTraffic),
}

/// Deterministic generator of a workload's inputs.
pub struct Source {
    spec: Spec,
    objects: ObjectSource,
    events: EventSource,
    rng: StdRng,
    live: LiveIds,
}

enum ObjectSource {
    Apartments(PubSubGenerator),
    Uniform(UniformWorkload),
}

impl Source {
    pub fn new(spec: &Spec, seed: u64) -> Source {
        let config = WorkloadConfig::new(spec.dims, spec.objects, seed);
        let objects = match spec.objects_kind {
            Objects::Apartments => ObjectSource::Apartments(PubSubGenerator::apartments()),
            Objects::Uniform(len) => {
                ObjectSource::Uniform(UniformWorkload::with_max_length(config.clone(), len))
            }
        };
        let event_seed = seed ^ 0x00E7_E575_0000_0001;
        let events = match spec.events {
            Events::PointOffers => {
                EventSource::Stream(EventStream::new(PubSubGenerator::apartments(), event_seed))
            }
            Events::RangeOffers(f) => EventSource::Stream(EventStream::with_flexibility(
                PubSubGenerator::apartments(),
                event_seed,
                f,
            )),
            Events::Mixed(period) => EventSource::Mixed(MixedTraffic::new(
                &WorkloadConfig::new(spec.dims, spec.objects, event_seed),
                period,
                0.35,
                0.08,
            )),
        };
        Source {
            spec: spec.clone(),
            objects,
            events,
            rng: StdRng::seed_from_u64(seed),
            live: LiveIds::new(spec.objects as u32),
        }
    }

    fn object(&mut self, id: u32) -> HyperRect {
        match &self.objects {
            ObjectSource::Apartments(g) => g.subscription(id, &mut self.rng).ranges,
            ObjectSource::Uniform(w) => w.sample_object(&mut self.rng),
        }
    }

    /// The subscriptions loaded at set-up, ids `0..objects`.
    pub fn initial(&mut self) -> Vec<HyperRect> {
        (0..self.spec.objects as u32)
            .map(|i| self.object(i))
            .collect()
    }

    /// The next round of operations.
    pub fn round(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(self.spec.round_len());
        for _ in 0..self.spec.round_repeats {
            for &slot in self.spec.pattern {
                let op = match slot {
                    Slot::Event => Op::Event(match &mut self.events {
                        EventSource::Stream(s) => s.next_query(),
                        EventSource::Mixed(m) => m.next_query(),
                    }),
                    Slot::Update => {
                        let id = self.live.pick(&mut self.rng);
                        Op::Update(id, self.object(id))
                    }
                    Slot::Insert => {
                        let id = self.live.add();
                        Op::Insert(id, self.object(id))
                    }
                    Slot::Remove => {
                        let id = self.live.pick(&mut self.rng);
                        self.live.remove(id);
                        Op::Remove(id)
                    }
                };
                ops.push(op);
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for name in NAMES {
            let spec = Spec::named(name).unwrap();
            let (mut a, mut b) = (Source::new(&spec, 5), Source::new(&spec, 5));
            assert_eq!(format!("{:?}", a.round()), format!("{:?}", b.round()));
            let mut c = Source::new(&spec, 6);
            assert_ne!(format!("{:?}", a.round()), format!("{:?}", c.round()));
        }
    }

    #[test]
    fn mutations_target_live_ids() {
        let spec = Spec::named("drift_churn").unwrap();
        let mut src = Source::new(&spec, 1);
        let mut live: std::collections::BTreeSet<u32> = (0..spec.objects as u32).collect();
        for _ in 0..20 {
            let round = src.round();
            assert_eq!(round.len(), spec.round_len());
            for op in round {
                match op {
                    Op::Event(_) => {}
                    Op::Insert(id, _) => assert!(live.insert(id)),
                    Op::Update(id, _) => assert!(live.contains(&id)),
                    Op::Remove(id) => assert!(live.remove(&id)),
                }
            }
        }
        assert_eq!(live.len(), spec.objects);
    }
}

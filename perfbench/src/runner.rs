//! The skeleton both runners share: set-ups from their own seeds, whole
//! rounds until the budget is spent, end-of-run checks, the untraced
//! run's end-to-end metrics, and the opening of the traced run.

use acx_storage::AccessStats;

use crate::common::{peak_rss_mb, Checks, Clustering, Metrics, Timing};
use crate::stats::{median_f64, percentile, samples_beyond};
use crate::store::WalTally;
use crate::trace::{self, Span};
use crate::workload::{Op, Spec};
use crate::Args;

/// Input instances set up per untraced run, each from its own seed
/// (`instance_seed`); `setup_s` is the median of their set-ups. The
/// first `Spec::measured_instances` of them are measured, each for an
/// equal share of the run, and their samples pooled: on
/// `pubsub_settled` that averages out how much one instance's
/// clustering happens to cost (about 12 % between two seeds), while on
/// the workloads that never settle a short measured phase would sit in
/// the adaptation transient.
pub const INSTANCES: u64 = 3;

/// The seed of instance `k` of a run with seed `seed`: distinct for
/// every (seed, k) pair.
pub fn instance_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(INSTANCES).wrapping_add(k)
}

/// A measured phase: the timing every runner keeps, and what a runner
/// records beside it (`X`).
#[derive(Debug, Default)]
pub struct Sample<X> {
    pub t: Timing,
    pub x: X,
}

/// One loaded, warmed-up system under test with its brute-force model
/// and input source.
pub trait Runner: Sized {
    /// What a traced round records beside the timing.
    type Extra: Default;

    /// Loads the subscriptions of the instance made from `seed` and runs
    /// the warm-up. Generating the inputs is not timed; loading and
    /// warm-up are.
    fn set_up(spec: &Spec, seed: u64, checks: &mut Checks) -> Self;

    /// Load plus warm-up time, ns.
    fn setup_ns(&self) -> u64;

    /// The next round of operations from the instance's source.
    fn next_round(&mut self) -> Vec<Op>;

    /// Executes one round, then checks it against the model outside the
    /// timed region.
    fn run_round(
        &mut self,
        ops: &[Op],
        s: &mut Sample<Self::Extra>,
        traced: bool,
        checks: &mut Checks,
    );

    /// End-of-run checks: invariants, size, and what else the runner's
    /// workload promises.
    fn final_checks(&mut self, checks: &mut Checks);

    /// The clustering the system is in.
    fn clustering(&self) -> Clustering;

    /// Called just before (`true`) and after (`false`) the traced phase.
    fn trace_window(&mut self, _open: bool) {}
}

/// Runs whole rounds until `budget_ns` of execution is measured, or
/// exactly `rounds` rounds when given.
pub fn measure<R: Runner>(
    live: &mut R,
    budget_ns: u64,
    rounds: Option<u64>,
    traced: bool,
    checks: &mut Checks,
) -> Sample<R::Extra> {
    let mut s = Sample::default();
    loop {
        let ops = live.next_round();
        live.run_round(&ops, &mut s, traced, checks);
        let done = match rounds {
            Some(n) => s.t.rounds >= n,
            None => s.t.busy_ns >= budget_ns,
        };
        if done {
            return s;
        }
    }
}

/// The untraced run: `INSTANCES` set-ups from their own seeds; the first
/// `measured_instances` are measured for an equal share of
/// `args.seconds`; every one is checked.
pub fn run<R: Runner>(spec: &Spec, args: &Args, checks: &mut Checks) -> Metrics {
    let mut setups = Vec::new();
    let mut total = Timing::default();
    let mut rss_mb = 0.0;
    for k in 0..INSTANCES {
        let mut live = R::set_up(spec, instance_seed(args.seed, k), checks);
        setups.push(live.setup_ns() as f64 / 1e9);
        if k < spec.measured_instances {
            let budget = args.seconds * 1_000_000_000 / spec.measured_instances;
            let s = measure(&mut live, budget, None, false, checks);
            // After the first measured phase, in a process that has held
            // one instance only, and before the end-of-run checks: their
            // copies (the recovered index above all) are not part of the
            // served workload.
            if k == 0 {
                rss_mb = peak_rss_mb();
            }
            println!(
                "{} instance {k}: {} rounds, {} events, {} mutations, {} clusters",
                spec.name,
                s.t.rounds,
                s.t.event_ns.len(),
                s.t.mutation_ns.len(),
                live.clustering().clusters
            );
            total.absorb(s.t);
        }
        live.final_checks(checks);
    }
    end_to_end(&setups, &total, rss_mb, checks)
}

/// The end-to-end metrics of an untraced run; `setup_s` is the median
/// of the set-up times `setups` (seconds). The tail percentile is p99.5:
/// a reorganization pass delays one event in 100 on every workload (up
/// to two on the two-shard tier), so p99.5 lies inside those delays, away from both
/// of their edges; p99.9 sits at their top, where a handful of host
/// stalls decide it. A p99.5 backed by fewer than ten samples beyond it
/// fails the run.
fn end_to_end(setups: &[f64], t: &Timing, rss_mb: f64, checks: &mut Checks) -> Metrics {
    let mut events = t.event_ns.clone();
    events.sort_unstable();
    let beyond = samples_beyond(&events, 99.5);
    println!(
        "samples: {} events ({beyond} beyond p99.5), {} mutations; set-ups {setups:.3?} s",
        events.len(),
        t.mutation_ns.len(),
    );
    let tail: Vec<String> = [50.0, 90.0, 99.0, 99.5, 99.8, 99.9, 100.0]
        .iter()
        .map(|&p| format!("p{p} {:.0}", percentile(&events, p) as f64 / 1e3))
        .collect();
    println!("event latency, us: {}", tail.join(", "));
    if beyond < 10 {
        checks.fail(format!(
            "only {beyond} samples beyond p99.5; the run is too short for its tail"
        ));
    }
    let us = |v: u64| v as f64 / 1e3;
    let mut m = Metrics::default();
    m.put("setup_s", median_f64(setups), "s");
    m.put(
        "ops_per_s",
        t.ops as f64 / (t.busy_ns.max(1) as f64 / 1e9),
        "1/s",
    );
    m.put("event_p50_us", us(percentile(&events, 50.0)), "us");
    m.put("event_p995_us", us(percentile(&events, 99.5)), "us");
    m.put("peak_rss_mb", rss_mb, "MB");
    m
}

/// The traced phase of a traced run and what it is compared with.
pub struct Traced<R: Runner> {
    /// The untraced half.
    pub plain: Timing,
    /// The traced instance, not yet given its end-of-run checks.
    pub live: R,
    pub s: Sample<R::Extra>,
    pub spans: Vec<Span>,
    /// Clustering at the start and the end of the traced phase.
    pub before: Clustering,
    pub after: Clustering,
}

/// The traced run's measurement: half the time untraced, then the same
/// number of rounds traced on a fresh set-up of the same instance. Both
/// halves must end in the same clustering.
pub fn run_traced<R: Runner>(spec: &Spec, args: &Args, checks: &mut Checks) -> Traced<R> {
    let budget = args.seconds * 1_000_000_000 / 2;
    let seed = instance_seed(args.seed, 0);
    let mut plain = R::set_up(spec, seed, checks);
    let p = measure(&mut plain, budget, None, false, checks);
    let plain_clustering = plain.clustering();
    drop(plain);

    let mut live = R::set_up(spec, seed, checks);
    let before = live.clustering();
    live.trace_window(true);
    trace::install();
    let s = measure(&mut live, 0, Some(p.t.rounds), true, checks);
    let spans = trace::take();
    live.trace_window(false);
    let after = live.clustering();
    if after != plain_clustering {
        checks.fail(format!(
            "traced run ended in {after:?}, untraced run in {plain_clustering:?}"
        ));
    }
    crate::write_spans(spec, args, &spans);
    Traced {
        plain: p.t,
        live,
        s,
        spans,
        before,
        after,
    }
}

/// Read-phase metrics: the median read time and, per event, the work
/// the `acx_geom` kernels did (`events` is how many events `access` and
/// `matches` cover).
pub fn put_read(m: &mut Metrics, read_ns: &[u64], access: &AccessStats, matches: u64, events: u64) {
    let events = events.max(1) as f64;
    m.put(
        "core.read_us_p50",
        percentile(read_ns, 50.0) as f64 / 1e3,
        "us",
    );
    m.put(
        "core.signature_checks_per_event",
        access.signature_checks as f64 / events,
        "count",
    );
    m.put(
        "core.clusters_explored_per_event",
        access.clusters_explored as f64 / events,
        "count",
    );
    m.put(
        "core.objects_verified_per_event",
        access.objects_verified as f64 / events,
        "count",
    );
    m.put(
        "core.matches_per_verified",
        matches as f64 / access.objects_verified.max(1) as f64,
        "ratio",
    );
}

/// Reorganization metrics: pass count, p50, max and mean pass time, and
/// the share of the measured time spent in passes.
pub fn put_reorg(
    m: &mut Metrics,
    passes: u64,
    p50_ns: u64,
    max_ns: u64,
    total_ns: u64,
    busy_ns: u64,
) {
    m.put("core.reorg_passes", passes as f64, "count");
    m.put("core.reorg_pass_ms_p50", p50_ns as f64 / 1e6, "ms");
    m.put("core.reorg_pass_ms_max", max_ns as f64 / 1e6, "ms");
    m.put(
        "core.reorg_pass_ms_mean",
        total_ns as f64 / 1e6 / passes.max(1) as f64,
        "ms",
    );
    m.put(
        "core.reorg_share",
        total_ns as f64 / busy_ns.max(1) as f64,
        "share",
    );
}

/// Splits and merges during the measured phase, clusters at its end.
pub fn put_clustering(m: &mut Metrics, before: Clustering, after: Clustering) {
    m.put(
        "core.splits",
        (after.splits - before.splits) as f64,
        "count",
    );
    m.put(
        "core.merges",
        (after.merges - before.merges) as f64,
        "count",
    );
    m.put("core.clusters", after.clusters as f64, "count");
}

/// WAL metrics of the measured phase (zero for unlogged workloads).
pub fn put_wal(m: &mut Metrics, wal: WalTally, mutations: u64, recover_ns: u64) {
    m.put("storage.wal_records", wal.appends as f64, "count");
    m.put(
        "storage.wal_bytes_per_mutation",
        wal.bytes as f64 / mutations.max(1) as f64,
        "B",
    );
    m.put("storage.wal_flushes", wal.flushes as f64, "count");
    m.put("storage.backing_us_total", wal.busy_ns as f64 / 1e3, "us");
    m.put("storage.recover_ms", recover_ns as f64 / 1e6, "ms");
}

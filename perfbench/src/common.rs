//! What both runners share: the tally of checks, the clustering
//! fingerprint, the metric list and the final report.

use acx_core::AdaptiveClusterIndex;
use acx_geom::{ObjectId, SpatialQuery};

use crate::model::{sorted_ids, Model};
use crate::workload::Op;

/// Operations attempted and failed, and every correctness check that
/// did not hold.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, problem: String) {
        // Keep the report readable when a fault repeats on every round.
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Replays one executed round against the brute-force model:
    /// events must answer exactly what the model selects at that point,
    /// and every mutation must have succeeded (a failed one is counted
    /// and left out of the model, as it is out of the index). A run of
    /// events between mutations sees one state of the model and is
    /// answered in one batch.
    pub fn verify_round(
        &mut self,
        model: &mut Model,
        ops: &[Op],
        answers: &[Vec<ObjectId>],
        applied: &[bool],
    ) {
        let (mut answers, mut applied) = (answers.iter(), applied.iter());
        let mut rest = ops;
        while let Some(op) = rest.first() {
            let events: Vec<&SpatialQuery> = rest
                .iter()
                .map_while(|op| match op {
                    Op::Event(q) => Some(q),
                    _ => None,
                })
                .collect();
            if !events.is_empty() {
                rest = &rest[events.len()..];
                for (q, want) in events.iter().zip(model.answer_all(&events)) {
                    self.attempted += 1;
                    let got = sorted_ids(answers.next().expect("one answer per event"));
                    if got != want {
                        self.fail(mismatch(q, &got, &want));
                    }
                }
                continue;
            }
            rest = &rest[1..];
            self.attempted += 1;
            if !applied.next().expect("one outcome per mutation") {
                self.failed += 1;
                continue;
            }
            let consistent = match op {
                Op::Insert(id, rect) => model.insert(*id, rect),
                Op::Update(id, rect) => model.update(*id, rect),
                Op::Remove(id) => model.remove(*id),
                Op::Event(_) => unreachable!("events handled above"),
            };
            if !consistent {
                self.fail(format!(
                    "the index accepted {op:?}, which the model rejects"
                ));
            }
        }
    }
}

fn mismatch(q: &SpatialQuery, got: &[u32], want: &[u32]) -> String {
    format!(
        "answer mismatch on {q:?}: index returned {} ids, brute force {} (first differing: {:?})",
        got.len(),
        want.len(),
        got.iter().zip(want).find(|(a, b)| a != b)
    )
}

/// The clustering an index ended in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Clustering {
    pub clusters: usize,
    pub splits: u64,
    pub merges: u64,
}

impl Clustering {
    pub fn of(index: &AdaptiveClusterIndex) -> Self {
        Self {
            clusters: index.cluster_count(),
            splits: index.total_splits(),
            merges: index.total_merges(),
        }
    }

    pub fn add(self, other: Clustering) -> Self {
        Self {
            clusters: self.clusters + other.clusters,
            splits: self.splits + other.splits,
            merges: self.merges + other.merges,
        }
    }
}

/// Checks the index's own invariants and that it holds as many objects
/// as the model.
pub fn check_index(checks: &mut Checks, label: &str, index: &AdaptiveClusterIndex, live: usize) {
    if let Err(e) = index.check_invariants() {
        checks.fail(format!("{label}: check_invariants failed: {e}"));
    }
    if index.len() != live {
        checks.fail(format!(
            "{label}: len() is {} but the model holds {live}",
            index.len()
        ));
    }
}

/// Latency samples and execution time of a measured phase, in whole
/// rounds.
#[derive(Debug, Default)]
pub struct Timing {
    pub rounds: u64,
    pub ops: u64,
    pub busy_ns: u64,
    pub event_ns: Vec<u64>,
    pub mutation_ns: Vec<u64>,
}

impl Timing {
    pub fn end_round(&mut self, ops: usize, busy_ns: u64) {
        self.rounds += 1;
        self.ops += ops as u64;
        self.busy_ns += busy_ns;
    }

    /// Adds another phase's samples and time to this one.
    pub fn absorb(&mut self, other: Timing) {
        self.rounds += other.rounds;
        self.ops += other.ops;
        self.busy_ns += other.busy_ns;
        self.event_ns.extend(other.event_ns);
        self.mutation_ns.extend(other.mutation_ns);
    }

    /// Execution time per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.busy_ns as f64 / self.ops.max(1) as f64
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|m| m.name != name), "{name} twice");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints the checks, every metric with its unit, and, as the last
/// line, the JSON result.
pub fn report(checks: &Checks, metrics: &Metrics) {
    for p in &checks.problems {
        println!("CHECK FAILED: {p}");
    }
    println!(
        "operations: attempted {}, failed {}; checks {}",
        checks.attempted,
        checks.failed,
        if checks.correct() { "passed" } else { "FAILED" }
    );
    for m in &metrics.0 {
        println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

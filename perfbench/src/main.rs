//! The acx benchmark: one workload per process, end-to-end metrics from
//! an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <pubsub_settled|drift_churn|serve_flood>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --reference --seed <n> --seconds <s>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See README.md for the workloads, metrics and checks.

mod common;
mod index_run;
mod model;
mod reference;
mod runner;
mod serve_run;
mod stats;
mod store;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{report, Checks, Metrics, Timing};
use trace::{Layer, Span};
use workload::{Spec, NAMES};

/// Parsed command line.
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    reference: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        reference: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--reference" {
            args.reference = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.reference {
        reference::run(&args);
        return ExitCode::SUCCESS;
    }
    let Some(spec) = args.workload.as_deref().and_then(Spec::named) else {
        eprintln!("perfbench: --workload must be one of {}", NAMES.join(", "));
        return ExitCode::from(2);
    };
    println!(
        "workload {} seed {} seconds {} trace {} | {} | host: {} cores, default features",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.describe(),
        serve_run::shards(),
    );
    let mut checks = Checks::default();
    let metrics = match (spec.sharded, args.trace) {
        (false, false) => runner::run::<index_run::Live>(&spec, &args, &mut checks),
        (false, true) => index_run::run_traced(&spec, &args, &mut checks),
        (true, false) => runner::run::<serve_run::Live>(&spec, &args, &mut checks),
        (true, true) => serve_run::run_traced(&spec, &args, &mut checks),
    };
    report(&checks, &metrics);
    if checks.correct() && checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Zero for the serving-tier metrics on the single-index workloads.
pub fn put_serve_absent(m: &mut Metrics) {
    for (name, unit) in [
        ("serve.submit_us_p50", "us"),
        ("serve.submit_stall_share", "share"),
        ("serve.reorg_stall_share", "share"),
        ("serve.queue_depth_p50", "count"),
        ("serve.drain_ms", "ms"),
    ] {
        m.put(name, 0.0, unit);
    }
}

/// Layer self times per operation, their sum against the traced time,
/// and the tracing overhead: the traced phase's time per operation
/// against the untraced phase's (`plain_ns_per_op`).
pub fn put_trace(m: &mut Metrics, spans: &[Span], t: &Timing, plain_ns_per_op: f64) {
    let (ops_f, busy_ns) = (t.ops.max(1) as f64, t.busy_ns);
    let self_ns = trace::self_times(spans);
    let roots: u64 = spans
        .iter()
        .filter(|s| s.parent == trace::ROOT)
        .map(Span::duration)
        .sum();
    let layered: u64 = self_ns.iter().sum();
    let per_op = |ns: u64| ns as f64 / 1e3 / ops_f;
    let traced_ns_per_op = busy_ns as f64 / ops_f;
    let remainder = busy_ns.saturating_sub(roots) + self_ns[0];
    println!(
        "layer sums per operation: traced {:.3} us = {} + remainder {:.3} us \
         (outside any layer: {:.3} us; between operations: {:.3} us)",
        traced_ns_per_op / 1e3,
        Layer::ALL[1..]
            .iter()
            .zip(&self_ns[1..])
            .filter(|(_, &ns)| ns > 0)
            .map(|(l, &ns)| format!("{} {:.3}", l.name(), per_op(ns)))
            .collect::<Vec<_>>()
            .join(" + "),
        per_op(remainder),
        per_op(self_ns[0]),
        per_op(busy_ns.saturating_sub(roots)),
    );
    debug_assert_eq!(layered, roots);
    for (l, &ns) in Layer::ALL.iter().zip(&self_ns) {
        m.put(&format!("self.{}_us_per_op", l.name()), per_op(ns), "us");
    }
    m.put("trace.op_us", traced_ns_per_op / 1e3, "us");
    m.put("trace.untraced_op_us", plain_ns_per_op / 1e3, "us");
    m.put(
        "trace.remainder_share",
        remainder as f64 / busy_ns.max(1) as f64,
        "share",
    );
    m.put(
        "trace.overhead_share",
        traced_ns_per_op / plain_ns_per_op.max(1.0) - 1.0,
        "share",
    );
}

/// Writes the spans of a traced run under `perfbench/out/`.
pub fn write_spans(spec: &Spec, args: &Args, spans: &[Span]) {
    let path = PathBuf::from("perfbench")
        .join("out")
        .join(format!("trace-{}-seed{}.tsv", spec.name, args.seed));
    match trace::write_tsv(spans, &path) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_run_flags() {
        let a = parse(argv(
            "--workload drift_churn --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("drift_churn"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.reference),
            (7, 12, true, false)
        );
        assert!(parse(argv("--trace 2")).is_err());
        assert!(parse(argv("--seed x")).is_err());
        assert!(parse(argv("--seed")).is_err());
        assert!(parse(argv("--bogus 1")).is_err());
    }
}

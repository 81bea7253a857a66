//! One benchmark for the eblocks stack.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload from a seed for about `--seconds` seconds of
//! measured work, checks every output with checks written apart from the
//! program, and prints one JSON line last:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run records spans around the calls into each layer and prints the
//! per-layer metrics instead. See `README.md` beside this file.

mod check;
mod fleet_grid;
mod hostspeed;
mod paredown_random;
mod serve_batch;
mod stats;
mod synth_library;
mod tracer;

use hostspeed::Paired;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::Tracer;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Times are normalized to the reference host speed (see [`hostspeed`]).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s_norm", "1/s"),
    ("op_ms_p50_norm", "ms"),
    ("op_ms_p90_norm", "ms"),
    ("op_ms_geomean_norm", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload does not call reads 0. Times are per operation unless the
/// name says otherwise; counts are per pass over the workload's inputs.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("core.parse_ms", "ms"),
    ("gen.corpus_ms", "ms"),
    ("gen.design_ms", "ms"),
    ("synth.partition_ms", "ms"),
    ("synth.merge_ms", "ms"),
    ("synth.rewrite_ms", "ms"),
    ("synth.verify_ms", "ms"),
    ("synth.emit_ms", "ms"),
    ("synth.stage_coverage_pct", "%"),
    ("sim.build_ms", "ms"),
    ("sim.run_original_ms", "ms"),
    ("sim.run_synth_ms", "ms"),
    ("sim.packets", "count"),
    ("sim.stimulus_edges", "count"),
    ("verify.samples", "count"),
    ("codegen.c_bytes", "B"),
    ("codegen.code_words", "words"),
    ("partition.ms_small", "ms"),
    ("partition.ms_medium", "ms"),
    ("partition.ms_large", "ms"),
    ("partition.candidates", "count"),
    ("partition.removals", "count"),
    ("partition.blocks_after", "blocks"),
    ("partition.gap_blocks", "blocks"),
    ("net.build_ms", "ms"),
    ("net.run_ms", "ms"),
    ("net.report_json_ms", "ms"),
    ("net.events", "count"),
    ("net.packets_delivered", "count"),
    ("net.link_wait_ticks", "ticks"),
    ("lint.ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("farm.work_ms", "ms"),
    ("serve.reply_ms", "ms"),
    ("serve.reply_bytes", "B"),
    ("farm.retries", "count"),
    ("self.bench_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.gen_ms", "ms"),
    ("self.synth_ms", "ms"),
    ("self.sim_ms", "ms"),
    ("self.partition_ms", "ms"),
    ("self.net_ms", "ms"),
    ("self.lint_ms", "ms"),
    ("self.serve_ms", "ms"),
    ("self.farm_ms", "ms"),
    ("wall.setup_s", "s"),
    ("wall.ops_per_s", "1/s"),
    ("wall.op_ms_p50", "ms"),
    ("wall.op_ms_p90", "ms"),
    ("wall.op_ms_geomean", "ms"),
    ("host.ref_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Span layers and the metric that reports each one's self time.
const SELF_LAYERS: [(&str, &str); 10] = [
    ("bench", "self.bench_ms"),
    ("core", "self.core_ms"),
    ("gen", "self.gen_ms"),
    ("synth", "self.synth_ms"),
    ("sim", "self.sim_ms"),
    ("partition", "self.partition_ms"),
    ("net", "self.net_ms"),
    ("lint", "self.lint_ms"),
    ("serve", "self.serve_ms"),
    ("farm", "self.farm_ms"),
];

/// Validated command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "synth-library",
    "paredown-random",
    "fleet-grid",
    "serve-batch",
];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Operation and check accounting shared by every workload.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed.
    pub correct: bool,
}

impl Tally {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Counts one operation; an error counts as failed and is reported.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {what}: {e}");
                None
            }
        }
    }

    /// Counts one output check; a failure makes the run incorrect.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.correct = false;
            eprintln!("check failed: {what}: {e}");
        }
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// The measured rounds the metrics come from.
    pub measured: Measured,
    /// Operations in one round: the designs of a pass over a corpus, the
    /// node-ticks of one fleet run, or the requests of one pass over the
    /// request mix.
    pub ops_per_round: f64,
    /// Peak resident memory after a fixed amount of work.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// One measured round in progress: records each operation's wall time
/// with the reference time taken right after it, and keeps the reference
/// time (and whatever else the workload names) out of the round's time.
pub struct Round<'a> {
    items: &'a mut [Paired],
    ref_reps: usize,
    excluded: Duration,
    reference_ms: Vec<f64>,
    ops: usize,
}

impl Round<'_> {
    /// Records one operation on `item` that took `ms` of wall time, then
    /// times the reference loop beside it.
    pub fn op(&mut self, item: usize, ms: f64) {
        let start = Instant::now();
        let reference = hostspeed::reference_ms(self.ops as u64, self.ref_reps);
        self.excluded += start.elapsed();
        self.items[item].push(ms, reference);
        self.reference_ms.push(reference);
        self.ops += 1;
    }

    /// Leaves `time` spent in the round on other work out of its time.
    pub fn exclude(&mut self, time: Duration) {
        self.excluded += time;
    }
}

/// A workload's measured loop, run by [`measure`].
pub trait Workload {
    fn tracer(&mut self) -> &mut Tracer;
    /// Items of a round: designs, the fleet, or the requests of the mix.
    fn items(&self) -> usize;
    /// Rounds always run after the warm-up, however short the run.
    fn min_rounds(&self) -> usize;
    /// Passes of the reference loop timed after each operation; a long
    /// operation gets several, so the pairing is not left to one sample.
    fn ref_reps(&self) -> usize {
        1
    }
    /// Runs one round; `index` varies the seeded order.
    fn round(&mut self, index: u64, round: &mut Round) -> Result<(), String>;
    /// One repetition of the workload's set-up; returns its timed seconds.
    fn setup(&mut self) -> Result<f64, String>;
}

/// What the measured rounds of a run recorded.
pub struct Measured {
    /// Per item, the operations of untraced rounds.
    pub plain: Vec<Paired>,
    /// Per item, the operations of traced rounds (traced runs only).
    pub traced: Vec<Paired>,
    /// Seconds of each untraced round, with the mean reference time in it.
    pub round_s: Paired,
    /// Seconds of each set-up repetition, one after every round.
    pub setup_s: Paired,
    /// Operations in traced rounds.
    pub traced_ops: usize,
}

/// Runs a warm-up round, then whole rounds until `args.seconds` have
/// passed and at least the workload's minimum has run, with one set-up
/// repetition after each. In a traced run every second round is traced, so
/// traced and untraced rounds see the same host conditions.
pub fn measure(w: &mut impl Workload, args: &Args) -> Result<Measured, String> {
    let n = w.items();
    let ref_reps = w.ref_reps();
    let mut plain = vec![Paired::default(); n];
    let mut traced = vec![Paired::default(); n];
    let (mut round_s, mut setup_s) = (Paired::default(), Paired::default());
    let mut traced_ops = 0;
    w.tracer().set_enabled(false);
    let mut warm_up = vec![Paired::default(); n];
    w.round(0, &mut new_round(&mut warm_up, ref_reps))?;

    let start = Instant::now();
    let mut index = 1;
    while (index as usize) <= w.min_rounds() || start.elapsed().as_secs_f64() < args.seconds {
        let is_traced = args.trace && index % 2 == 0;
        w.tracer().set_enabled(is_traced);
        let items = if is_traced { &mut traced } else { &mut plain };
        let mut round = new_round(items, ref_reps);
        let round_start = Instant::now();
        w.round(index, &mut round)?;
        let seconds = (round_start.elapsed().saturating_sub(round.excluded)).as_secs_f64();
        if is_traced {
            traced_ops += round.ops;
        } else {
            round_s.push(seconds, stats::mean(&round.reference_ms));
        }
        let seconds = w.setup()?;
        setup_s.push(seconds, hostspeed::reference_ms(index, ref_reps));
        w.tracer().set_enabled(false);
        index += 1;
    }
    Ok(Measured {
        plain,
        traced,
        round_s,
        setup_s,
        traced_ops,
    })
}

fn new_round(items: &mut [Paired], ref_reps: usize) -> Round<'_> {
    Round {
        items,
        ref_reps,
        excluded: Duration::ZERO,
        reference_ms: Vec::new(),
        ops: 0,
    }
}

/// A path under `.stackbench/` in the working directory, where a run keeps
/// its scratch files (spans, the daemon's spool and socket).
pub fn scratch_file(name: &str) -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(".stackbench");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.join(name))
}

/// Writes a traced run's spans to `.stackbench/spans-<workload>-<seed>.jsonl`.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    let path = scratch_file(&format!("spans-{workload}-{seed}.jsonl"))?;
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer metrics every traced run shares: each layer's self time per
/// traced operation, the untraced rounds' wall times as measured, the
/// reference loop's time, and the tracing overhead.
pub fn common_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    tracer: &Tracer,
    measured: &Measured,
    ops_per_round: f64,
) {
    let by_layer = tracer::self_ms_by_layer(tracer.spans());
    for (layer, name) in SELF_LAYERS {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        layers.insert(name, ms / measured.traced_ops.max(1) as f64);
    }
    let items: Vec<f64> = measured.plain.iter().map(Paired::wall).collect();
    layers.insert("wall.setup_s", measured.setup_s.wall());
    layers.insert("wall.ops_per_s", ops_per_round / measured.round_s.wall());
    layers.insert("wall.op_ms_p50", stats::quantile(&items, 0.5));
    layers.insert("wall.op_ms_p90", stats::quantile(&items, 0.9));
    layers.insert("wall.op_ms_geomean", stats::geomean(&items));
    let references: Vec<f64> = measured
        .plain
        .iter()
        .chain(&measured.traced)
        .flat_map(|p| p.reference().iter().copied())
        .collect();
    layers.insert("host.ref_ms", stats::median(&references));
    layers.insert("trace.overhead_pct", overhead_pct(measured));
}

/// Tracing overhead in percent: how much slower the traced operations ran
/// than the untraced ones of the same run, by geometric mean of normalized
/// item times.
pub fn overhead_pct(measured: &Measured) -> f64 {
    let geomean = |items: &[Paired]| {
        let times: Vec<f64> = items
            .iter()
            .filter(|p| p.len() > 0)
            .map(Paired::normalized)
            .collect();
        stats::geomean(&times)
    };
    let base = geomean(&measured.plain);
    if base > 0.0 {
        100.0 * (geomean(&measured.traced) / base - 1.0)
    } else {
        0.0
    }
}

fn render(outcome: &Outcome, trace: bool) -> String {
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    };
    if trace {
        for (name, unit) in PER_LAYER {
            push(name, outcome.layers.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        let m = &outcome.measured;
        let items: Vec<f64> = m.plain.iter().map(Paired::normalized).collect();
        let values = [
            m.setup_s.normalized(),
            outcome.peak_rss_mb,
            outcome.ops_per_round / m.round_s.normalized(),
            stats::quantile(&items, 0.5),
            stats::quantile(&items, 0.9),
            stats::geomean(&items),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            push(name, value, unit);
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stackbench: {e}");
            eprintln!(
                "usage: stackbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = hostspeed::pin_to_current_cpu() {
        eprintln!("stackbench: cannot pin to one CPU: {e}");
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "synth-library" => synth_library::run(&args),
        "paredown-random" => paredown_random::run(&args),
        "fleet-grid" => fleet_grid::run(&args),
        "serve-batch" => serve_batch::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    match result {
        Ok(outcome) => {
            println!("{}", render(&outcome, args.trace));
            if outcome.tally.correct && outcome.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stackbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same metrics
    /// with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = serde::json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let items = json.get(key).and_then(|v| v.as_array()).expect(key);
            let field =
                |m: &serde::Value, f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
            items
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    fn paired(times: &[f64]) -> Vec<Paired> {
        times
            .iter()
            .map(|&t| {
                let mut p = Paired::default();
                p.push(t, hostspeed::REF_MS);
                p
            })
            .collect()
    }

    #[test]
    fn overhead_compares_geomeans() {
        let measured = |plain: &[f64], traced: &[f64]| Measured {
            plain: paired(plain),
            traced: paired(traced),
            round_s: Paired::default(),
            setup_s: Paired::default(),
            traced_ops: traced.len(),
        };
        let m = measured(&[1.0, 4.0], &[1.1, 4.4]);
        assert!((overhead_pct(&m) - 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&measured(&[], &[1.0])), 0.0);
    }

    #[test]
    fn tally_counts_failures_and_checks() {
        let mut t = Tally::new();
        assert_eq!(t.op::<u8, String>("ok", Ok(1)), Some(1));
        assert_eq!(t.op::<u8, String>("bad", Err("boom".into())), None);
        t.check("fine", Ok(()));
        assert!(t.correct);
        t.check("wrong", Err("off by one".into()));
        assert_eq!((t.attempted, t.failed, t.correct), (4, 2, false));
    }
}

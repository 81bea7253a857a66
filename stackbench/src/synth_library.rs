//! `synth-library`: the full synthesis pipeline on the committed netlists
//! (the 15 Table-1 designs and the 5 introduction designs), one design at
//! a time, for as many whole passes over the corpus as the run allows.

use crate::check::{self, gray_walk, inner_counts, random_walk, shuffled};
use crate::tracer::{self, Tracer};
use crate::{common_layers, measure, peak_rss_mb, Args, Outcome, Round, Tally, Workload};
use eblocks_core::{netlist::from_netlist, BlockKind, Design};
use eblocks_partition::strategy::PareDown;
use eblocks_partition::{
    exhaustive, pare_down_traced, ExhaustiveOptions, PartitionConstraints, Partitioner, TraceEvent,
};
use eblocks_sim::Simulator;
use eblocks_synth::{exercise_all_sensors, Pipeline, SynthError, SynthesisResult, VerifyOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

const NETLIST_DIR: &str = "netlists";
const CORPUS_SIZE: usize = 20;
/// Passes always run after the warm-up, so every design has a median.
const MIN_PASSES: usize = 3;
/// Above this many sensors the Gray walk (2^k edges) gives way to a
/// seeded random single-sensor walk of `RANDOM_WALK_STEPS` edges.
const GRAY_MAX_SENSORS: usize = 10;
const RANDOM_WALK_STEPS: u64 = 1024;
/// Designs with at most this many inner blocks are also partitioned by the
/// exhaustive search, as in the paper's Table 1.
const EXHAUSTIVE_MAX_INNER: usize = 10;
/// Repetitions of PareDown alone per design in a traced run.
const PAREDOWN_PROBES: usize = 20;
/// Inner-block size classes of `partition.ms_*`: (metric, smallest, largest).
const SIZE_CLASSES: [(&str, usize, usize); 3] = [
    ("partition.ms_small", 0, 13),
    ("partition.ms_medium", 14, 20),
    ("partition.ms_large", 21, usize::MAX),
];

fn read_corpus() -> Result<Vec<(String, String)>, String> {
    let mut files: Vec<_> = std::fs::read_dir(NETLIST_DIR)
        .map_err(|e| format!("cannot read `{NETLIST_DIR}/`: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "netlist"))
        .collect();
    files.sort();
    if files.len() != CORPUS_SIZE {
        return Err(format!(
            "expected {CORPUS_SIZE} netlists in `{NETLIST_DIR}/`, found {}",
            files.len()
        ));
    }
    files
        .iter()
        .map(|p| {
            std::fs::read_to_string(p)
                .map(|text| (p.display().to_string(), text))
                .map_err(|e| format!("cannot read `{}`: {e}", p.display()))
        })
        .collect()
}

/// One design through partition → merge → rewrite → verify → emit, each
/// stage call in its own span under the design's span.
fn synthesize(
    design: &Design,
    tracer: &mut Tracer,
    item: u64,
) -> Result<SynthesisResult, SynthError> {
    let open = tracer.begin("bench.design", item);
    let mut stages = || {
        let p = tracer.span("synth.partition", item, || {
            Pipeline::new(design).partition_with(&PareDown)
        })?;
        let m = tracer.span("synth.merge", item, || p.merge())?;
        let r = tracer.span("synth.rewrite", item, || m.rewrite())?;
        let v = tracer.span("synth.verify", item, || r.verify(VerifyOptions::default()))?;
        Ok(tracer.span("synth.emit", item, || v.emit_c()))
    };
    let result = stages();
    tracer.end(open);
    result
}

/// Work counts of one design, gathered by re-running verify's steps from
/// outside the pipeline after the measured window (traced runs only).
#[derive(Default)]
struct Probe {
    packets: usize,
    edges: usize,
}

fn probe_sim(design: &Design, result: &SynthesisResult, tracer: &mut Tracer, item: u64) -> Probe {
    let spacing = VerifyOptions::default().spacing;
    let programs = result.programs.clone();
    let sims = tracer.span("sim.build", item, || {
        Simulator::new(design)
            .and_then(|o| Simulator::with_programs(&result.synthesized, programs).map(|s| (o, s)))
    });
    let Ok((original, synth)) = sims else {
        return Probe::default();
    };
    let stim = exercise_all_sensors(design, spacing);
    // The horizon `equivalence` uses: two settle periods past the last edge.
    let horizon = stim.end_time().unwrap_or(0) + spacing;
    let a = tracer.span("sim.run_original", item, || original.run(&stim, horizon));
    let b = tracer.span("sim.run_synth", item, || synth.run(&stim, horizon));
    Probe {
        packets: a.map_or(0, |t| t.packet_count()) + b.map_or(0, |t| t.packet_count()),
        edges: stim.events().len(),
    }
}

struct Bench<'a> {
    args: &'a Args,
    texts: Vec<(String, String)>,
    designs: Vec<Design>,
    tracer: Tracer,
    tally: Tally,
    /// The last result of each design, for the checks.
    last: Vec<Option<SynthesisResult>>,
}

impl Workload for Bench<'_> {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn items(&self) -> usize {
        self.texts.len()
    }

    fn min_rounds(&self) -> usize {
        MIN_PASSES
    }

    fn round(&mut self, index: u64, round: &mut Round) -> Result<(), String> {
        for i in shuffled(self.designs.len(), self.args.seed, index) {
            let start = Instant::now();
            let result = synthesize(&self.designs[i], &mut self.tracer, i as u64);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if let Some(result) = self.tally.op(self.designs[i].name(), result) {
                round.op(i, ms);
                self.last[i] = Some(result);
            }
        }
        Ok(())
    }

    /// Set-up: parse the netlist texts.
    fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let tracer = &mut self.tracer;
        let parsed: Vec<_> = self
            .texts
            .iter()
            .enumerate()
            .map(|(i, (_, text))| tracer.span("core.parse", i as u64, || from_netlist(text)))
            .collect();
        let seconds = start.elapsed().as_secs_f64();
        self.designs = self
            .texts
            .iter()
            .zip(parsed)
            .map(|((path, _), design)| design.map_err(|e| format!("{path}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(seconds)
    }
}

/// The exhaustive optimum of every design small enough for it: its
/// partitioning passes the pin-budget checker and PareDown's total is never
/// below it. Returns PareDown's total excess over the optimum.
fn check_against_exhaustive(
    designs: &[Design],
    last: &[Option<SynthesisResult>],
    tally: &mut Tally,
) -> usize {
    let constraints = PartitionConstraints::default();
    let mut gap = 0;
    for (design, result) in designs.iter().zip(last) {
        let Some(result) = result else { continue };
        if inner_counts(design).0 > EXHAUSTIVE_MAX_INNER {
            continue;
        }
        let name = design.name();
        let opt = exhaustive(design, &constraints, ExhaustiveOptions::default());
        tally.check(
            &format!("{name}: exhaustive result within the pin budget"),
            check::check_pin_budget(design, opt.partitions(), 2, 2),
        );
        let opt_total = check::total_after(design, opt.partitions());
        let pd_total = inner_counts(&result.synthesized).0;
        tally.check(
            &format!("{name}: PareDown not below the optimum"),
            check::expect_at_most(opt_total, pd_total),
        );
        gap += pd_total.saturating_sub(opt_total);
    }
    gap
}

/// PareDown alone (`Partitioner::partition`, the paper's 2-in/2-out
/// budget), re-run from outside per design after the measured window: mean
/// time per size class, and the candidate and removal counts of its traced
/// variant over one pass.
fn probe_partition(designs: &[Design], tracer: &mut Tracer, layers: &mut BTreeMap<&str, f64>) {
    let constraints = PartitionConstraints::default();
    let first = tracer.spans().len();
    for _ in 0..PAREDOWN_PROBES {
        for (i, design) in designs.iter().enumerate() {
            tracer.span("partition.pare_down", i as u64, || {
                PareDown.partition(design, &constraints)
            });
        }
    }
    let spans = &tracer.spans()[first..];
    for (metric, lo, hi) in SIZE_CLASSES {
        let times: Vec<f64> = spans
            .iter()
            .filter(|s| (lo..=hi).contains(&inner_counts(&designs[s.item as usize]).0))
            .map(|s| s.ms())
            .collect();
        layers.insert(metric, crate::stats::mean(&times));
    }
    let (mut candidates, mut removals) = (0, 0);
    for design in designs {
        for event in pare_down_traced(design, &constraints).1 {
            match event {
                TraceEvent::CandidateStart { .. } => candidates += 1,
                TraceEvent::Removed { .. } => removals += 1,
                _ => {}
            }
        }
    }
    layers.insert("partition.candidates", candidates as f64);
    layers.insert("partition.removals", removals as f64);
}

fn check_design(design: &Design, result: &SynthesisResult, seed: u64, tally: &mut Tally) {
    let name = design.name();
    let (total, programmable) = inner_counts(&result.synthesized);
    let partitions = result.partitioning.partitions();
    tally.check(
        &format!("{name}: pin budget"),
        check::check_pin_budget(design, partitions, 2, 2),
    );
    tally.check(
        &format!("{name}: block count matches the partitioning"),
        check::expect_eq(
            (total, programmable),
            (check::total_after(design, partitions), partitions.len()),
        ),
    );
    tally.check(&format!("{name}: one C source per programmable block"), {
        let blocks: BTreeSet<&str> = result
            .synthesized
            .blocks()
            .map(|b| result.synthesized.block(b).expect("iterated block"))
            .filter(|b| matches!(b.kind(), BlockKind::Programmable(_)))
            .map(|b| b.name())
            .collect();
        let sources: BTreeSet<&str> = result.c_sources.iter().map(|(n, _)| n.as_str()).collect();
        if blocks == sources
            && sources.len() == result.c_sources.len()
            && result.c_sources.iter().all(|(_, c)| !c.is_empty())
        {
            Ok(())
        } else {
            Err(format!("blocks {blocks:?}, C sources {sources:?}"))
        }
    });
    let options = VerifyOptions::default();
    let stim = if design.sensors().count() <= GRAY_MAX_SENSORS {
        gray_walk(design, options.spacing)
    } else {
        random_walk(design, options.spacing, RANDOM_WALK_STEPS, seed)
    };
    tally.check(
        &format!("{name}: equivalence"),
        check::check_equivalent(
            design,
            &result.synthesized,
            &result.programs,
            &stim,
            options.spacing,
            options.tolerance,
        ),
    );
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let texts = read_corpus()?;
    let n = texts.len();
    let mut bench = Bench {
        args,
        texts,
        designs: Vec::new(),
        tracer: Tracer::new(false),
        tally: Tally::new(),
        last: vec![None; n],
    };
    bench.setup()?;
    let measured = measure(&mut bench, args)?;
    let peak = peak_rss_mb();
    let Bench {
        designs,
        mut tracer,
        mut tally,
        last,
        ..
    } = bench;

    // Checks, outside the measured window.
    let library = eblocks_designs::all();
    let mut table1 = 0;
    for (i, design) in designs.iter().enumerate() {
        let Some(result) = &last[i] else { continue };
        check_design(design, result, args.seed, &mut tally);
        if let Some(lib) = library.iter().find(|l| l.design.name() == design.name()) {
            table1 += 1;
            tally.check(
                &format!("{}: Table 1 PareDown row", lib.name),
                check::expect_eq(inner_counts(&result.synthesized), lib.expected.pare_down),
            );
        }
    }
    tally.check(
        "every Table-1 design present",
        check::expect_eq(table1, library.len()),
    );
    let gap = check_against_exhaustive(&designs, &last, &mut tally);

    let mut layers = BTreeMap::new();
    if args.trace {
        common_layers(&mut layers, &tracer, &measured, n as f64);
        // Verify's steps, re-run once per design from outside.
        tracer.set_enabled(true);
        let probes: Vec<Probe> = designs
            .iter()
            .zip(&last)
            .enumerate()
            .filter_map(|(i, (d, r))| Some(probe_sim(d, r.as_ref()?, &mut tracer, i as u64)))
            .collect();
        let spans = tracer.spans();
        let per_op = |name: &str| tracer::total_ms(spans, name).0 / measured.traced_ops as f64;
        let per_design = |name: &str| tracer::total_ms(spans, name).0 / probes.len() as f64;
        layers.insert("core.parse_ms", tracer::mean_ms(spans, "core.parse"));
        for (metric, span) in [
            ("synth.partition_ms", "synth.partition"),
            ("synth.merge_ms", "synth.merge"),
            ("synth.rewrite_ms", "synth.rewrite"),
            ("synth.verify_ms", "synth.verify"),
            ("synth.emit_ms", "synth.emit"),
        ] {
            layers.insert(metric, per_op(span));
        }
        for (metric, span) in [
            ("sim.build_ms", "sim.build"),
            ("sim.run_original_ms", "sim.run_original"),
            ("sim.run_synth_ms", "sim.run_synth"),
        ] {
            layers.insert(metric, per_design(span));
        }
        let stages: f64 = ["partition", "merge", "rewrite", "verify", "emit"]
            .iter()
            .map(|s| tracer::total_ms(spans, &format!("synth.{s}")).0)
            .sum();
        let designs_ms = tracer::total_ms(spans, "bench.design").0;
        layers.insert("synth.stage_coverage_pct", 100.0 * stages / designs_ms);
        let sum = |f: &dyn Fn(&SynthesisResult) -> usize| -> f64 {
            last.iter().flatten().map(f).sum::<usize>() as f64
        };
        layers.insert(
            "sim.packets",
            probes.iter().map(|p| p.packets).sum::<usize>() as f64,
        );
        layers.insert(
            "sim.stimulus_edges",
            probes.iter().map(|p| p.edges).sum::<usize>() as f64,
        );
        layers.insert(
            "verify.samples",
            sum(&|r| r.report.as_ref().map_or(0, |rep| rep.sample_times.len())),
        );
        layers.insert(
            "codegen.c_bytes",
            sum(&|r| r.c_sources.iter().map(|(_, c)| c.len()).sum()),
        );
        layers.insert(
            "codegen.code_words",
            sum(&|r| r.size_estimates.iter().map(|(_, s)| s.words).sum()),
        );
        layers.insert(
            "partition.blocks_after",
            sum(&|r| inner_counts(&r.synthesized).0),
        );
        layers.insert("partition.gap_blocks", gap as f64);
        probe_partition(&designs, &mut tracer, &mut layers);
        crate::write_spans(&tracer, "synth-library", args.seed)?;
    }

    Ok(Outcome {
        tally,
        measured,
        ops_per_round: n as f64,
        peak_rss_mb: peak,
        layers,
    })
}

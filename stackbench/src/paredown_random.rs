//! `paredown-random`: PareDown alone, through `Partitioner::partition` with
//! the paper's 2-in/2-out budget, on a seeded random corpus with the size
//! mix of the paper's Table 2 (scaled down).

use crate::check::{self, mix, shuffled};
use crate::tracer::{self, Tracer};
use crate::{common_layers, measure, peak_rss_mb, Args, Outcome, Round, Tally, Workload};
use eblocks_bench::TABLE2_COUNTS;
use eblocks_core::Design;
use eblocks_gen::{generate, GeneratorConfig};
use eblocks_partition::strategy::PareDown;
use eblocks_partition::{
    exhaustive, pare_down_traced, ExhaustiveOptions, PartitionConstraints, Partitioner,
    Partitioning, TraceEvent,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Share of the paper's per-size design counts in the corpus.
const SCALE: f64 = 0.1;
const MIN_PASSES: usize = 3;
/// Designs of the corpus also solved exhaustively, drawn by seed from
/// those with at most `EXHAUSTIVE_MAX_INNER` inner blocks.
const EXHAUSTIVE_SUBSET: usize = 40;
const EXHAUSTIVE_MAX_INNER: usize = 10;

/// Size classes of the per-layer timings: (metric, smallest, largest).
const CLASSES: [(&str, usize, usize); 3] = [
    ("partition.ms_small", 3, 13),
    ("partition.ms_medium", 14, 20),
    ("partition.ms_large", 25, 45),
];

/// The seeded corpus: `(inner blocks, design)` in Table 2 order.
fn corpus(seed: u64) -> Vec<(usize, Design)> {
    let mut out = Vec::new();
    for (inner, count) in TABLE2_COUNTS {
        let n = ((count as f64 * SCALE).round() as usize).max(1);
        for j in 0..n {
            let design_seed = mix(&[seed, inner as u64, j as u64]);
            out.push((inner, generate(&GeneratorConfig::new(inner), design_seed)));
        }
    }
    out
}

struct Bench<'a> {
    args: &'a Args,
    corpus: Vec<(usize, Design)>,
    tracer: Tracer,
    tally: Tally,
    last: Vec<Option<Partitioning>>,
}

impl Workload for Bench<'_> {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn items(&self) -> usize {
        self.corpus.len()
    }

    fn min_rounds(&self) -> usize {
        MIN_PASSES
    }

    fn round(&mut self, index: u64, round: &mut Round) -> Result<(), String> {
        let constraints = PartitionConstraints::default();
        for i in shuffled(self.corpus.len(), self.args.seed, index) {
            let design = &self.corpus[i].1;
            let start = Instant::now();
            let open = self.tracer.begin("bench.design", i as u64);
            let result = self.tracer.span("partition.pare_down", i as u64, || {
                PareDown.partition(design, &constraints)
            });
            self.tracer.end(open);
            round.op(i, start.elapsed().as_secs_f64() * 1e3);
            self.tally.attempted += 1;
            self.last[i] = Some(result);
        }
        Ok(())
    }

    /// Set-up: generate the corpus.
    fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let seed = self.args.seed;
        self.corpus = self.tracer.span("gen.corpus", 0, || corpus(seed));
        Ok(start.elapsed().as_secs_f64())
    }
}

/// Exhaustive optimum minus PareDown on a seeded subset of small designs;
/// checks that PareDown never beats the optimum. Returns the summed gap.
fn check_against_exhaustive(
    corpus: &[(usize, Design)],
    last: &[Option<Partitioning>],
    seed: u64,
    tally: &mut Tally,
) -> usize {
    let constraints = PartitionConstraints::default();
    let small: Vec<usize> = (0..corpus.len())
        .filter(|&i| corpus[i].0 <= EXHAUSTIVE_MAX_INNER)
        .collect();
    let mut gap = 0;
    for k in shuffled(small.len(), seed, 7)
        .into_iter()
        .take(EXHAUSTIVE_SUBSET)
    {
        let i = small[k];
        let (Some(pd), design) = (&last[i], &corpus[i].1) else {
            continue;
        };
        let opt = exhaustive(design, &constraints, ExhaustiveOptions::default());
        let pd_total = check::total_after(design, pd.partitions());
        let opt_total = check::total_after(design, opt.partitions());
        tally.check(&format!("design {i}: exhaustive result within budget"), {
            check::check_pin_budget(design, opt.partitions(), 2, 2)
        });
        tally.check(&format!("design {i}: PareDown not below the optimum"), {
            check::expect_at_most(opt_total, pd_total)
        });
        gap += pd_total.saturating_sub(opt_total);
    }
    gap
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut bench = Bench {
        args,
        corpus: Vec::new(),
        tracer: Tracer::new(false),
        tally: Tally::new(),
        last: Vec::new(),
    };
    bench.setup()?;
    let n = bench.corpus.len();
    bench.last = vec![None; n];
    let measured = measure(&mut bench, args)?;
    let peak = peak_rss_mb();
    let Bench {
        corpus: designs,
        tracer,
        mut tally,
        last,
        ..
    } = bench;

    // Checks, outside the measured window.
    let mut blocks_after = 0;
    for (i, (inner, design)) in designs.iter().enumerate() {
        let Some(result) = &last[i] else { continue };
        tally.check(
            &format!("design {i}: pin budget"),
            check::check_pin_budget(design, result.partitions(), 2, 2),
        );
        let total = check::total_after(design, result.partitions());
        blocks_after += total;
        tally.check(&format!("design {i}: total within the original"), {
            check::expect_at_most(total, *inner)
        });
    }
    let gap = check_against_exhaustive(&designs, &last, args.seed, &mut tally);

    let mut layers = BTreeMap::new();
    if args.trace {
        let spans = tracer.spans();
        layers.insert("gen.corpus_ms", tracer::mean_ms(spans, "gen.corpus"));
        for (metric, lo, hi) in CLASSES {
            let times: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "partition.pare_down")
                .filter(|s| (lo..=hi).contains(&designs[s.item as usize].0))
                .map(|s| s.ms())
                .collect();
            layers.insert(metric, crate::stats::mean(&times));
        }
        // Work counts from the traced PareDown variant, re-run outside the
        // measured window.
        let constraints = PartitionConstraints::default();
        let (mut candidates, mut removals) = (0usize, 0usize);
        for (_, design) in &designs {
            let (_, events) = pare_down_traced(design, &constraints);
            for e in events {
                match e {
                    TraceEvent::CandidateStart { .. } => candidates += 1,
                    TraceEvent::Removed { .. } => removals += 1,
                    _ => {}
                }
            }
        }
        layers.insert("partition.candidates", candidates as f64);
        layers.insert("partition.removals", removals as f64);
        layers.insert("partition.blocks_after", blocks_after as f64);
        layers.insert("partition.gap_blocks", gap as f64);
        common_layers(&mut layers, &tracer, &measured, n as f64);
        crate::write_spans(&tracer, "paredown-random", args.seed)?;
    }

    Ok(Outcome {
        tally,
        measured,
        ops_per_round: n as f64,
        peak_rss_mb: peak,
        layers,
    })
}

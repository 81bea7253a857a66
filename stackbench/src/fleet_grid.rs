//! `fleet-grid`: a 1000-node Night Lamp Controller relay fleet on a grid,
//! built from a `FleetRequest` and run by `Fleet::run` to a fixed horizon,
//! as many whole runs as the run allows.

use crate::check::{self, random_walk};
use crate::tracer::{self, Tracer};
use crate::{common_layers, measure, peak_rss_mb, Args, Outcome, Round, Tally, Workload};
use eblocks_net::{Fleet, FleetRequest, FleetSource, FleetTopology};
use eblocks_sim::Simulator;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

const NODES: u32 = 1000;
const HORIZON: u64 = 250;
const LOSS_PM: u16 = 5;
const MIN_RUNS: usize = 5;
/// Reference-loop passes timed after each fleet run (about 0.3 s each).
const REF_REPS: usize = 8;
/// Edges of the seeded walk each one-node fleet replays.
const SOLO_STEPS: u64 = 48;
const SOLO_SPACING: u64 = 64;

fn request(seed: u64) -> FleetRequest {
    FleetRequest {
        name: Some("grid-fleet".into()),
        nodes: NODES,
        topology: "grid".into(),
        design: FleetSource::Library("Night Lamp Controller".into()),
        until: Some(HORIZON),
        seed: Some(seed),
        latency: None,
        bits_per_tick: None,
        packet_bits: None,
        loss_pm: Some(LOSS_PM),
        stimulus_period: None,
    }
}

/// The first run's JSON report, and how many later runs differed from it.
#[derive(Default)]
struct Reports {
    first: Option<String>,
    differing: usize,
}

impl Reports {
    fn add(&mut self, json: String) {
        match &self.first {
            None => self.first = Some(json),
            Some(first) => self.differing += usize::from(*first != json),
        }
    }
}

struct Bench {
    spec: FleetRequest,
    fleet: Option<Fleet>,
    tracer: Tracer,
    tally: Tally,
    reports: Reports,
}

impl Workload for Bench {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The fleet is the workload's one item.
    fn items(&self) -> usize {
        1
    }

    fn min_rounds(&self) -> usize {
        MIN_RUNS
    }

    fn ref_reps(&self) -> usize {
        REF_REPS
    }

    fn round(&mut self, index: u64, round: &mut Round) -> Result<(), String> {
        let fleet = self.fleet.as_ref().expect("built in set-up");
        let start = Instant::now();
        let open = self.tracer.begin("bench.fleet", index);
        let outcome = self.tracer.span("net.run", index, || fleet.run(HORIZON));
        self.tracer.end(open);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let outcome = self
            .tally
            .op("fleet run", outcome)
            .ok_or("fleet run failed")?;
        round.op(0, ms);
        let after = Instant::now();
        let json = self
            .tracer
            .span("net.report_json", index, || outcome.report.to_json());
        self.reports.add(json);
        round.exclude(after.elapsed());
        Ok(())
    }

    /// Set-up: build the fleet from its spec.
    fn setup(&mut self) -> Result<f64, String> {
        let start = Instant::now();
        let spec = &self.spec;
        let built = self
            .tracer
            .span("net.build", 0, || spec.build(Path::new(".")));
        let seconds = start.elapsed().as_secs_f64();
        self.fleet = Some(built.map_err(|e| format!("fleet spec: {e}"))?);
        Ok(seconds)
    }
}

/// A one-node fleet of each library design must leave the same output
/// histories as `Simulator::run` under the same stimulus.
fn check_solo_fleets(seed: u64, tally: &mut Tally) {
    for lib in eblocks_designs::all() {
        let design = lib.design;
        let stim = random_walk(&design, SOLO_SPACING, SOLO_STEPS, seed);
        let until = stim.end_time().unwrap_or(0) + 2 * SOLO_SPACING;
        let result = (|| -> Result<(), String> {
            let expected = Simulator::new(&design)
                .and_then(|sim| sim.run(&stim, until))
                .map_err(|e| e.to_string())?;
            let mut fleet = Fleet::new("solo", FleetTopology::chain(1));
            let d = fleet.add_design(design.clone());
            let node = fleet.add_node("n0", d);
            fleet.set_stimulus(node, stim.clone());
            let outcome = fleet.run(until).map_err(|e| e.to_string())?;
            let got = &outcome.node_traces[0];
            for output in expected.outputs() {
                if got.history(output) != expected.history(output) {
                    return Err(format!("output `{output}` differs"));
                }
            }
            if got.outputs().count() != expected.outputs().count() {
                return Err("different output sets".into());
            }
            Ok(())
        })();
        tally.check(
            &format!("{}: one-node fleet matches the simulator", lib.name),
            result,
        );
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut bench = Bench {
        spec: request(args.seed),
        fleet: None,
        tracer: Tracer::new(false),
        tally: Tally::new(),
        reports: Reports::default(),
    };
    bench.setup()?;
    let measured = measure(&mut bench, args)?;
    let peak = peak_rss_mb();
    let Bench {
        fleet,
        tracer,
        mut tally,
        reports,
        ..
    } = bench;
    let fleet = fleet.expect("built in set-up");

    // Checks, outside the measured window: every run's report is
    // byte-identical to the first, and its counters add up.
    tally.check(
        "reports byte-identical across runs",
        check::expect_eq(reports.differing, 0),
    );
    let report = fleet.run(HORIZON).map_err(|e| e.to_string())?.report;
    tally.check("rerun report identical", {
        if reports.first.as_deref() == Some(report.to_json().as_str()) {
            Ok(())
        } else {
            Err("a fresh run differs".into())
        }
    });
    let sent: Vec<u64> = report.node_stats.iter().map(|n| n.sent).collect();
    let received: Vec<u64> = report.node_stats.iter().map(|n| n.received).collect();
    tally.check(
        "sum of received equals delivered",
        check::expect_eq(received.iter().sum::<u64>(), report.packets_delivered),
    );
    tally.check(
        "sum of sent equals packets sent",
        check::expect_eq(sent.iter().sum::<u64>(), report.packets_sent),
    );
    tally.check("link traffic between delivered and sent hops", {
        let n = NODES as usize;
        let width = (n as f64).sqrt().ceil() as usize;
        let link_packets: u64 = report.link_stats.iter().map(|l| l.packets).sum();
        FleetTopology::grid(n)
            .assign(n)
            .map_err(|e| e.to_string())
            .and_then(|sites| {
                let hops: Vec<usize> = (0..n)
                    .map(|i| check::grid_hops(width, sites[i].index(), sites[(i + 1) % n].index()))
                    .collect();
                check::check_link_traffic(&hops, &sent, &received, link_packets)
            })
    });
    check_solo_fleets(args.seed, &mut tally);

    let ops_per_round = f64::from(NODES) * HORIZON as f64;
    let mut layers = BTreeMap::new();
    if args.trace {
        let spans = tracer.spans();
        layers.insert("net.build_ms", tracer::mean_ms(spans, "net.build"));
        layers.insert("net.run_ms", tracer::mean_ms(spans, "net.run"));
        layers.insert(
            "net.report_json_ms",
            tracer::mean_ms(spans, "net.report_json"),
        );
        layers.insert("net.events", report.events as f64);
        layers.insert("net.packets_delivered", report.packets_delivered as f64);
        layers.insert(
            "net.link_wait_ticks",
            report.link_stats.iter().map(|l| l.wait_ticks).sum::<u64>() as f64,
        );
        common_layers(&mut layers, &tracer, &measured, ops_per_round);
        crate::write_spans(&tracer, "fleet-grid", args.seed)?;
    }

    Ok(Outcome {
        tally,
        measured,
        ops_per_round,
        peak_rss_mb: peak,
        layers,
    })
}

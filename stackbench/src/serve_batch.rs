//! `serve-batch`: the daemon (`eblocks_serve::spawn`, one worker, lint
//! admission at deny-errors) driven by one closed-loop client over one
//! persistent Unix-socket connection, sending a seeded mix of `batch`
//! requests of equally many light jobs (verify off).

use crate::check::{mix, shuffled};
use crate::tracer::{self, Tracer};
use crate::{common_layers, measure, peak_rss_mb, Args, Outcome, Round, Tally, Workload};
use eblocks_farm::api::{
    Admission, BatchRequest, BatchResponse, DesignSource, JobOutcome, JobSpec, ProgressKind,
    ReplyEnvelope, ServeReply, SynthOptions,
};
use eblocks_farm::{run_batch, FarmConfig, JsonOptions};
use eblocks_lint::{lint_design, DenyLevel, LintConfig};
use eblocks_partition::strategy::PareDown;
use eblocks_serve::{spawn, ServeConfig, ServerHandle};
use eblocks_synth::Pipeline;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every Table-1 design appears this many times in the mix.
const LIBRARY_REPEATS: usize = 4;
/// Library jobs in every request.
const LIBRARY_PER_REQUEST: usize = 3;
/// Inner-block sizes of the three generated designs of a request, taking
/// turns; both triples add up to 39 inner blocks.
const GENERATED_SIZES: [[usize; 3]; 2] = [[6, 12, 21], [9, 15, 18]];
/// Rounds always run after the warm-up: enough to reach
/// `PEAK_AFTER_REQUESTS` however short the run.
const MIN_ROUNDS: usize = 10;
/// Peak memory is read once this many requests have been served. The
/// daemon's memory grows with every request it serves, so a reading at the
/// end of the run would grow with the run's speed.
const PEAK_AFTER_REQUESTS: u64 = 200;

/// The request mix. Every request holds `LIBRARY_PER_REQUEST` library
/// jobs and one of the `GENERATED_SIZES` triples of generated designs, so
/// every request carries about the same work whatever the seed. The seed
/// picks which library designs go together, the generated designs, and
/// the order of the jobs in each request.
fn mix_requests(seed: u64) -> Vec<BatchRequest> {
    let library: Vec<DesignSource> = eblocks_designs::all()
        .iter()
        .flat_map(|lib| (0..LIBRARY_REPEATS).map(|_| DesignSource::Library(lib.name.into())))
        .collect();
    let order = shuffled(library.len(), seed, 1);
    order
        .chunks(LIBRARY_PER_REQUEST)
        .enumerate()
        .map(|(r, picks)| {
            let mut sources: Vec<DesignSource> =
                picks.iter().map(|&i| library[i].clone()).collect();
            for (k, &inner) in GENERATED_SIZES[r % GENERATED_SIZES.len()]
                .iter()
                .enumerate()
            {
                sources.push(DesignSource::Generated {
                    inner,
                    seed: mix(&[seed, r as u64, k as u64]),
                });
            }
            BatchRequest {
                default_partitioner: None,
                jobs: shuffled(sources.len(), seed, 2 + r as u64)
                    .into_iter()
                    .map(|i| JobSpec {
                        name: None,
                        source: sources[i].clone(),
                        partitioner: None,
                        options: SynthOptions {
                            verify: Some(false),
                            ..SynthOptions::default()
                        },
                    })
                    .collect(),
            }
        })
        .collect()
}

/// The daemon's own farm settings for every batch it runs.
fn farm_config() -> FarmConfig {
    FarmConfig::with_workers(1)
}

struct Daemon {
    handle: ServerHandle,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Daemon {
    /// Spawns the daemon, connects, and waits until it answers `stats` on
    /// the socket. Also returns how long `spawn` took.
    fn start(dir: &Path, tracer: &mut Tracer) -> Result<(Self, Duration), String> {
        let socket = dir.join("daemon.sock");
        let mut config = ServeConfig::new(dir.join("spool"))
            .socket(&socket)
            .workers(1)
            .admission_lint(LintConfig::denying(DenyLevel::Errors));
        config.farm_workers = Some(1);
        let start = Instant::now();
        let handle = tracer.span("serve.spawn", 0, || spawn(config))?;
        let spawned = start.elapsed();
        let writer = UnixStream::connect(&socket).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        let mut daemon = Self {
            handle,
            writer,
            reader,
        };
        daemon.stats()?;
        Ok((daemon, spawned))
    }

    /// One `stats` round trip.
    fn stats(&mut self) -> Result<(), String> {
        self.send("\"stats\"\n")?;
        match self.recv()?.1.reply {
            ServeReply::Stats(_) => Ok(()),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("socket write: {e}"))
    }

    /// Reads one reply line; returns it with its parsed envelope.
    fn recv(&mut self) -> Result<(String, ReplyEnvelope), String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("socket read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".into());
        }
        let envelope = serde::json::from_str(&line).map_err(|e| format!("bad reply: {e}"))?;
        Ok((line, envelope))
    }

    fn stop(self) -> Result<(), String> {
        drop(self.writer);
        drop(self.reader);
        self.handle.shutdown();
        self.handle.join().map(|_| ())
    }
}

/// Instants observed on one request's reply stream.
struct Exchange {
    written: Instant,
    admitted: Instant,
    first_started: Instant,
    last_finished: Instant,
    done: Instant,
    /// Hash and length of the final reply line, as received; the line is
    /// compared with the expected one after the measured window.
    line_hash: u64,
    line_bytes: usize,
    c_bytes: usize,
    retries: u32,
}

fn line_hash(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.trim_end().hash(&mut h);
    h.finish()
}

fn exchange(daemon: &mut Daemon, id: &str, body: &str) -> Result<Exchange, String> {
    let written = Instant::now();
    daemon.send(&format!(
        "{{\"id\":\"{id}\",\"request\":{{\"batch\":{body}}}}}\n"
    ))?;
    let (mut admitted, mut first_started, mut last_finished) = (None, None, None);
    loop {
        let (line, envelope) = daemon.recv()?;
        let at = Instant::now();
        if envelope.id.as_deref() != Some(id) {
            return Err(format!(
                "reply for {:?} while waiting for {id}",
                envelope.id
            ));
        }
        match envelope.reply {
            ServeReply::Admission(verdict) => {
                if verdict.status != Admission::Accepted {
                    return Err(format!("not admitted: {verdict:?}"));
                }
                admitted = Some(at);
            }
            ServeReply::Progress(event) => match event.event {
                ProgressKind::Started => {
                    first_started.get_or_insert(at);
                }
                ProgressKind::Finished => last_finished = Some(at),
            },
            ServeReply::Batch(response) => {
                let missing = || format!("request {id}: incomplete reply stream");
                return Ok(Exchange {
                    written,
                    admitted: admitted.ok_or_else(missing)?,
                    first_started: first_started.ok_or_else(missing)?,
                    last_finished: last_finished.ok_or_else(missing)?,
                    done: at,
                    line_hash: line_hash(&line),
                    line_bytes: line.len(),
                    c_bytes: response.batch.c_bytes,
                    retries: response.batch.retries.unwrap_or(0),
                });
            }
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
}

/// Re-runs each job's lint and synthesis stages from outside the daemon
/// after the measured window (traced runs only), one span per call.
fn probe_jobs(request: &BatchRequest, tracer: &mut Tracer, item: u64) {
    let lint = LintConfig::denying(DenyLevel::Errors);
    for spec in &request.jobs {
        let job = spec.to_job();
        let loaded = match spec.source {
            DesignSource::Generated { .. } => tracer.span("gen.design", item, || job.load_design()),
            _ => job.load_design(),
        };
        let Ok(design) = loaded else {
            continue;
        };
        tracer.span("lint.design", item, || lint_design(&design, &lint));
        let mut run = || -> Result<(), eblocks_synth::SynthError> {
            let p = tracer.span("synth.partition", item, || {
                Pipeline::new(&design).partition_with(&PareDown)
            })?;
            let m = tracer.span("synth.merge", item, || p.merge())?;
            let r = tracer.span("synth.rewrite", item, || m.rewrite())?;
            tracer.span("synth.emit", item, || r.skip_verify().emit_c());
            Ok(())
        };
        let _ = run();
    }
}

struct Bench<'a> {
    args: &'a Args,
    requests: Vec<BatchRequest>,
    bodies: Vec<String>,
    dir: PathBuf,
    daemon: Daemon,
    next_id: u64,
    tracer: Tracer,
    tally: Tally,
    /// Peak memory once `PEAK_AFTER_REQUESTS` had been served.
    peak_rss_mb: Option<f64>,
    /// Every final reply: (request id, mix index, exchange).
    exchanges: Vec<(String, usize, Exchange)>,
}

impl Workload for Bench<'_> {
    fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn items(&self) -> usize {
        self.requests.len()
    }

    fn min_rounds(&self) -> usize {
        MIN_ROUNDS
    }

    fn round(&mut self, index: u64, round: &mut Round) -> Result<(), String> {
        for r in shuffled(self.requests.len(), self.args.seed, index) {
            let item = self.next_id;
            self.next_id += 1;
            let id = format!("q{item}");
            let open = self.tracer.begin("bench.request", item);
            let result = exchange(&mut self.daemon, &id, &self.bodies[r]);
            if let Ok(x) = &result {
                let t = &mut self.tracer;
                t.record("serve.admit", item, x.written, x.admitted, &open);
                t.record("serve.queue", item, x.admitted, x.first_started, &open);
                t.record("farm.work", item, x.first_started, x.last_finished, &open);
                t.record("serve.reply", item, x.last_finished, x.done, &open);
            }
            self.tracer.end(open);
            let x = self
                .tally
                .op(&format!("request {id}"), result)
                .ok_or_else(|| format!("request {id} failed"))?;
            round.op(r, (x.done - x.written).as_secs_f64() * 1e3);
            self.exchanges.push((id, r, x));
        }
        if self.next_id >= PEAK_AFTER_REQUESTS && self.peak_rss_mb.is_none() {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
        Ok(())
    }

    /// Set-up: spawn a daemon and connect to it, then stop it. Timed are
    /// `spawn` and a `stats` round trip on the accepted connection; the
    /// connect and the first round trip are not, because the listener
    /// polls `accept` every 10 ms and a connection made at once races its
    /// first poll (see the README's noise sources).
    fn setup(&mut self) -> Result<f64, String> {
        let (mut daemon, spawned) = Daemon::start(&self.dir.join("setup"), &mut self.tracer)?;
        let start = Instant::now();
        daemon.stats()?;
        let seconds = (spawned + start.elapsed()).as_secs_f64();
        daemon.stop()?;
        Ok(seconds)
    }
}

fn check_replies(
    requests: &[BatchRequest],
    exchanges: &[(String, usize, Exchange)],
    tally: &mut Tally,
) {
    let expected: Vec<BatchResponse> = requests
        .iter()
        .map(|r| {
            BatchResponse::from_report(
                &run_batch(&r.to_batch(), &farm_config()),
                &JsonOptions::default(),
            )
        })
        .collect();
    for (r, response) in expected.iter().enumerate() {
        tally.check(&format!("mix request {r}: every job ok"), {
            match response.results.iter().find(|j| j.status != JobOutcome::Ok) {
                None => Ok(()),
                Some(j) => Err(format!("job `{}` is {:?}: {:?}", j.name, j.status, j.error)),
            }
        });
    }
    for (id, r, x) in exchanges {
        let want = serde::json::to_string(&ReplyEnvelope {
            id: Some(id.clone()),
            reply: ServeReply::Batch(expected[*r].clone()),
        });
        tally.check(
            &format!("request {id}: reply equals the in-process response"),
            {
                if x.line_hash == line_hash(&want) {
                    Ok(())
                } else {
                    Err(format!(
                        "reply differs from the farm's response for mix request {r}"
                    ))
                }
            },
        );
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = crate::scratch_file(&format!("serve-{}", std::process::id()))?;
    let mut tracer = Tracer::new(false);
    let requests = mix_requests(args.seed);
    let mut bench = Bench {
        args,
        bodies: requests.iter().map(serde::json::to_string).collect(),
        requests,
        daemon: Daemon::start(&dir.join("serve"), &mut tracer)?.0,
        dir,
        next_id: 0,
        tracer,
        tally: Tally::new(),
        peak_rss_mb: None,
        exchanges: Vec::new(),
    };
    let result = bench.setup().and_then(|_| measure(&mut bench, args));
    let Bench {
        requests,
        dir,
        daemon,
        mut tracer,
        mut tally,
        peak_rss_mb: peak,
        exchanges,
        ..
    } = bench;
    let stopped = daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let measured = result?;
    stopped?;
    let peak = peak.ok_or("peak memory not read")?;

    // Checks, outside the measured window.
    check_replies(&requests, &exchanges, &mut tally);

    let mut layers = BTreeMap::new();
    if args.trace {
        common_layers(&mut layers, &tracer, &measured, requests.len() as f64);
        // Lint and the synthesis stages, re-run once per request of the mix
        // from outside the daemon.
        tracer.set_enabled(true);
        for (r, request) in requests.iter().enumerate() {
            probe_jobs(request, &mut tracer, r as u64);
        }
        let spans = tracer.spans();
        let per_request =
            |name: &str| tracer::total_ms(spans, name).0 / measured.traced_ops.max(1) as f64;
        let per_probe = |name: &str| tracer::total_ms(spans, name).0 / requests.len() as f64;
        for (metric, span) in [
            ("serve.admit_ms", "serve.admit"),
            ("serve.queue_ms", "serve.queue"),
            ("farm.work_ms", "farm.work"),
            ("serve.reply_ms", "serve.reply"),
        ] {
            layers.insert(metric, per_request(span));
        }
        for (metric, span) in [
            ("gen.design_ms", "gen.design"),
            ("lint.ms", "lint.design"),
            ("synth.partition_ms", "synth.partition"),
            ("synth.merge_ms", "synth.merge"),
            ("synth.rewrite_ms", "synth.rewrite"),
            ("synth.emit_ms", "synth.emit"),
        ] {
            layers.insert(metric, per_probe(span));
        }
        // Per request, and for retries per pass over the mix, over every
        // reply of the run.
        let replies = exchanges.len().max(1) as f64;
        let sum = |f: &dyn Fn(&Exchange) -> usize| -> f64 {
            exchanges.iter().map(|(_, _, x)| f(x)).sum::<usize>() as f64
        };
        layers.insert("serve.reply_bytes", sum(&|x| x.line_bytes) / replies);
        layers.insert("codegen.c_bytes", sum(&|x| x.c_bytes) / replies);
        layers.insert(
            "farm.retries",
            sum(&|x| x.retries as usize) * requests.len() as f64 / replies,
        );
        crate::write_spans(&tracer, "serve-batch", args.seed)?;
    }

    Ok(Outcome {
        tally,
        measured,
        ops_per_round: requests.len() as f64,
        peak_rss_mb: peak,
        layers,
    })
}

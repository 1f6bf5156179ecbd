//! `gridbench`: the gridband benchmark.
//!
//! Builds `gridband` from the checkout, drives `gridband serve` as a
//! separate process through three phases (replay, open-loop serve at a
//! nominal and a high rate, and setup/restart), checks every answer, and
//! prints each metric with its unit and sample count. The last line of
//! standard output is the machine-readable result:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! Usage, from the checkout root:
//!
//! ```text
//! cargo run --release --manifest-path gridbench/Cargo.toml -- \
//!     --workload paper_mem|deep_flex|durable --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! phases with spans recorded around every call into a layer, adds the
//! in-process layer measurements, and reports the per-layer metrics.

mod check;
mod daemon;
mod layers;
mod load;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gridband_serve::protocol::ServerMsg;
use gridband_serve::wire::WireMode;
use gridband_workload::Request;

use daemon::{Conn, Daemon, Res};
use load::ServeOut;
use spans::Spans;
use stats::Pctl;
use workloads::{sub_seed, Workload, HI_FACTOR};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = val.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if Workload::by_name(&a.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| {
        let w = Workload::by_name(&a.workload).expect("validated by parse_args");
        let dir = PathBuf::from(".gridbench").join(format!(
            "{}-{}-{}",
            w.name,
            a.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let out = run(&a, &w, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        out
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gridbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 = a count or a ratio of counts).
    pub n: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        n,
    }
}

/// Tallies over every phase of a run.
#[derive(Default)]
pub struct Tally {
    pub submitted: u64,
    pub errors: u64,
    pub mismatches: u64,
    pub setup_s: Vec<f64>,
}

impl Tally {
    fn fail(&mut self, what: &str, n: usize) {
        if n > 0 {
            eprintln!("gridbench: check failed: {what}: {n}");
            self.mismatches += n as u64;
        }
    }
}

/// Everything the replay phase produced.
pub struct Replay {
    pub trace: Vec<Request>,
    pub stream: Vec<gridband_serve::protocol::ClientMsg>,
    pub replies: Vec<ServerMsg>,
    /// Decisions/s of each timed repeat; `replay_dps` is their median.
    pub dps: Vec<f64>,
    /// Median daemon CPU seconds of a timed repeat.
    pub cpu_s: f64,
    pub stats: gridband_serve::metrics::StatsSnapshot,
    pub direct: check::DirectReplay,
}

/// Serve-phase validity bound: the generator may leave at most this many
/// sends behind at the end. Its p99 lateness may not exceed one tick,
/// the resolution at which the daemon batches arrivals anyway.
const BACKLOG_BOUND: usize = 8;
const SERVE_ATTEMPTS: usize = 3;
/// Timed fresh-daemon repeats of the replay phase, in three groups spread
/// over the run; `replay_dps` is their median. Each group starts with one
/// more repeat that is checked but not timed: the first replay after an
/// idle serve phase ran 20–30% slower than the rest of its group.
const REPLAY_REPEATS: usize = 9;
/// Restarts (durable) or bare spawns (other workloads) added to the
/// phase daemons' set-up samples.
const EXTRA_SETUPS: usize = 20;

fn run(a: &Args, w: &Workload, dir: &Path) -> Res<String> {
    let bin = daemon::build_daemon()?;
    let mut spans = Spans::new(a.trace);
    let mut t = Tally::default();
    let serve_s = (a.seconds * 0.4).max(0.5);

    let mut replays = ReplayRuns::new(w, a.seed);
    let group = REPLAY_REPEATS.div_ceil(3);
    replays.run(w, &bin, dir, group, &mut t)?;
    let nominal = w.trace(
        sub_seed(a.seed, 2),
        w.interarrival,
        (serve_s * w.nominal_rate()) as usize,
    );
    let hi_ia = w.interarrival / HI_FACTOR;
    let hi = w.trace(
        sub_seed(a.seed, 3),
        hi_ia,
        (serve_s * w.nominal_rate() * HI_FACTOR) as usize,
    );

    // In a traced run the nominal phase runs once untraced first, so
    // the difference shows what tracing costs.
    let untraced = if a.trace {
        let mut off = Spans::new(false);
        Some(
            serve_phase(
                w,
                a.seed,
                &bin,
                dir,
                "nominal-untraced",
                &nominal,
                &mut off,
                &mut t,
            )?
            .0,
        )
    } else {
        None
    };
    let (nom, rss_mb, recovery) = serve_phase(
        w, a.seed, &bin, dir, "nominal", &nominal, &mut spans, &mut t,
    )?;
    replays.run(w, &bin, dir, group, &mut t)?;
    let (hi_out, _, _) = serve_phase(w, a.seed, &bin, dir, "hi", &hi, &mut spans, &mut t)?;
    replays.run(w, &bin, dir, REPLAY_REPEATS - 2 * group, &mut t)?;
    let replay = replays.finish(w, &mut t)?;
    if !w.durable {
        for _ in 0..EXTRA_SETUPS {
            let d = Daemon::spawn(&bin, &w.daemon_flags())?;
            t.setup_s.push(d.setup_s);
            d.kill();
        }
    }

    let (first, _) = check::split_replies(&replay.replies);
    let accepted_first = first
        .values()
        .filter(|m| {
            matches!(
                m,
                ServerMsg::Accepted { .. } | ServerMsg::AcceptedSegments { .. }
            )
        })
        .count();
    let nom_lat = nom.sliced();
    let hi_lat = hi_out.sliced();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let end_to_end = vec![
        metric("setup_s", stats::median(&t.setup_s), "s", t.setup_s.len()),
        metric(
            "replay_dps",
            stats::median(&replay.dps),
            "decisions/s",
            replay.trace.len() * replay.dps.len(),
        ),
        metric(
            "accept_rate",
            accepted_first as f64 / replay.trace.len().max(1) as f64,
            "ratio",
            replay.trace.len(),
        ),
        metric("p50_ms", nom_lat.p50, "ms", nom_lat.n),
        metric("p99_ms", nom_lat.p99, "ms", nom_lat.n),
        metric("p99_ms_hi", hi_lat.p99, "ms", hi_lat.n),
        metric(
            "ok_rate",
            1.0 - t.errors as f64 / t.submitted.max(1) as f64,
            "ratio",
            t.submitted as usize,
        ),
        metric("rss_mb", rss_mb, "MB", 1),
    ];

    let mut flags = w.daemon_flags();
    flags.extend(["--tick-ms".to_string(), w.tick_ms.to_string()]);
    let codecs: Vec<String> = w.codecs.iter().map(|c| format!("\"{c}\"")).collect();
    let setups: Vec<String> = t.setup_s.iter().map(|v| v.to_string()).collect();
    let record =
        format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cpus\":{host_cpus},\
         \"commit\":\"{}\",\"daemon_flags\":\"{}\",\"replay_flags\":\"{}\",\"tick_ms\":{},\"codecs\":[{}],\
         \"replay_requests\":{},\"offered_rate_nominal\":{},\"offered_rate_hi\":{},\
         \"p99_limit_ms\":[{},{}],\"p99_limit_met\":[{},{}],\"setup_samples_s\":[{}],\
         \"replay_dps_samples\":[{}],\"generator_sched_fifo\":{}}}",
        w.name,
        a.seed,
        a.seconds,
        a.trace,
        commit(),
        flags.join(" "),
        w.replay_flags().join(" "),
        w.tick_ms,
        codecs.join(","),
        replay.trace.len(),
        nom.offered_rate(),
        hi_out.offered_rate(),
        w.p99_limit_ms[0],
        w.p99_limit_ms[1],
        nom_lat.p99 <= w.p99_limit_ms[0],
        hi_lat.p99 <= w.p99_limit_ms[1],
        setups.join(","),
        replay.dps.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","),
        nom.realtime,
    );
    println!("record {record}");
    for (label, out) in [("nominal", &nom), ("high", &hi_out)] {
        for (k, codec) in w.codecs.iter().enumerate() {
            let p = Pctl::of(&out.lat_ms[k]);
            println!(
                "latency {label} {codec}: p50 {:.3} ms p99 {:.3} ms (n={}, whole phase)",
                p.p50, p.p99, p.n
            );
        }
    }
    println!(
        "serve {}: nominal {:.0}/s p99 {:.3} ms (n={} in {} sub-phases; limit {} ms, {}), \
         high {:.0}/s p99 {:.3} ms (n={} in {} sub-phases; limit {} ms, {})",
        w.name,
        nom.offered_rate(),
        nom_lat.p99,
        nom_lat.n,
        nom_lat.slices,
        w.p99_limit_ms[0],
        if nom_lat.p99 <= w.p99_limit_ms[0] {
            "met"
        } else {
            "NOT met"
        },
        hi_out.offered_rate(),
        hi_lat.p99,
        hi_lat.n,
        hi_lat.slices,
        w.p99_limit_ms[1],
        if hi_lat.p99 <= w.p99_limit_ms[1] {
            "met"
        } else {
            "NOT met"
        },
    );

    let reported = if a.trace {
        let untraced = untraced.expect("traced runs measure an untraced nominal phase");
        let per_layer = layers::measure(
            &layers::Inputs {
                w,
                seed: a.seed,
                dir,
                replay: &replay,
                nominal: &nom,
                nominal_items: &load::schedule(w, a.seed, &nominal),
                untraced: &untraced,
                hi: &hi_out,
                recovery,
            },
            &mut spans,
        );
        for (name, n, total, own) in spans.by_name() {
            println!("span {name:<16} count {n:>8}  total {total:>10.3} ms  self {own:>10.3} ms");
        }
        let path = dir
            .parent()
            .expect("run dir has a parent")
            .join(format!("spans-{}-{}.jsonl", w.name, a.seed));
        spans
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        per_layer
    } else {
        end_to_end
    };
    for m in &reported {
        println!(
            "metric {:<32} {:>16.6} {:<12} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.mismatches == 0,
        t.submitted.max(1),
        t.errors + t.mismatches,
        metrics.join(", ")
    ))
}

/// The replay phase's inputs and its repeats so far. Repeats run in
/// groups spread over the run, so a stretch of host noise cannot hit
/// them all.
struct ReplayRuns {
    trace: Vec<Request>,
    stream: Vec<gridband_serve::protocol::ClientMsg>,
    /// The first repeat, which every later one must equal, and its
    /// daemon's `Stats`.
    first: Option<(load::ReplayOut, gridband_serve::metrics::StatsSnapshot)>,
    /// Decisions/s and daemon CPU seconds of each timed repeat.
    dps: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl ReplayRuns {
    fn new(w: &Workload, seed: u64) -> ReplayRuns {
        let trace = w.trace(sub_seed(seed, 1), w.interarrival, w.replay_requests);
        let stream = w.replay_stream(seed, &trace);
        ReplayRuns {
            trace,
            stream,
            first: None,
            dps: Vec::new(),
            cpu_s: Vec::new(),
        }
    }

    /// Replay the stream once untimed, then `n` more times timed, each on
    /// a fresh daemon.
    fn run(&mut self, w: &Workload, bin: &Path, dir: &Path, n: usize, t: &mut Tally) -> Res<()> {
        for k in 0..=n {
            let mut flags = w.replay_flags();
            flags.extend(["--queue".to_string(), (self.stream.len() + 64).to_string()]);
            let wal = dir.join("replay-wal");
            if w.durable {
                flags.extend(wal_flag(dir, "replay-wal")?);
            }
            let d = Daemon::spawn(bin, &flags)?;
            if !w.durable {
                t.setup_s.push(d.setup_s);
            }
            let cpu0 = d.cpu_s();
            let out = load::replay(&d.addr, WireMode::Binary, &self.stream)?;
            let cpu_s = d.cpu_s() - cpu0;
            let stats = Conn::connect(&d.addr, WireMode::Binary)?.stats()?;
            d.kill();
            // Dirty pages of WALs left behind would be written back
            // during later repeats and slow them down.
            let _ = std::fs::remove_dir_all(&wal);
            t.submitted += self.stream.len() as u64;
            t.errors += out.errors + stats.replies_dropped;
            if k > 0 {
                self.dps.push(self.trace.len() as f64 / out.wall_s.max(1e-9));
                self.cpu_s.push(cpu_s);
            }
            match &self.first {
                Some((first, _)) => t.fail(
                    "replay replies differ between repeats",
                    check::reply_mismatches(&first.replies, &out.replies),
                ),
                None => self.first = Some((out, stats)),
            }
        }
        Ok(())
    }

    /// Check the first repeat's replies and summarize.
    fn finish(self, w: &Workload, t: &mut Tally) -> Res<Replay> {
        let ReplayRuns {
            trace,
            stream,
            first,
            dps,
            cpu_s,
        } = self;
        let Some((out, stats)) = first else {
            return Err("no replay ran".into());
        };
        let reqs: std::collections::HashMap<u64, Request> =
            trace.iter().map(|r| (r.id.0, *r)).collect();
        let (first, amended) = check::split_replies(&out.replies);
        if w.malleable == 0.0 {
            t.fail(
                "replay decisions differ from the offline WINDOW run",
                check::offline_mismatches(w, &trace, &first),
            );
        }
        let direct = check::engine_replay(w, &stream);
        t.fail(
            "replay replies differ from the in-process engine",
            check::reply_mismatches(&out.replies, &direct.replies),
        );
        let grants = check::grants(&reqs, &first, &amended, |r| r.finish());
        let bad = check::conservation(&w.topo, &grants);
        for b in bad.iter().take(5) {
            eprintln!("gridbench: replay conservation: {b}");
        }
        t.fail("replay conservation violations", bad.len());
        Ok(Replay {
            trace,
            stream,
            replies: out.replies,
            dps,
            cpu_s: stats::median(&cpu_s),
            stats,
            direct,
        })
    }
}

fn wal_flag(dir: &Path, name: &str) -> Res<[String; 2]> {
    let p = dir.join(name);
    std::fs::create_dir_all(&p).map_err(|e| format!("{}: {e}", p.display()))?;
    Ok(["--wal-dir".to_string(), p.display().to_string()])
}

/// What a restart on the serve phase's WAL showed (durable only).
pub struct Recovery {
    pub records_replayed: u64,
    pub wal_copy: PathBuf,
}

/// One open-loop serve phase on a fresh real-time daemon, retried when
/// the generator itself fell behind. Returns the phase, the daemon's
/// peak RSS, and (durable) what the restarts after a kill showed.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    w: &Workload,
    seed: u64,
    bin: &Path,
    dir: &Path,
    label: &str,
    trace: &[Request],
    spans: &mut Spans,
    t: &mut Tally,
) -> Res<(ServeOut, f64, Option<Recovery>)> {
    let items = load::schedule(w, seed, trace);
    for attempt in 1..=SERVE_ATTEMPTS {
        let mut flags = w.daemon_flags();
        flags.extend(["--tick-ms".to_string(), w.tick_ms.to_string()]);
        let wal = format!("{label}-wal-{attempt}");
        if w.durable {
            flags.extend(wal_flag(dir, &wal)?);
        }
        let d = Daemon::spawn(bin, &flags)?;
        if !w.durable {
            t.setup_s.push(d.setup_s);
        }
        let phase = spans.open("bench.loadgen", spans::NONE);
        let mut out = load::serve_sliced(&d.addr, w, &items, spans, phase)?;
        out.errors += out.stats.replies_dropped;
        spans.close(phase);
        let rss = d.peak_rss_mb();
        d.kill();
        let lag = Pctl::of(&out.lag_ms);
        if lag.p99 > w.tick_ms as f64 || out.backlog_end > BACKLOG_BOUND {
            let _ = std::fs::remove_dir_all(dir.join(&wal));
            eprintln!(
                "gridbench: {label} serve phase invalid (generator lag p99 {:.3} ms, backlog {}), attempt {attempt}",
                lag.p99, out.backlog_end
            );
            continue;
        }
        t.submitted += out.submitted + out.amends_sent;
        t.errors += out.errors;
        let reqs: std::collections::HashMap<u64, Request> =
            trace.iter().map(|r| (r.id.0, *r)).collect();
        let grants = check::grants(&reqs, &out.decisions, &out.amended_plans, |r| {
            out.deadlines[&r.id.0]
        });
        let bad = check::conservation(&w.topo, &grants);
        for b in bad.iter().take(5) {
            eprintln!("gridbench: {label} conservation: {b}");
        }
        t.fail("serve conservation violations", bad.len());
        let recovery = if w.durable && label == "nominal" {
            Some(restarts(w, bin, dir, &wal, &out.decisions, t)?)
        } else {
            None
        };
        let _ = std::fs::remove_dir_all(dir.join(&wal));
        return Ok((out, rss, recovery));
    }
    Err(format!(
        "{label} serve phase: the load generator fell behind its schedule in all {SERVE_ATTEMPTS} attempts"
    ))
}

/// Restart on copies of the killed daemon's WAL: every restart is a
/// set-up sample, the first also checks that every decision survived.
fn restarts(
    w: &Workload,
    bin: &Path,
    dir: &Path,
    wal: &str,
    decided: &std::collections::HashMap<u64, ServerMsg>,
    t: &mut Tally,
) -> Res<Recovery> {
    let mut records_replayed = 0;
    for k in 0..EXTRA_SETUPS {
        let copy = dir.join(format!("restart-{k}"));
        copy_dir(&dir.join(wal), &copy)?;
        let mut flags = w.daemon_flags();
        flags.extend(["--tick-ms".to_string(), w.tick_ms.to_string()]);
        flags.extend(["--wal-dir".to_string(), copy.display().to_string()]);
        let d = Daemon::spawn(bin, &flags)?;
        t.setup_s.push(d.setup_s);
        let mut conn = Conn::connect(&d.addr, WireMode::Binary)?;
        if k == 0 {
            t.submitted += decided.len() as u64;
            t.fail(
                "decisions changed across kill and restart",
                check::recovery_mismatches(&mut conn, decided)?,
            );
            records_replayed = conn.stats()?.recovery_replayed_records;
        }
        d.kill();
        let _ = std::fs::remove_dir_all(&copy);
    }
    let wal_copy = dir.join("recovery-probe");
    copy_dir(&dir.join(wal), &wal_copy)?;
    Ok(Recovery {
        records_replayed,
        wal_copy,
    })
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// The commit under test: `git` when the checkout is a repository, else
/// a hash of the sources the daemon is built from.
fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(o) = git {
        if o.status.success() {
            return String::from_utf8_lossy(&o.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(PathBuf::from("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .display()
            .to_string()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv64-{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

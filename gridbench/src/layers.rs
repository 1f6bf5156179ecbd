//! The traced run's per-layer measurements.
//!
//! Three sources, all from outside the daemon:
//! * the daemon's own `Stats` counters and `/proc/<pid>` CPU time, read
//!   during the end-to-end phases;
//! * in-process calls to each layer's public functions on the run's own
//!   generated inputs (codecs, engine, WINDOW, ledger, flex, store);
//! * spans recorded around those calls, named after the layer's module.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel;
use gridband_algos::BandwidthPolicy;
use gridband_net::{CapacityLedger, ReservationId, ReserveRequest, SegSpan};
use gridband_serve::engine::{Command, ReplySink};
use gridband_serve::protocol::{self, ClientMsg, ServerMsg};
use gridband_serve::wire::{self, WireMode};
use gridband_serve::{Engine, TimeMode};
use gridband_sim::{AdmissionController, Decision};
use gridband_store::{FsDir, FsyncPolicy, RoundDecision, Store, WalRecord};
use gridband_workload::Request;

use crate::check::engine_config;
use crate::load::{realtime, reply_id, ServeItem, ServeOut};
use crate::spans::{Spans, NONE};
use crate::stats::{mean, Pctl};
use crate::workloads::{submit, Workload, GC_HORIZON, STEP};
use crate::{metric, Metric, Recovery, Replay};

pub struct Inputs<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    pub dir: &'a Path,
    pub replay: &'a Replay,
    pub nominal: &'a ServeOut,
    pub nominal_items: &'a [ServeItem],
    pub untraced: &'a ServeOut,
    pub hi: &'a ServeOut,
    pub recovery: Option<Recovery>,
}

pub fn measure(inp: &Inputs, spans: &mut Spans) -> Vec<Metric> {
    let (w, r) = (inp.w, inp.replay);
    let mut out = Vec::new();

    // serve.server: the daemon as a whole, against the engine alone.
    let direct = engine_serve(w, inp.nominal_items, spans);
    let direct_lat = Pctl::of(&direct);
    let tcp = Pctl::of(&inp.nominal.all_lat_ms());
    let sum = |f: fn(&gridband_serve::metrics::StatsSnapshot) -> u64| {
        (f(&r.stats) + f(&inp.nominal.stats) + f(&inp.hi.stats)) as f64
    };
    out.extend([
        metric(
            "server.cpu_us_per_decision",
            r.cpu_s * 1e6 / r.replies.len().max(1) as f64,
            "us",
            r.replies.len(),
        ),
        metric(
            "server.overhead_p50_ms",
            tcp.p50 - direct_lat.p50,
            "ms",
            tcp.n.min(direct_lat.n),
        ),
        metric(
            "server.overhead_p99_ms",
            tcp.p99 - direct_lat.p99,
            "ms",
            tcp.n.min(direct_lat.n),
        ),
        metric("server.queue_full", sum(|s| s.queue_full), "count", 0),
        metric(
            "server.replies_dropped",
            sum(|s| s.replies_dropped),
            "count",
            0,
        ),
        metric(
            "server.protocol_errors",
            sum(|s| s.protocol_errors),
            "count",
            0,
        ),
    ]);

    // serve.wire / serve.protocol: both codecs on this run's messages,
    // and the serve phase's latency split by the codec it used.
    let client: Vec<&ClientMsg> = r.stream.iter().take(CODEC_MSGS).collect();
    let server: Vec<&ServerMsg> = r.replies.iter().take(CODEC_MSGS).collect();
    for codec in [WireMode::Binary, WireMode::Json] {
        let (enc, dec, bytes) = codec_cost(codec, &client, &server, spans);
        let lat = w
            .codecs
            .iter()
            .position(|&c| c == codec)
            .map(|k| Pctl::of(&inp.nominal.lat_ms[k]))
            .unwrap_or_default();
        let n = client.len() + server.len();
        let names = match codec {
            WireMode::Binary => [
                "wire.encode_ns",
                "wire.decode_ns",
                "wire.bytes_per_msg",
                "wire.p99_ms",
            ],
            WireMode::Json => [
                "protocol.encode_ns",
                "protocol.decode_ns",
                "protocol.bytes_per_msg",
                "protocol.p99_ms",
            ],
        };
        out.extend([
            metric(names[0], enc, "ns", n),
            metric(names[1], dec, "ns", n),
            metric(names[2], bytes, "B", n),
            metric(names[3], lat.p99, "ms", lat.n),
        ]);
    }

    // serve.engine: the same stream and schedule with no sockets.
    let rounds_us = engine_rounds(w, &r.stream, ENGINE_ROUNDS, spans);
    let rounds = Pctl::of(&rounds_us);
    out.extend([
        metric(
            "engine.direct_dps",
            r.trace.len() as f64 / r.direct.wall_s.max(1e-9),
            "decisions/s",
            r.trace.len(),
        ),
        metric("engine.direct_p50_ms", direct_lat.p50, "ms", direct_lat.n),
        metric("engine.direct_p99_ms", direct_lat.p99, "ms", direct_lat.n),
        metric("engine.rounds", r.direct.rounds as f64, "count", 0),
        metric(
            "engine.batch_mean",
            r.stream.len() as f64 / r.direct.rounds.max(1) as f64,
            "msgs/round",
            r.direct.rounds as usize,
        ),
        metric("engine.round_us_p50", rounds.p50, "us", rounds.n),
        metric("engine.round_us_p99", rounds.p99, "us", rounds.n),
    ]);

    // algos.window: offline rounds over the trace's rigid requests.
    let rigid: Vec<Request> = r
        .trace
        .iter()
        .filter(|q| !w.is_malleable(inp.seed, q.id.0))
        .copied()
        .collect();
    let win = window_rounds(w, &rigid, spans);
    let win_us = Pctl::of(&win.round_us);
    out.extend([
        metric("window.round_us_p50", win_us.p50, "us", win_us.n),
        metric("window.round_us_p99", win_us.p99, "us", win_us.n),
        metric(
            "window.candidates_per_round",
            win.candidates as f64 / win.round_us.len().max(1) as f64,
            "count",
            win.round_us.len(),
        ),
        metric(
            "window.accept_ratio",
            win.granted as f64 / win.candidates.max(1) as f64,
            "ratio",
            win.candidates,
        ),
    ]);

    // net.ledger and flex: rebuild the daemon's ledger from its replies.
    let lf = ledger_and_flex(inp, spans);
    let ports = (w.topo.num_ingress() + w.topo.num_egress()) as f64;
    let fill = Pctl::of(&lf.water_fill_us);
    out.extend([
        metric(
            "ledger.breakpoints_per_port_mean",
            r.stats.breakpoints_live as f64 / ports,
            "count",
            0,
        ),
        metric(
            "ledger.breakpoints_per_port_max",
            lf.max_breakpoints as f64,
            "count",
            0,
        ),
        metric(
            "ledger.reserve_ns",
            mean(&lf.reserve_ns),
            "ns",
            lf.reserve_ns.len(),
        ),
        metric(
            "ledger.query_ns",
            mean(&lf.query_ns),
            "ns",
            lf.query_ns.len(),
        ),
        metric("ledger.gc_us", mean(&lf.gc_us), "us", lf.gc_us.len()),
        metric("ledger.gc_reclaimed", lf.gc_reclaimed as f64, "count", 0),
        metric("flex.calls", lf.water_fill_us.len() as f64, "count", 0),
        metric("flex.water_fill_us_p50", fill.p50, "us", fill.n),
        metric("flex.water_fill_us_p99", fill.p99, "us", fill.n),
        metric(
            "flex.plan_ratio",
            lf.plans as f64 / lf.water_fill_us.len().max(1) as f64,
            "ratio",
            lf.water_fill_us.len(),
        ),
        metric(
            "flex.segments_per_plan",
            lf.segments as f64 / lf.granted_plans.max(1) as f64,
            "count",
            lf.granted_plans,
        ),
        metric("flex.amends", r.stats.amend_requests as f64, "count", 0),
    ]);

    // store: the daemon's WAL counters, in-process appends of this run's
    // round records, and a recovery of the killed daemon's WAL.
    let st = if w.durable {
        store_probe(inp, &win.records, spans)
    } else {
        StoreProbe::default()
    };
    let barrier = Pctl::of(&st.barrier_us);
    out.extend([
        metric("store.appends", r.stats.wal_appends as f64, "count", 0),
        metric(
            "store.bytes_per_round",
            r.stats.wal_bytes as f64 / r.stats.ticks.max(1) as f64,
            "B",
            r.stats.ticks as usize,
        ),
        metric(
            "store.append_us",
            mean(&st.append_us),
            "us",
            st.append_us.len(),
        ),
        metric("store.barrier_us_p50", barrier.p50, "us", barrier.n),
        metric("store.barrier_us_p99", barrier.p99, "us", barrier.n),
        // The replay takes no snapshots; the nominal serve daemon does.
        metric(
            "store.snapshots",
            inp.nominal.stats.snapshots_written as f64,
            "count",
            0,
        ),
        metric(
            "store.recovery_ms",
            st.recovery_ms,
            "ms",
            usize::from(st.recovery_ms > 0.0),
        ),
        metric(
            "store.records_replayed",
            inp.recovery.as_ref().map_or(0, |rec| rec.records_replayed) as f64,
            "count",
            0,
        ),
    ]);

    // bench.loadgen: was the generator itself on time?
    let lag = Pctl::of(&inp.nominal.lag_ms);
    let traced = Pctl::of(&inp.nominal.all_lat_ms()).p50;
    let untraced = Pctl::of(&inp.untraced.all_lat_ms()).p50;
    out.extend([
        metric("loadgen.lag_ms_p99", lag.p99, "ms", lag.n),
        metric(
            "loadgen.backlog_end",
            inp.nominal.backlog_end as f64,
            "count",
            0,
        ),
        metric(
            "trace.overhead",
            traced / untraced.max(1e-9) - 1.0,
            "ratio",
            lag.n,
        ),
    ]);
    out
}

const CODEC_MSGS: usize = 20_000;
const CODEC_REPS: usize = 3;
const ENGINE_ROUNDS: usize = 400;
const STORE_ROUNDS: usize = 200;
const PROBES: usize = 3_000;

/// Mean encode ns, mean decode ns and mean bytes per message over the
/// client and server messages, best of a few repetitions.
fn codec_cost(
    codec: WireMode,
    client: &[&ClientMsg],
    server: &[&ServerMsg],
    spans: &mut Spans,
) -> (f64, f64, f64) {
    let name = match codec {
        WireMode::Binary => "serve.wire",
        WireMode::Json => "serve.protocol",
    };
    let n = (client.len() + server.len()).max(1) as f64;
    let (mut enc, mut dec) = (f64::MAX, f64::MAX);
    let mut bytes = 0usize;
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        let (cb, sb): (Vec<Vec<u8>>, Vec<Vec<u8>>) = match codec {
            WireMode::Binary => (
                client
                    .iter()
                    .map(|m| wire::encode_client_frame(m))
                    .collect(),
                server
                    .iter()
                    .map(|m| wire::encode_server_frame(m))
                    .collect(),
            ),
            WireMode::Json => (
                client
                    .iter()
                    .map(|m| protocol::encode_client(m).into_bytes())
                    .collect(),
                server
                    .iter()
                    .map(|m| protocol::encode_server(m).into_bytes())
                    .collect(),
            ),
        };
        let t1 = Instant::now();
        spans.record(name, NONE, 0, t0, t1);
        bytes = cb.iter().chain(&sb).map(Vec::len).sum();
        match codec {
            WireMode::Binary => {
                for f in &cb {
                    black_box(wire::decode_client_payload(&f[8..]).is_ok());
                }
                for f in &sb {
                    black_box(wire::decode_server_payload(&f[8..]).is_ok());
                }
            }
            WireMode::Json => {
                for l in &cb {
                    black_box(
                        protocol::decode_client(std::str::from_utf8(l).unwrap_or("")).is_ok(),
                    );
                }
                for l in &sb {
                    black_box(
                        protocol::decode_server(std::str::from_utf8(l).unwrap_or("")).is_ok(),
                    );
                }
            }
        }
        let t2 = Instant::now();
        spans.record(name, NONE, 0, t1, t2);
        enc = enc.min((t1 - t0).as_secs_f64() * 1e9 / n);
        dec = dec.min((t2 - t1).as_secs_f64() * 1e9 / n);
        black_box(&cb);
    }
    (enc, dec, bytes as f64 / n)
}

/// The nominal serve schedule through an in-process real-time engine:
/// decision latency from the intended send time, with no sockets.
/// Amends are not sent here.
fn engine_serve(w: &Workload, items: &[ServeItem], spans: &mut Spans) -> Vec<f64> {
    let tick = Duration::from_millis(w.tick_ms);
    let engine = Engine::spawn(engine_config(w, TimeMode::RealTime { tick }, 1024));
    let (tx, rx) = channel::bounded(items.len() + 64);
    let sink = ReplySink::from(tx);
    let sender = engine.sender();
    let phase = spans.open("serve.engine", NONE);
    let stats = Command::Client {
        msg: ClientMsg::Stats,
        reply: sink.clone(),
    };
    let v0 = match sender.send(stats).ok().and_then(|_| rx.recv().ok()) {
        Some(ServerMsg::Stats(s)) => s.virtual_time,
        _ => 0.0,
    };
    let lead = Duration::from_millis(50);
    let start = Instant::now() + lead;
    let s0 = items.first().map_or(0.0, |i| i.req.start());
    let n = items.len();
    let end_by = start + Duration::from_secs_f64(items.last().map_or(0.0, |i| i.at) + 5.0);
    // The same generator scheduling as the TCP serve phase.
    let rt = realtime(true);
    let reader = std::thread::spawn(move || {
        realtime(rt);
        let mut got: HashMap<u64, Instant> = HashMap::with_capacity(n);
        while got.len() < n {
            let wait = end_by.saturating_duration_since(Instant::now());
            let Ok(msg) = rx.recv_timeout(wait) else {
                break;
            };
            if let Some(id) = reply_id(&msg) {
                got.entry(id).or_insert_with(Instant::now);
            }
        }
        got
    });
    let mut due_of = HashMap::with_capacity(n);
    for it in items {
        let due = start + Duration::from_secs_f64(it.at);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let v = v0 + lead.as_secs_f64() / w.wall_per_virtual() + (it.req.start() - s0);
        let msg = submit(
            &it.req,
            it.malleable,
            None,
            v + it.req.finish() - it.req.start(),
        );
        let cmd = Command::Client {
            msg,
            reply: sink.clone(),
        };
        if sender.send(cmd).is_err() {
            break;
        }
        due_of.insert(it.req.id.0, due);
    }
    let got = reader.join().unwrap_or_default();
    realtime(false);
    engine.shutdown();
    spans.close(phase);
    let mut lat = Vec::with_capacity(n);
    for (id, at) in got {
        if let Some(due) = due_of.get(&id) {
            spans.record("serve.engine", phase, id, *due, at);
            lat.push(at.saturating_duration_since(*due).as_secs_f64() * 1e3);
        }
    }
    lat
}

/// Per-round engine time on a virtual-clock engine, one round at a time:
/// with the queue drained, time the submission that fires the next round
/// until a following `Query` is answered. Includes one command round
/// trip through the engine's channels.
fn engine_rounds(w: &Workload, stream: &[ClientMsg], max: usize, spans: &mut Spans) -> Vec<f64> {
    let engine = Engine::spawn(engine_config(w, TimeMode::Virtual, stream.len() + 64));
    let (tx, rx) = channel::bounded(stream.len() + 64);
    let sink = ReplySink::from(tx);
    let sender = engine.sender();
    let send = |msg: &ClientMsg| {
        let _ = sender.send(Command::Client {
            msg: msg.clone(),
            reply: sink.clone(),
        });
    };
    let sync = || {
        send(&ClientMsg::Query { id: u64::MAX });
        while let Ok(m) = rx.recv_timeout(Duration::from_secs(30)) {
            if matches!(m, ServerMsg::Status { id: u64::MAX, .. }) {
                break;
            }
        }
    };
    let phase = spans.open("serve.engine", NONE);
    let mut out = Vec::new();
    let mut round_of_last: Option<i64> = None;
    for msg in stream {
        let round = match msg {
            ClientMsg::Submit(s) => s.start.map(|t| (t / STEP).floor() as i64),
            _ => None,
        };
        let fires = matches!((round, round_of_last), (Some(k), Some(prev)) if k > prev);
        if fires {
            if out.len() >= max {
                break;
            }
            sync();
            let t0 = Instant::now();
            send(msg);
            sync();
            let t1 = Instant::now();
            spans.record("serve.engine", phase, 0, t0, t1);
            out.push((t1 - t0).as_secs_f64() * 1e6);
        } else {
            send(msg);
        }
        if round.is_some() {
            round_of_last = round;
        }
    }
    engine.shutdown();
    spans.close(phase);
    out
}

struct WindowRun {
    round_us: Vec<f64>,
    candidates: usize,
    granted: usize,
    records: Vec<WalRecord>,
}

/// Offline WINDOW rounds (`on_tick` plus the batched booking), timed per
/// round with candidates. Also yields the rounds as WAL records.
fn window_rounds(w: &Workload, trace: &[Request], spans: &mut Spans) -> WindowRun {
    let mut sched = gridband_algos::WindowScheduler::new(STEP, BandwidthPolicy::MAX_RATE);
    let mut ledger = CapacityLedger::new(w.topo.clone());
    let by_id: HashMap<u64, &Request> = trace.iter().map(|r| (r.id.0, r)).collect();
    let mut run = WindowRun {
        round_us: Vec::new(),
        candidates: 0,
        granted: 0,
        records: Vec::new(),
    };
    let phase = spans.open("algos.window", NONE);
    let horizon = trace.last().map_or(0.0, |r| r.start()) + STEP;
    let mut next = 0;
    let mut t = STEP;
    while t <= horizon + STEP {
        while next < trace.len() && trace[next].start() < t {
            let _ = sched.on_arrival(&trace[next], &ledger, trace[next].start());
            next += 1;
        }
        let t0 = Instant::now();
        let decisions = sched.on_tick(&ledger, t);
        let t1 = Instant::now();
        let batch: Vec<ReserveRequest> = decisions
            .iter()
            .filter_map(|(id, d)| match *d {
                Decision::Accept { bw, start, finish } => Some(ReserveRequest {
                    route: by_id[&id.0].route,
                    start,
                    end: finish,
                    bw,
                }),
                _ => None,
            })
            .collect();
        let booked = ledger.reserve_all(&batch);
        let t2 = Instant::now();
        if !decisions.is_empty() {
            let round = spans.record("algos.window", phase, 0, t0, t2);
            spans.record("net.ledger", round, 0, t1, t2);
            run.round_us.push((t2 - t0).as_secs_f64() * 1e6);
            run.candidates += decisions.len();
            run.granted += booked.iter().filter(|b| b.is_ok()).count();
            run.records.push(WalRecord::Round {
                t,
                decisions: decisions
                    .iter()
                    .map(|(id, d)| match *d {
                        Decision::Accept { bw, start, finish } => RoundDecision::Accept {
                            id: id.0,
                            ingress: by_id[&id.0].route.ingress.0,
                            egress: by_id[&id.0].route.egress.0,
                            bw,
                            start,
                            finish,
                            cancelled: false,
                        },
                        _ => RoundDecision::Reject { id: id.0 },
                    })
                    .collect(),
            });
        }
        t += STEP;
    }
    spans.close(phase);
    run
}

#[derive(Default)]
struct LedgerFlex {
    reserve_ns: Vec<f64>,
    query_ns: Vec<f64>,
    gc_us: Vec<f64>,
    gc_reclaimed: usize,
    max_breakpoints: usize,
    water_fill_us: Vec<f64>,
    plans: usize,
    granted_plans: usize,
    segments: usize,
}

/// Rebuild the daemon's ledger from its replay replies, in decision
/// order: time every booking, re-run the water-filling solver for every
/// malleable decision against the ledger as it stood, collect garbage
/// behind the same horizon, then probe the final ledger.
fn ledger_and_flex(inp: &Inputs, spans: &mut Spans) -> LedgerFlex {
    let (w, r) = (inp.w, inp.replay);
    let reqs: HashMap<u64, &Request> = r.trace.iter().map(|q| (q.id.0, q)).collect();
    let malleable: HashSet<u64> = r
        .trace
        .iter()
        .filter(|q| w.is_malleable(inp.seed, q.id.0))
        .map(|q| q.id.0)
        .collect();
    let mut ledger = CapacityLedger::new(w.topo.clone());
    let mut rid_of: HashMap<u64, ReservationId> = HashMap::new();
    let mut decided: HashSet<u64> = HashSet::new();
    let mut lf = LedgerFlex::default();
    let phase = spans.open("net.ledger", NONE);
    let mut watermark = f64::NEG_INFINITY;
    let mut clock = 0.0f64;
    for msg in &r.replies {
        let Some(id) = reply_id(msg) else { continue };
        let Some(q) = reqs.get(&id) else { continue };
        let first = decided.insert(id);
        if first {
            // The round deciding a submission is the first tick after it.
            clock = clock.max(((q.start() / STEP).floor() + 1.0) * STEP);
        }
        if clock - GC_HORIZON > watermark + STEP {
            watermark = clock - GC_HORIZON;
            let t0 = Instant::now();
            let g = ledger.gc(watermark);
            let t1 = Instant::now();
            spans.record("net.ledger", phase, 0, t0, t1);
            lf.gc_us.push((t1 - t0).as_secs_f64() * 1e6);
            lf.gc_reclaimed += g.reservations_collected;
        }
        if first && malleable.contains(&id) {
            let mut spec =
                gridband_flex::FlexSpec::new(q.route, q.start(), q.finish(), q.volume, q.max_rate);
            spec.start = spec.start.max(clock);
            if spec.finish - spec.start > 1e-6 {
                let t0 = Instant::now();
                let plan = gridband_flex::water_fill(&ledger, &spec);
                let t1 = Instant::now();
                spans.record("flex", phase, id, t0, t1);
                lf.water_fill_us.push((t1 - t0).as_secs_f64() * 1e6);
                lf.plans += usize::from(plan.is_some());
            }
        }
        let t0 = Instant::now();
        match msg {
            ServerMsg::Accepted {
                bw, start, finish, ..
            } if first => {
                if let Ok(rid) = ledger.reserve(q.route, *start, *finish, *bw) {
                    rid_of.insert(id, rid);
                }
            }
            ServerMsg::AcceptedSegments { segments, .. } => {
                let segs: Vec<SegSpan> = segments
                    .iter()
                    .map(|&(start, end, bw)| SegSpan { start, end, bw })
                    .collect();
                if first {
                    lf.granted_plans += 1;
                    lf.segments += segs.len();
                    if let Ok(rid) = ledger.reserve_segments(q.route, &segs) {
                        rid_of.insert(id, rid);
                    }
                } else if let Some(&rid) = rid_of.get(&id) {
                    let _ = ledger.amend_segments(rid, &segs);
                }
            }
            _ => continue,
        }
        let t1 = Instant::now();
        spans.record("net.ledger", phase, id, t0, t1);
        lf.reserve_ns.push((t1 - t0).as_secs_f64() * 1e9);
    }
    let topo = w.topo.clone();
    lf.max_breakpoints = topo
        .ingress_ids()
        .map(|i| ledger.ingress_profile(i).breakpoint_count())
        .chain(
            topo.egress_ids()
                .map(|e| ledger.egress_profile(e).breakpoint_count()),
        )
        .max()
        .unwrap_or(0);
    for (k, q) in r.trace.iter().cycle().take(PROBES).enumerate() {
        let len = q.finish() - q.start();
        let (s, e) = (clock - 0.25 * len, clock + 0.75 * len);
        let t0 = Instant::now();
        match k % 3 {
            0 => {
                black_box(ledger.fits(q.route, s, e, q.max_rate));
            }
            1 => {
                black_box(ledger.max_fit(q.route, s, e));
            }
            _ => {
                black_box(ledger.route_free_volume(q.route, s, e));
            }
        }
        lf.query_ns.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    spans.close(phase);
    lf
}

#[derive(Default)]
struct StoreProbe {
    append_us: Vec<f64>,
    barrier_us: Vec<f64>,
    recovery_ms: f64,
}

/// Append this run's round records to a fresh on-disk store with a
/// barrier (fsync) per round, then time a recovery of the killed
/// daemon's WAL.
fn store_probe(inp: &Inputs, records: &[WalRecord], spans: &mut Spans) -> StoreProbe {
    let mut p = StoreProbe::default();
    let phase = spans.open("store", NONE);
    let dir = inp.dir.join("store-probe");
    if let Ok(fs) = FsDir::new(&dir) {
        if let Ok((mut store, _)) = Store::open(Arc::new(fs), FsyncPolicy::Round) {
            for rec in records.iter().take(STORE_ROUNDS) {
                let payload = rec.encode();
                let t0 = Instant::now();
                let ok = store.append(&payload).is_ok();
                let t1 = Instant::now();
                let synced = store.round_barrier().is_ok();
                let t2 = Instant::now();
                if !(ok && synced) {
                    break;
                }
                spans.record("store", phase, 0, t0, t1);
                spans.record("store", phase, 0, t1, t2);
                p.append_us.push((t1 - t0).as_secs_f64() * 1e6);
                p.barrier_us.push((t2 - t1).as_secs_f64() * 1e6);
            }
        }
    }
    if let Some(rec) = &inp.recovery {
        let t0 = Instant::now();
        let recovered = FsDir::new(&rec.wal_copy)
            .ok()
            .and_then(|fs| Store::open(Arc::new(fs), FsyncPolicy::Round).ok());
        if let Some((_, found)) = recovered {
            if let Some(snap) = &found.snapshot {
                black_box(gridband_store::EngineSnapshot::decode("snap", snap).is_ok());
            }
            for (off, payload) in &found.records {
                black_box(WalRecord::decode("wal", *off, payload).is_ok());
            }
            let t1 = Instant::now();
            spans.record("store", phase, 0, t0, t1);
            p.recovery_ms = (t1 - t0).as_secs_f64() * 1e3;
        }
    }
    spans.close(phase);
    p
}

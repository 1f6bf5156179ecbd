//! Output checks run on every benchmark run. Any mismatch fails the run
//! and counts as an error.
//!
//! * rigid replay decisions equal the offline WINDOW simulation bit for
//!   bit (rigid-only workloads);
//! * every replay reply equals an in-process engine fed the same stream
//!   (all workloads, so also the malleable grants and amends);
//! * conservation, checked from the grants alone: no port above capacity
//!   at any instant, every grant delivering its volume by its deadline;
//! * after a kill and restart, `Query` returns every decision made
//!   before the kill.

use std::collections::HashMap;
use std::time::Instant;

use crossbeam::channel;
use gridband_algos::{BandwidthPolicy, WindowScheduler};
use gridband_net::{Route, Topology};
use gridband_serve::engine::{Command, ReplySink};
use gridband_serve::protocol::{ClientMsg, ReqState, ServerMsg};
use gridband_serve::wire::encode_server_payload;
use gridband_serve::{Engine, EngineConfig, TimeMode};
use gridband_sim::Simulation;
use gridband_workload::{Request, Trace};

use crate::daemon::{Conn, Res};
use crate::load::reply_id;
use crate::workloads::{Workload, AMEND_VOLUME, GC_HORIZON, STEP};

/// First reply per id (the decision) and the last granted amend plan per
/// id, from replies in arrival order.
pub fn split_replies<'a>(
    replies: impl IntoIterator<Item = &'a ServerMsg>,
) -> (HashMap<u64, ServerMsg>, HashMap<u64, ServerMsg>) {
    let mut first = HashMap::new();
    let mut amended = HashMap::new();
    for msg in replies {
        let Some(id) = reply_id(msg) else { continue };
        if let std::collections::hash_map::Entry::Vacant(e) = first.entry(id) {
            e.insert(msg.clone());
        } else if matches!(msg, ServerMsg::AcceptedSegments { .. }) {
            amended.insert(id, msg.clone());
        }
    }
    (first, amended)
}

/// Ids whose daemon decision differs from the offline WINDOW run of the
/// same trace (rigid requests only).
pub fn offline_mismatches(
    w: &Workload,
    trace: &[Request],
    first: &HashMap<u64, ServerMsg>,
) -> usize {
    let report = Simulation::new(w.topo.clone()).without_verification().run(
        &Trace::new(trace.to_vec()),
        &mut WindowScheduler::new(STEP, BandwidthPolicy::MAX_RATE),
    );
    let mut bad = 0;
    for a in &report.assignments {
        let same = matches!(first.get(&a.id.0), Some(ServerMsg::Accepted { bw, start, finish, .. })
            if bw.to_bits() == a.bw.to_bits()
                && start.to_bits() == a.start.to_bits()
                && finish.to_bits() == a.finish.to_bits());
        bad += usize::from(!same);
    }
    for id in &report.rejected {
        bad += usize::from(!matches!(
            first.get(&id.0),
            Some(ServerMsg::Rejected { .. })
        ));
    }
    bad + trace
        .len()
        .saturating_sub(report.assignments.len() + report.rejected.len())
}

/// An in-process engine with the daemon's configuration and a virtual
/// clock, fed `stream` through its command channel with no sockets.
pub struct DirectReplay {
    pub replies: Vec<ServerMsg>,
    /// First command sent → last reply received.
    pub wall_s: f64,
    pub rounds: u64,
}

pub fn engine_config(w: &Workload, mode: TimeMode, queue: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(w.topo.clone());
    cfg.step = STEP;
    cfg.policy = BandwidthPolicy::MAX_RATE;
    cfg.mode = mode;
    cfg.queue_capacity = queue;
    cfg.gc_horizon = Some(GC_HORIZON);
    cfg.malleable = w.malleable > 0.0;
    cfg
}

pub fn engine_replay(w: &Workload, stream: &[ClientMsg]) -> DirectReplay {
    let engine = Engine::spawn(engine_config(w, TimeMode::Virtual, stream.len() + 64));
    let (tx, rx) = channel::bounded(stream.len() + 64);
    let sink = ReplySink::from(tx);
    let sender = engine.sender();
    let t0 = Instant::now();
    for msg in stream.iter().chain([&ClientMsg::Drain]) {
        let cmd = Command::Client {
            msg: msg.clone(),
            reply: sink.clone(),
        };
        if sender.send(cmd).is_err() {
            break;
        }
    }
    let mut replies = Vec::with_capacity(stream.len());
    let mut last = t0;
    while let Ok(msg) = rx.recv_timeout(std::time::Duration::from_secs(60)) {
        if matches!(msg, ServerMsg::Draining { .. }) {
            break;
        }
        last = Instant::now();
        replies.push(msg);
    }
    let rounds = engine
        .metrics()
        .ticks
        .load(std::sync::atomic::Ordering::Relaxed);
    engine.shutdown();
    DirectReplay {
        replies,
        wall_s: last.saturating_duration_since(t0).as_secs_f64(),
        rounds,
    }
}

/// Positions at which two reply sequences differ in any bit.
pub fn reply_mismatches(a: &[ServerMsg], b: &[ServerMsg]) -> usize {
    let diff = a
        .iter()
        .zip(b)
        .filter(|(x, y)| encode_server_payload(x) != encode_server_payload(y))
        .count();
    diff + a.len().abs_diff(b.len())
}

/// One granted reservation as the conservation check sees it.
pub struct Grant {
    pub id: u64,
    pub route: Route,
    pub volume: f64,
    pub max_rate: f64,
    pub deadline: f64,
    /// `(start, end, bw)` segments; one for a rigid grant.
    pub plan: Vec<(f64, f64, f64)>,
    pub rigid: bool,
}

/// Grants implied by the decisions (with amended plans replacing the
/// originals). `deadline_of` gives the deadline each request was sent
/// with.
pub fn grants(
    reqs: &HashMap<u64, Request>,
    first: &HashMap<u64, ServerMsg>,
    amended: &HashMap<u64, ServerMsg>,
    deadline_of: impl Fn(&Request) -> f64,
) -> Vec<Grant> {
    let mut out = Vec::new();
    let mut ids: Vec<&u64> = first.keys().collect();
    ids.sort();
    for id in ids {
        let Some(r) = reqs.get(id) else { continue };
        let (plan, volume, rigid) = match (amended.get(id), &first[id]) {
            (Some(ServerMsg::AcceptedSegments { segments, .. }), _) => {
                (segments.clone(), r.volume * AMEND_VOLUME, false)
            }
            (_, ServerMsg::AcceptedSegments { segments, .. }) => {
                (segments.clone(), r.volume, false)
            }
            (
                _,
                ServerMsg::Accepted {
                    bw, start, finish, ..
                },
            ) => (vec![(*start, *finish, *bw)], r.volume, true),
            _ => continue,
        };
        out.push(Grant {
            id: *id,
            route: r.route,
            volume,
            max_rate: r.max_rate,
            deadline: deadline_of(r),
            plan,
            rigid,
        });
    }
    out
}

/// Conservation violations, described.
pub fn conservation(topo: &Topology, grants: &[Grant]) -> Vec<String> {
    let m = topo.num_ingress();
    let mut events: Vec<Vec<(f64, f64)>> = vec![Vec::new(); m + topo.num_egress()];
    let mut bad = Vec::new();
    for g in grants {
        let mut delivered = 0.0;
        for &(s, e, bw) in &g.plan {
            if !(e > s && bw > 0.0 && bw <= g.max_rate * (1.0 + 1e-9) + 1e-9) {
                bad.push(format!("id {}: bad segment ({s}, {e}, {bw})", g.id));
            }
            delivered += bw * (e - s);
            for port in [g.route.ingress.index(), m + g.route.egress.index()] {
                events[port].push((s, bw));
                events[port].push((e, -bw));
            }
        }
        // A stepwise plan may fall short by the solver's documented
        // volume tolerance; a constant-rate grant only by rounding.
        let rtol = if g.rigid {
            1e-9
        } else {
            gridband_flex::VOLUME_RTOL
        };
        if delivered < g.volume - rtol * g.volume.max(1.0) - 1e-6 {
            bad.push(format!(
                "id {}: delivers {delivered} of {} MB",
                g.id, g.volume
            ));
        }
        let end = g.plan.iter().map(|p| p.1).fold(f64::MIN, f64::max);
        if end > g.deadline + 1e-6 + g.deadline.abs() * 1e-12 {
            bad.push(format!(
                "id {}: ends {end} after its deadline {}",
                g.id, g.deadline
            ));
        }
    }
    for (port, ev) in events.iter_mut().enumerate() {
        let cap = if port < m {
            topo.ingress_cap(gridband_net::IngressId(port as u32))
        } else {
            topo.egress_cap(gridband_net::EgressId((port - m) as u32))
        };
        // Ends before starts at the same instant.
        ev.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut load = 0.0;
        for &(t, d) in ev.iter() {
            load += d;
            if load > cap + 1e-5 + cap * 1e-9 {
                bad.push(format!("port {port}: {load} MB/s > {cap} at t={t}"));
                break;
            }
        }
    }
    bad
}

/// Query every decided id on a restarted daemon; returns how many
/// answers differ from the decision given before the kill.
pub fn recovery_mismatches(conn: &mut Conn, decided: &HashMap<u64, ServerMsg>) -> Res<usize> {
    let mut ids: Vec<u64> = decided.keys().copied().collect();
    ids.sort_unstable();
    let mut bad = 0;
    // Bounded batches keep the daemon's reply buffer small.
    for chunk in ids.chunks(512) {
        for &id in chunk {
            conn.send(&ClientMsg::Query { id })?;
        }
        for &id in chunk {
            let ServerMsg::Status {
                id: got,
                state,
                alloc,
            } = conn.recv()?
            else {
                bad += 1;
                continue;
            };
            let same = got == id
                && match &decided[&id] {
                    ServerMsg::Accepted {
                        bw, start, finish, ..
                    } => {
                        state == ReqState::Accepted
                            && alloc.is_none_or(|(b, s, f)| {
                                (b.to_bits(), s.to_bits(), f.to_bits())
                                    == (bw.to_bits(), start.to_bits(), finish.to_bits())
                            })
                    }
                    ServerMsg::AcceptedSegments { .. } => state == ReqState::Accepted,
                    _ => state == ReqState::Rejected,
                };
            bad += usize::from(!same);
        }
    }
    Ok(bad)
}

//! The two load phases against a live daemon.
//!
//! * **replay** pipelines a whole stream on one connection, then `Drain`,
//!   and collects every reply: the daemon's capacity, deterministic in a
//!   virtual-clock daemon. No latency is taken here.
//! * **serve** is open loop against a real-time daemon: each submission
//!   is due at its trace arrival compressed by `tick/step`, and latency
//!   runs from that intended send time to the decision's arrival, so a
//!   stalled sender cannot hide the delay it caused.
//!
//! The generator is this process: the main thread sends, one thread
//! reads every connection.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridband_serve::metrics::StatsSnapshot;
use gridband_serve::protocol::{ClientMsg, RejectReason, ServerMsg};
use gridband_serve::wire::WireMode;
use gridband_workload::Request;

use crate::daemon::{encode, Conn, Res, Rx};
use crate::spans::Spans;
use crate::stats::{median, Pctl};
use crate::workloads::{amend, submit, Workload};

/// Replies that count as errors rather than decisions.
pub fn is_error(msg: &ServerMsg) -> bool {
    matches!(
        msg,
        ServerMsg::Error { .. }
            | ServerMsg::Rejected {
                reason: RejectReason::QueueFull
                    | RejectReason::Drained
                    | RejectReason::ShuttingDown,
                ..
            }
    )
}

pub fn reply_id(msg: &ServerMsg) -> Option<u64> {
    match msg {
        ServerMsg::Accepted { id, .. }
        | ServerMsg::AcceptedSegments { id, .. }
        | ServerMsg::Rejected { id, .. } => Some(*id),
        _ => None,
    }
}

pub struct ReplayOut {
    /// Every reply except the final `Draining`, in arrival order.
    pub replies: Vec<ServerMsg>,
    /// First byte sent → last reply received.
    pub wall_s: f64,
    /// Error replies plus messages left unanswered.
    pub errors: u64,
}

/// Pipeline `stream` plus `Drain` over one connection and collect every
/// reply.
pub fn replay(addr: &str, wire: WireMode, stream: &[ClientMsg]) -> Res<ReplayOut> {
    let mut conn = Conn::connect(addr, wire)?;
    let mut bytes = Vec::with_capacity(stream.len() * 96);
    for m in stream.iter().chain([&ClientMsg::Drain]) {
        bytes.extend_from_slice(&encode(wire, m));
    }
    let mut read_half = conn.stream.try_clone().map_err(|e| e.to_string())?;
    let reader = std::thread::spawn(move || -> Res<(Vec<ServerMsg>, Instant)> {
        let mut rx = Rx::new(wire);
        let mut out = Vec::new();
        let mut batch = Vec::new();
        let mut last = Instant::now();
        let mut chunk = vec![0u8; 256 * 1024];
        loop {
            let n = read_half
                .read(&mut chunk)
                .map_err(|e| format!("replay read: {e}"))?;
            if n == 0 {
                return Ok((out, last));
            }
            rx.feed(&chunk[..n], &mut batch)?;
            for msg in batch.drain(..) {
                if matches!(msg, ServerMsg::Draining { .. }) {
                    return Ok((out, last));
                }
                last = Instant::now();
                out.push(msg);
            }
        }
    });
    let t0 = Instant::now();
    for piece in bytes.chunks(64 * 1024) {
        conn.stream
            .write_all(piece)
            .map_err(|e| format!("replay send: {e}"))?;
    }
    let (replies, last) = reader
        .join()
        .map_err(|_| "replay reader panicked".to_string())??;
    let errors = replies.iter().filter(|m| is_error(m)).count() as u64
        + stream.len().saturating_sub(replies.len()) as u64;
    Ok(ReplayOut {
        wall_s: last.saturating_duration_since(t0).as_secs_f64(),
        replies,
        errors,
    })
}

/// One scheduled submission of a serve phase.
#[derive(Clone, Copy)]
pub struct ServeItem {
    /// Seconds after the schedule start at which it is due.
    pub at: f64,
    pub req: Request,
    pub malleable: bool,
    pub amended: bool,
}

/// Build a serve schedule from a trace: arrivals compressed by the
/// workload's `tick/step`.
pub fn schedule(w: &Workload, seed: u64, trace: &[Request]) -> Vec<ServeItem> {
    let s0 = trace.first().map_or(0.0, |r| r.start());
    trace
        .iter()
        .map(|r| ServeItem {
            at: (r.start() - s0) * w.wall_per_virtual(),
            req: *r,
            malleable: w.is_malleable(seed, r.id.0),
            amended: w.is_amended(seed, r.id.0),
        })
        .collect()
}

pub struct ServeOut {
    /// Scheduled span of the submissions, seconds.
    pub wall_s: f64,
    /// Intended send → decision received, ms, per codec index.
    pub lat_ms: Vec<Vec<f64>>,
    /// The same latencies, one vector per sub-phase.
    pub slices: Vec<Vec<f64>>,
    /// Actual − intended send time, ms.
    pub lag_ms: Vec<f64>,
    /// Submissions due before the last one but still unsent when it
    /// fell due.
    pub backlog_end: usize,
    /// First reply per id.
    pub decisions: HashMap<u64, ServerMsg>,
    /// Final plan per amended id (granted amends only).
    pub amended_plans: HashMap<u64, ServerMsg>,
    /// Deadline sent with each submission (daemon clock).
    pub deadlines: HashMap<u64, f64>,
    pub submitted: u64,
    pub amends_sent: u64,
    pub errors: u64,
    pub stats: StatsSnapshot,
    /// Whether the generator's threads ran under `SCHED_FIFO`.
    pub realtime: bool,
}

impl ServeOut {
    /// Offered submissions per second of schedule.
    pub fn offered_rate(&self) -> f64 {
        self.submitted as f64 / self.wall_s.max(1e-9)
    }

    pub fn all_lat_ms(&self) -> Vec<f64> {
        self.lat_ms.iter().flatten().copied().collect()
    }

    /// p50 and p99 as the median over the sub-phases, each sub-phase's
    /// percentiles taken from its own raw samples.
    pub fn sliced(&self) -> Sliced {
        let each: Vec<Pctl> = self.slices.iter().map(|s| Pctl::of(s)).collect();
        Sliced {
            n: each.iter().map(|p| p.n).sum(),
            slices: each.len(),
            p50: median(&each.iter().map(|p| p.p50).collect::<Vec<_>>()),
            p99: median(&each.iter().map(|p| p.p99).collect::<Vec<_>>()),
        }
    }

    /// Fold a later sub-phase on the same daemon into this one.
    fn merge(&mut self, later: ServeOut) {
        for (k, v) in later.lat_ms.into_iter().enumerate() {
            self.lat_ms[k].extend(v);
        }
        self.slices.extend(later.slices);
        self.lag_ms.extend(later.lag_ms);
        self.backlog_end = self.backlog_end.max(later.backlog_end);
        self.decisions.extend(later.decisions);
        self.amended_plans.extend(later.amended_plans);
        self.deadlines.extend(later.deadlines);
        self.submitted += later.submitted;
        self.amends_sent += later.amends_sent;
        self.errors += later.errors;
        self.stats = later.stats;
        self.realtime &= later.realtime;
        self.wall_s += later.wall_s;
    }
}

/// Latency percentiles as medians over the sub-phases of one phase.
pub struct Sliced {
    pub n: usize,
    pub slices: usize,
    pub p50: f64,
    pub p99: f64,
}

/// A serve phase runs as up to this many consecutive sub-phases on the
/// same daemon, each on fresh connections with at least [`MIN_SLICE`]
/// submissions (ten beyond its p99). Connection state that settles per
/// connection, such as the daemon's Nagle and the kernel's delayed ACKs,
/// is drawn afresh in each, and the median over them is reported.
pub const SLICES: usize = 8;
pub const MIN_SLICE: usize = 1000;

/// Run a serve phase as consecutive sub-phases (see [`SLICES`]).
pub fn serve_sliced(
    addr: &str,
    w: &Workload,
    items: &[ServeItem],
    spans: &mut Spans,
    parent: usize,
) -> Res<ServeOut> {
    let k = (items.len() / MIN_SLICE).clamp(1, SLICES);
    let mut total: Option<ServeOut> = None;
    for chunk in items.chunks(items.len().div_ceil(k).max(1)) {
        let base = chunk[0].at;
        let rebased: Vec<ServeItem> = chunk
            .iter()
            .map(|it| ServeItem {
                at: it.at - base,
                ..*it
            })
            .collect();
        let out = serve(addr, w, &rebased, spans, parent)?;
        match total.as_mut() {
            None => total = Some(out),
            Some(t) => t.merge(out),
        }
    }
    total.ok_or_else(|| "empty serve schedule".to_string())
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

#[repr(C)]
struct SchedParam {
    sched_priority: std::os::raw::c_int,
}

extern "C" {
    fn sched_setscheduler(
        pid: std::os::raw::c_int,
        policy: std::os::raw::c_int,
        param: *const SchedParam,
    ) -> std::os::raw::c_int;
}

/// Run the calling thread under `SCHED_FIFO` (`on`) or back under the
/// default policy. The generator's two threads sleep between sends and
/// reads and use a few percent of a CPU, so a real-time policy costs the
/// daemon almost nothing but keeps them on schedule on a machine with
/// two CPUs. Returns whether the policy could be set; without the
/// privilege the generator runs at the default policy, and its lateness
/// still bounds the phase's validity.
pub fn realtime(on: bool) -> bool {
    const SCHED_OTHER: std::os::raw::c_int = 0;
    const SCHED_FIFO: std::os::raw::c_int = 1;
    let (policy, prio) = if on {
        (SCHED_FIFO, 1)
    } else {
        (SCHED_OTHER, 0)
    };
    let param = SchedParam {
        sched_priority: prio,
    };
    // SAFETY: `param` is a live, properly laid out sched_param for the
    // duration of the call; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, policy, &param) == 0 }
}

/// Indices of the readable sockets among `socks`, waiting at most
/// `timeout_ms`.
fn readable(socks: &[std::net::TcpStream], timeout_ms: i32) -> Vec<usize> {
    let mut fds: Vec<PollFd> = socks
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: 0x001,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of pollfd-layout
    // structs for the whole call, and its length is passed alongside.
    let n = unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            timeout_ms,
        )
    };
    if n <= 0 {
        return Vec::new();
    }
    (0..fds.len()).filter(|&i| fds[i].revents != 0).collect()
}

struct Received {
    /// (conn, reply, arrival time)
    msgs: Vec<(usize, ServerMsg, Instant)>,
}

/// Run one open-loop serve phase against the daemon at `addr`.
pub fn serve(
    addr: &str,
    w: &Workload,
    items: &[ServeItem],
    spans: &mut Spans,
    parent: usize,
) -> Res<ServeOut> {
    let mut conns: Vec<Conn> = w
        .codecs
        .iter()
        .map(|&c| Conn::connect(addr, c))
        .collect::<Res<_>>()?;
    let nconn = conns.len();
    // Calibrate the trace against the daemon clock once: deadlines are
    // sent in daemon time, starts are left to the daemon ("now").
    let v0 = conns[0].stats()?.virtual_time;
    let w0 = Instant::now();
    let lead = Duration::from_millis(20);
    let start = w0 + lead;
    let s0 = items.first().map_or(0.0, |i| i.req.start());
    let v_at =
        |it: &ServeItem| v0 + lead.as_secs_f64() / w.wall_per_virtual() + (it.req.start() - s0);
    let last_at = items.last().map_or(0.0, |i| i.at);
    let end_by = start + Duration::from_secs_f64(last_at) + Duration::from_secs(5);

    let n = items.len();
    let amended: HashSet<u64> = items
        .iter()
        .filter(|i| i.amended)
        .map(|i| i.req.id.0)
        .collect();
    let sender_done = Arc::new(AtomicBool::new(false));
    let amends_sent = Arc::new(AtomicUsize::new(0));
    let (amend_tx, amend_rx) = std::sync::mpsc::channel::<u64>();
    let socks: Vec<std::net::TcpStream> = conns
        .iter()
        .map(|c| c.stream.try_clone())
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let codecs: Vec<WireMode> = w.codecs.to_vec();
    let (done_flag, sent_count) = (sender_done.clone(), amends_sent.clone());
    let rt = realtime(true);
    let reader = std::thread::spawn(move || -> Res<Received> {
        realtime(rt);
        let mut rxs: Vec<Rx> = codecs.iter().map(|&c| Rx::new(c)).collect();
        let mut socks = socks;
        let mut got = Received { msgs: Vec::new() };
        let mut decided: HashSet<u64> = HashSet::with_capacity(n);
        let mut amend_replies = 0usize;
        let mut batch = Vec::new();
        let mut chunk = vec![0u8; 256 * 1024];
        loop {
            let complete = decided.len() >= n
                && done_flag.load(Ordering::SeqCst)
                && amend_replies >= sent_count.load(Ordering::SeqCst);
            if complete || Instant::now() > end_by {
                return Ok(got);
            }
            for k in readable(&socks, 10) {
                let nread = socks[k]
                    .read(&mut chunk)
                    .map_err(|e| format!("serve read: {e}"))?;
                if nread == 0 {
                    return Err("daemon closed a serve connection".into());
                }
                let now = Instant::now();
                rxs[k].feed(&chunk[..nread], &mut batch)?;
                for msg in batch.drain(..) {
                    if let Some(id) = reply_id(&msg) {
                        if decided.insert(id) {
                            if amended.contains(&id)
                                && matches!(msg, ServerMsg::AcceptedSegments { .. })
                            {
                                let _ = amend_tx.send(id);
                            }
                        } else {
                            amend_replies += 1;
                        }
                    }
                    got.msgs.push((k, msg, now));
                }
            }
        }
    });

    let by_id: HashMap<u64, &Request> = items.iter().map(|i| (i.req.id.0, &i.req)).collect();
    let mut intended = HashMap::with_capacity(n);
    let mut actual = Vec::with_capacity(n);
    let mut deadlines = HashMap::with_capacity(n);
    let mut amends = 0u64;
    for it in items {
        let due = start + Duration::from_secs_f64(it.at);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let id = it.req.id.0;
        let deadline = v_at(it) + (it.req.finish() - it.req.start());
        let msg = submit(&it.req, it.malleable, None, deadline);
        actual.push(Instant::now());
        send_one(&mut conns[id as usize % nconn], &msg, id, spans, parent)?;
        intended.insert(id, due);
        deadlines.insert(id, deadline);
        amends += drain_amends(&amend_rx, &by_id, &deadlines, &mut conns, spans, parent)?;
    }
    // Let amends of the last decisions go out before closing the books.
    let grace = Instant::now() + Duration::from_millis(if w.amend > 0.0 { 200 } else { 0 });
    while Instant::now() < grace {
        amends += drain_amends(&amend_rx, &by_id, &deadlines, &mut conns, spans, parent)?;
        amends_sent.store(amends as usize, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(5));
    }
    amends_sent.store(amends as usize, Ordering::SeqCst);
    sender_done.store(true, Ordering::SeqCst);
    let got = reader.join();
    realtime(false);
    let got = got.map_err(|_| "serve reader panicked".to_string())??;

    let last_due = start + Duration::from_secs_f64(last_at);
    let backlog_end = items
        .iter()
        .zip(&actual)
        .filter(|(it, &a)| it.at < last_at && a > last_due)
        .count();
    let lag_ms: Vec<f64> = items
        .iter()
        .zip(&actual)
        .map(|(it, a)| {
            let due = start + Duration::from_secs_f64(it.at);
            a.saturating_duration_since(due).as_secs_f64() * 1e3
        })
        .collect();
    let mut lat_ms = vec![Vec::with_capacity(n / nconn + 1); nconn];
    let mut decisions = HashMap::with_capacity(n);
    let mut amended_plans = HashMap::new();
    let mut errors = 0u64;
    for (k, msg, at) in got.msgs {
        if is_error(&msg) {
            errors += 1;
        }
        let Some(id) = reply_id(&msg) else { continue };
        if let std::collections::hash_map::Entry::Vacant(e) = decisions.entry(id) {
            if let Some(&due) = intended.get(&id) {
                let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                lat_ms[k].push(ms);
                spans.record("serve.server", parent, id, due, at);
            }
            e.insert(msg);
        } else if matches!(msg, ServerMsg::AcceptedSegments { .. }) {
            amended_plans.insert(id, msg);
        }
    }
    errors += n.saturating_sub(decisions.len()) as u64;
    // Daemon-side drops are cumulative in `Stats`; the phase's caller
    // adds them once.
    let stats = conns[0].stats()?;
    Ok(ServeOut {
        wall_s: last_at,
        slices: vec![lat_ms.iter().flatten().copied().collect()],
        lat_ms,
        lag_ms,
        backlog_end,
        decisions,
        amended_plans,
        deadlines,
        submitted: n as u64,
        amends_sent: amends,
        errors,
        stats,
        realtime: rt,
    })
}

/// Send an amend for every accepted id the reader handed back.
fn drain_amends(
    rx: &std::sync::mpsc::Receiver<u64>,
    by_id: &HashMap<u64, &Request>,
    deadlines: &HashMap<u64, f64>,
    conns: &mut [Conn],
    spans: &mut Spans,
    parent: usize,
) -> Res<u64> {
    let mut sent = 0;
    let n = conns.len();
    while let Ok(id) = rx.try_recv() {
        let msg = amend(by_id[&id], deadlines[&id]);
        send_one(&mut conns[id as usize % n], &msg, id, spans, parent)?;
        sent += 1;
    }
    Ok(sent)
}

fn send_one(
    conn: &mut Conn,
    msg: &ClientMsg,
    id: u64,
    spans: &mut Spans,
    parent: usize,
) -> Res<()> {
    let t = Instant::now();
    let bytes = encode(conn.wire, msg);
    let name = match conn.wire {
        WireMode::Json => "serve.protocol",
        WireMode::Binary => "serve.wire",
    };
    spans.record(name, parent, id, t, Instant::now());
    conn.stream
        .write_all(&bytes)
        .map_err(|e| format!("serve send: {e}"))
}

//! The three workloads and the inputs generated from a seed.
//!
//! The daemon only ever sees what is generated here: submissions (and,
//! on `deep_flex`, amends) built from a `gridband-workload` trace. The
//! seed never reaches it.

use gridband_net::Topology;
use gridband_serve::protocol::{ClientMsg, SubmitReq};
use gridband_serve::wire::WireMode;
use gridband_workload::{Dist, Request, WorkloadBuilder};

/// One benchmark workload: a trace shape plus the daemon configuration
/// that serves it.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// `--topo` value handed to the daemon.
    pub topo_spec: &'static str,
    pub topo: Topology,
    /// Mean interarrival of the replay and nominal serve traces.
    pub interarrival: f64,
    pub slack: Dist,
    pub volumes: Option<Dist>,
    pub max_rates: Option<Dist>,
    /// Share of submissions that ask for a malleable grant.
    pub malleable: f64,
    /// Share of malleable submissions that are later amended.
    pub amend: f64,
    /// Run the daemon with a WAL directory and kill/restart it.
    pub durable: bool,
    /// Real-time tick of the serve phases (ms of wall time per `step`).
    pub tick_ms: u64,
    /// One connection per entry in the serve phases.
    pub codecs: &'static [WireMode],
    /// Submissions in the replay trace.
    pub replay_requests: usize,
    /// Fixed p99 limits (ms) of the nominal and the high serve rate.
    pub p99_limit_ms: [f64; 2],
}

pub const NAMES: [&str; 3] = ["paper_mem", "deep_flex", "durable"];

/// Admission interval `t_step` (virtual seconds), the paper's §5.3 value.
/// Every workload runs WINDOW with the MAX-rate policy.
pub const STEP: f64 = 50.0;
/// The high serve rate is this many times the nominal one.
pub const HI_FACTOR: f64 = 3.0;
/// `--gc-horizon`: every daemon collects garbage this far behind its
/// clock, so "live" breakpoints are the ones still ahead of it.
pub const GC_HORIZON: f64 = 500.0;
/// `durable` serves with one fsync per admission round and a snapshot
/// every 64 rounds, so their cost sits in the serve phases' latency, in
/// `setup_s` (recovery) and in `store.barrier_us`.
pub const SERVE_STORE: [&str; 4] = ["--fsync", "round", "--snapshot-every", "64"];
/// `durable` replays with every round appended to the WAL but nothing
/// fsynced: no per-round fsync and no snapshots, whose installs fsync
/// whatever the policy. The replay measures the decision path's
/// capacity, store appends included. With fsyncs in it, replay
/// throughput followed the shared disk's fsync latency and the median
/// of ten identical runs spread by a fifth to a third.
pub const REPLAY_STORE: [&str; 4] = ["--fsync", "off", "--snapshot-every", "0"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let paper = Workload {
            name: "paper_mem",
            topo_spec: "paper",
            topo: Topology::paper_default(),
            interarrival: 2.0,
            slack: Dist::Uniform { lo: 2.0, hi: 4.0 },
            volumes: None,
            max_rates: None,
            malleable: 0.0,
            amend: 0.0,
            durable: false,
            tick_ms: 40,
            codecs: &[WireMode::Json, WireMode::Binary],
            replay_requests: 120_000,
            p99_limit_ms: [80.0, 100.0],
        };
        match name {
            "paper_mem" => Some(paper),
            "deep_flex" => Some(Workload {
                name: "deep_flex",
                topo_spec: "3x3x1000",
                topo: Topology::uniform(3, 3, 1000.0),
                interarrival: 3.0,
                slack: Dist::Uniform { lo: 4.0, hi: 12.0 },
                volumes: Some(Dist::Uniform {
                    lo: 1_000.0,
                    hi: 20_000.0,
                }),
                max_rates: Some(Dist::Uniform { lo: 0.5, hi: 4.0 }),
                malleable: 0.3,
                amend: 0.3,
                tick_ms: 80,
                codecs: &[WireMode::Binary],
                replay_requests: 6_000,
                p99_limit_ms: [160.0, 200.0],
                ..paper
            }),
            "durable" => Some(Workload {
                name: "durable",
                durable: true,
                tick_ms: 80,
                codecs: &[WireMode::Binary],
                p99_limit_ms: [160.0, 200.0],
                ..paper
            }),
            _ => None,
        }
    }

    /// Daemon flags of the serve phases and restarts (the serve phases
    /// add `--tick-ms`, durable phases `--wal-dir`).
    pub fn daemon_flags(&self) -> Vec<String> {
        self.flags_with(SERVE_STORE)
    }

    /// Daemon flags of the replay phase: `REPLAY_STORE` in place of
    /// `SERVE_STORE`.
    pub fn replay_flags(&self) -> Vec<String> {
        self.flags_with(REPLAY_STORE)
    }

    fn flags_with(&self, store: [&str; 4]) -> Vec<String> {
        let mut f = vec![
            "--topo".to_string(),
            self.topo_spec.to_string(),
            "--step".to_string(),
            STEP.to_string(),
            "--policy".to_string(),
            "max".to_string(),
            "--gc-horizon".to_string(),
            GC_HORIZON.to_string(),
        ];
        if self.malleable > 0.0 {
            f.push("--malleable".to_string());
        }
        if self.durable {
            f.extend(store.iter().map(|s| s.to_string()));
        }
        f
    }

    /// Wall seconds per virtual second in the serve phases.
    pub fn wall_per_virtual(&self) -> f64 {
        self.tick_ms as f64 / 1000.0 / STEP
    }

    /// Nominal offered rate of the serve phase (submissions/s).
    pub fn nominal_rate(&self) -> f64 {
        1.0 / (self.interarrival * self.wall_per_virtual())
    }

    /// A trace of at most `n` requests at mean interarrival `ia`.
    pub fn trace(&self, seed: u64, ia: f64, n: usize) -> Vec<Request> {
        let mut b = WorkloadBuilder::new(self.topo.clone())
            .mean_interarrival(ia)
            .slack(self.slack.clone())
            .horizon(n as f64 * ia * 1.2 + 10.0 * STEP)
            .seed(seed);
        if let Some(v) = &self.volumes {
            b = b.volumes(v.clone());
        }
        if let Some(r) = &self.max_rates {
            b = b.max_rates(r.clone());
        }
        b.build().iter().take(n).copied().collect()
    }

    pub fn is_malleable(&self, seed: u64, id: u64) -> bool {
        picks(id, seed, MALLEABLE_SALT, self.malleable)
    }

    pub fn is_amended(&self, seed: u64, id: u64) -> bool {
        self.is_malleable(seed, id) && picks(id, seed, AMEND_SALT, self.amend)
    }

    /// The replay stream: every submission in trace order, with each
    /// picked amend placed at a fixed position two rounds after its
    /// target's start, so the stream (and every decision) is a pure
    /// function of the seed.
    pub fn replay_stream(&self, seed: u64, trace: &[Request]) -> Vec<ClientMsg> {
        let mut out = Vec::with_capacity(trace.len() * 2);
        let mut due: std::collections::VecDeque<(f64, ClientMsg)> = Default::default();
        for r in trace {
            while due.front().is_some_and(|(t, _)| *t <= r.start()) {
                out.push(due.pop_front().expect("front checked").1);
            }
            let malleable = self.is_malleable(seed, r.id.0);
            out.push(submit(r, malleable, Some(r.start()), r.finish()));
            if self.is_amended(seed, r.id.0) {
                due.push_back((r.start() + 2.0 * STEP, amend(r, r.finish())));
            }
        }
        out
    }
}

/// A submission message for `r`.
pub fn submit(r: &Request, malleable: bool, start: Option<f64>, deadline: f64) -> ClientMsg {
    ClientMsg::Submit(SubmitReq {
        id: r.id.0,
        ingress: r.route.ingress.0,
        egress: r.route.egress.0,
        volume: r.volume,
        max_rate: r.max_rate,
        start,
        deadline: Some(deadline),
        class: Default::default(),
        malleable: malleable.then_some(true),
    })
}

/// The renegotiation sent for an amended request: 60% of its volume
/// still to deliver, same rate ceiling, the deadline it was submitted
/// with.
pub fn amend(r: &Request, deadline: f64) -> ClientMsg {
    ClientMsg::Amend {
        id: r.id.0,
        volume: r.volume * AMEND_VOLUME,
        max_rate: r.max_rate,
        deadline: Some(deadline),
    }
}

pub const AMEND_VOLUME: f64 = 0.6;

/// Derive an independent sub-seed for one phase.
pub fn sub_seed(seed: u64, phase: u64) -> u64 {
    mix(seed ^ phase.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn picks(id: u64, seed: u64, salt: u64, frac: f64) -> bool {
    if frac <= 0.0 {
        return false;
    }
    let x = mix((seed ^ salt) ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    ((x >> 11) as f64 / (1u64 << 53) as f64) < frac
}

const MALLEABLE_SALT: u64 = 0xa076_1d64_78bd_642f;
const AMEND_SALT: u64 = 0xe703_7ed1_a0b4_28db;

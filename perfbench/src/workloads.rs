//! The four workloads: their inputs, engines and one timed pass each.

use crate::{alloc, fingerprint, load, procfs};
use std::time::Instant;
use webcache_primitives::seed::{derive, derive_indexed};
use webcache_sim::{
    build_engine, run_churn, ChurnConfig, ChurnReport, ClockMode, Engine, ExperimentConfig,
    FaultPlan, HierGdEngine, HierGdOptions, HitClass, NetworkModel, NoopRecorder, RunMetrics,
    SchemeEngine, SchemeKind, SimClock, Sizing,
};
use webcache_workload::{ProWGen, ProWGenConfig, Trace};

/// The seed the recorded fingerprints were taken at: ProWGen's own
/// default, so `hiergd-compat` at this seed replays exactly the
/// workload of `BENCH_throughput.json`.
pub const DEFAULT_SEED: u64 = 0x5EED_2003;

/// Requests per proxy trace.
const REQUESTS: usize = 250_000;
/// Distinct objects per trace.
const OBJECTS: usize = 10_000;
/// Proxy cache size as a fraction of the infinite cache size.
const CACHE_FRAC: f64 = 0.1;
/// Event-clock latency scale: service fits inside the one-round arrival
/// gap (ρ < 1), as in the overload and durability harnesses.
const EVENT_SCALE: f64 = 1.0 / 16.0;
/// Client machines in the churn drill's cluster.
const CHURN_MACHINES: usize = 256;
/// The churn drill's fault plan: transport faults, correlated failure
/// domains, paced repair, and a crash, burst, departure, domain failure
/// and rejoin schedule spread over the run.
pub const CHURN_PLAN: &str = "loss=0.01,mloss=0.01,dup=0.01,reorder=0.01,domains=8,repair=4,\
     crash@30000,crash@90000,crash@120000,crash@180000,burst@60000:6,depart@100000,\
     domainfail@150000:3,rejoin@200000";

/// One workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hier-GD on the compat clock, 2 proxies × 100 client caches.
    HierGdCompat,
    /// FC (cost-benefit) on the event clock over the same traces.
    FcEvent,
    /// The `run_churn` drill: a faulted drive plus its fault-free twin.
    ChurnEvent,
    /// Hier-GD on the compat clock with 5,000 client caches per proxy.
    HierGd5k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::HierGdCompat, Workload::FcEvent, Workload::ChurnEvent, Workload::HierGd5k];

    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HierGdCompat => "hiergd-compat",
            Workload::FcEvent => "fc-event",
            Workload::ChurnEvent => "churn-event",
            Workload::HierGd5k => "hiergd-5k",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads on the event clock, whose offered load
    /// must stay below 1.
    pub fn is_event(self) -> bool {
        matches!(self, Workload::FcEvent | Workload::ChurnEvent)
    }

    /// The latency model the workload runs on.
    pub fn net(self) -> NetworkModel {
        if self.is_event() {
            NetworkModel::default().scaled(EVENT_SCALE)
        } else {
            NetworkModel::default()
        }
    }

    /// The engine configuration of the workload, or of the churn drill's
    /// fault-free engine (one proxy, `k = 2`).
    pub fn experiment(self) -> ExperimentConfig {
        let (scheme, clients) = match self {
            Workload::HierGdCompat => (SchemeKind::HierGd, 100),
            Workload::FcEvent => (SchemeKind::Fc, 100),
            Workload::ChurnEvent => (SchemeKind::HierGd, CHURN_MACHINES),
            Workload::HierGd5k => (SchemeKind::HierGd, 5_000),
        };
        let mut cfg = ExperimentConfig::new(scheme, CACHE_FRAC);
        cfg.clients_per_cluster = clients;
        cfg.net = self.net();
        if self.is_event() {
            cfg.clock = ClockMode::Event;
        }
        if self == Workload::ChurnEvent {
            cfg.num_proxies = 1;
            cfg.hiergd = HierGdOptions { replication: 2, ..HierGdOptions::default() };
        }
        cfg
    }

    /// The churn drill of `seed`: 250k requests over 10k objects on 256
    /// machines with `k = 2`, under [`CHURN_PLAN`].
    pub fn churn(seed: u64) -> ChurnConfig {
        let mut plan: FaultPlan = CHURN_PLAN.parse().expect("the churn plan parses");
        plan.seed = derive(seed, "fault-plan");
        ChurnConfig {
            requests: REQUESTS,
            distinct_objects: OBJECTS,
            clients_per_cluster: CHURN_MACHINES,
            trace_seed: derive_indexed(seed, "proxy-trace", 0),
            net: Workload::ChurnEvent.net(),
            plan,
            clock: ClockMode::Event,
            ..ChurnConfig::default()
        }
    }

    /// Client-cache machines across all proxies: the nodes
    /// `bytes_per_node` divides by (for FC, the clients its engine
    /// serves; it has no client caches).
    pub fn client_nodes(self) -> usize {
        let cfg = self.experiment();
        cfg.num_proxies * cfg.clients_per_cluster
    }

    /// Generates the workload's traces from `seed`: one per proxy as the
    /// throughput harness derives them, or the churn drill's single
    /// trace exactly as `run_churn` generates it.
    pub fn traces(self, seed: u64) -> Vec<Trace> {
        if self == Workload::ChurnEvent {
            let cfg = Workload::churn(seed);
            let trace = ProWGen::new(ProWGenConfig {
                requests: cfg.requests,
                distinct_objects: cfg.distinct_objects,
                num_clients: cfg.trace_clients.max(1) as u32,
                seed: cfg.trace_seed,
                ..ProWGenConfig::default()
            })
            .generate();
            return vec![trace];
        }
        (0..self.experiment().num_proxies)
            .map(|p| {
                ProWGen::new(ProWGenConfig {
                    requests: REQUESTS,
                    distinct_objects: OBJECTS,
                    num_clients: 100,
                    seed: derive_indexed(seed, "proxy-trace", p as u64),
                    ..ProWGenConfig::default()
                })
                .generate()
            })
            .collect()
    }

    /// Builds the workload's engine through the simulator's scheme
    /// registry. The churn drill builds its engine inside `run_churn`;
    /// its stand-in here is the same one-proxy Hier-GD cluster.
    pub fn build(self, traces: &[Trace]) -> Box<dyn SchemeEngine> {
        if self == Workload::ChurnEvent {
            return Box::new(self.hiergd(traces));
        }
        build_engine(&self.experiment(), traces).expect("workload configs are valid")
    }

    /// A Hier-GD engine of the workload's topology, as a concrete type so
    /// its P2P layer can be probed after a pass. For `fc-event` this is
    /// Hier-GD on FC's topology. Mirrors `build_engine`'s sizing; the
    /// traced run checks the two give the same fingerprint.
    pub fn hiergd(self, traces: &[Trace]) -> HierGdEngine {
        let cfg = self.experiment();
        if self == Workload::ChurnEvent {
            let caps = ChurnConfig::default();
            return HierGdEngine::new(
                1,
                caps.proxy_capacity,
                cfg.clients_per_cluster,
                caps.client_cache_capacity,
                traces[0].num_objects,
                cfg.net,
                cfg.hiergd,
            );
        }
        let cfg = cfg.at(SchemeKind::HierGd, cfg.cache_frac);
        let s = Sizing::derive(&cfg, traces);
        HierGdEngine::new(
            cfg.num_proxies,
            s.proxy_capacity,
            cfg.clients_per_cluster,
            s.client_cache_capacity,
            traces.iter().map(|t| t.num_objects).max().unwrap_or(0),
            cfg.net,
            cfg.hiergd,
        )
    }
}

/// What one timed pass did.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Simulated requests served.
    pub requests: u64,
    /// Wall seconds.
    pub wall_s: f64,
    /// On-CPU seconds of the main thread.
    pub cpu_s: f64,
    /// Involuntary context switches during the pass.
    pub preemptions: u64,
    /// Host speed next to the pass, as a share of the yardstick's
    /// nominal speed (1 until measured).
    pub speed: f64,
    /// Digest of the simulated output.
    pub fingerprint: u64,
    /// Offered load ρ (event workloads).
    pub rho: Option<f64>,
    /// Churn-drill guarantees the pass broke, if any.
    pub violation: Option<String>,
}

/// Times `f` in wall and CPU seconds, with the involuntary context
/// switches it suffered. The `/proc` reads sit outside the wall window.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64, u64) {
    let cpu0 = procfs::cpu_seconds();
    let sw0 = procfs::nonvoluntary_switches();
    let t0 = Instant::now();
    let value = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_seconds() - cpu0;
    (value, wall, cpu, procfs::nonvoluntary_switches().saturating_sub(sw0))
}

/// One pass of the workload on `traces` (the churn drill generates its
/// own). The engine build and the clock's construction are untimed.
pub fn pass(w: Workload, seed: u64, traces: &[Trace]) -> Pass {
    if w == Workload::ChurnEvent {
        return churn_pass(seed);
    }
    engine_pass(w, traces)
}

/// Replays `traces` once through the event loop on a freshly built
/// engine; for the churn drill, its fault-free engine.
pub fn engine_pass(w: Workload, traces: &[Trace]) -> Pass {
    replay(w, w.build(traces), traces)
}

/// One measuring cycle: the set-up (generating the traces and building
/// the engine) timed in wall seconds, with the heap bytes the engine
/// keeps, then a pass on that engine.
pub fn cycle(w: Workload, seed: u64) -> (f64, i64, Pass) {
    let t0 = Instant::now();
    let traces = w.traces(seed);
    let (engine, bytes) = alloc::retained(|| w.build(&traces));
    let setup_s = t0.elapsed().as_secs_f64();
    let p = if w == Workload::ChurnEvent {
        // `run_churn` generates and builds for itself.
        drop(engine);
        churn_pass(seed)
    } else {
        replay(w, engine, &traces)
    };
    (setup_s, bytes, p)
}

/// Times one replay of `traces` on `engine`.
fn replay(w: Workload, mut engine: Box<dyn SchemeEngine>, traces: &[Trace]) -> Pass {
    let cfg = w.experiment();
    let mut clock = SimClock::new(cfg.clock);
    let (m, wall_s, cpu_s, preemptions) =
        timed(|| Engine::new(engine.as_mut(), traces, &cfg.net).run(&mut clock, &NoopRecorder));
    drop(engine);
    Pass {
        requests: m.requests,
        wall_s,
        cpu_s,
        preemptions,
        speed: 1.0,
        fingerprint: fingerprint::of_run(&m),
        rho: w.is_event().then(|| run_load(&m, &cfg.net)),
        violation: None,
    }
}

/// One churn drill: trace generation, the faulted drive and its
/// fault-free twin, all inside `run_churn`.
fn churn_pass(seed: u64) -> Pass {
    let cfg = Workload::churn(seed);
    let (report, wall_s, cpu_s, preemptions) =
        timed(|| run_churn(&cfg).expect("the churn config is valid"));
    Pass {
        // The twin replays the whole trace fault-free.
        requests: report.requests + cfg.requests as u64,
        wall_s,
        cpu_s,
        preemptions,
        speed: 1.0,
        fingerprint: fingerprint::of_churn(&report),
        rho: Some(churn_load(&report, &cfg.net)),
        violation: churn_violation(&report),
    }
}

/// ρ of an engine pass.
fn run_load(m: &RunMetrics, net: &NetworkModel) -> f64 {
    let counts: Vec<(HitClass, u64)> = HitClass::ALL.iter().map(|&c| (c, m.count(c))).collect();
    load::offered_load(&counts, net)
}

/// ρ of the churn drill's faulted drive.
fn churn_load(r: &ChurnReport, net: &NetworkModel) -> f64 {
    let counts: Vec<(HitClass, u64)> =
        HitClass::ALL.iter().map(|&c| (c, r.served_by_class[c.index()])).collect();
    load::offered_load(&counts, net)
}

/// The drill's guarantees: every request served, no invariant broken,
/// and every object lost for good also ledgered as lost.
pub fn churn_violation(r: &ChurnReport) -> Option<String> {
    let unledgered = r.objects_lost.saturating_sub(r.objects_lost_permanent);
    if r.availability_percent < 100.0 || r.invariant_violations > 0 || unledgered > 0 {
        Some(format!(
            "availability {}%, {} invariant violations, {unledgered} unledgered losses",
            r.availability_percent, r.invariant_violations
        ))
    } else {
        None
    }
}

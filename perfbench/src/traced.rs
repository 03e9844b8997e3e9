//! The traced run: per-layer metrics from spans recorded around calls
//! into each layer's public functions. The program under test is not
//! changed; a [`Traced`] wrapper around the engine the scheme registry
//! builds sees every call the event loop makes into the scheme.

use crate::report::Metrics;
use crate::spans::{Recorder, Span};
use crate::workloads::{self, Workload};
use crate::{fingerprint, procfs, stats};
use std::hint::black_box;
use std::time::Instant;
use webcache_p2p::{object_id_for_url, MessageClass, UnreliableTransport};
use webcache_pastry::{NodeId, Overlay};
use webcache_policy::{DenseIndex, GreedyDualCache};
use webcache_sim::{
    run_churn, Admission, ChurnConfig, Engine, FaultPlan, HierGdEngine, HitClass, LatencyModel,
    NoopRecorder, RunMetrics, SchemeEngine, SchemeKind, SimClock, Sizing,
};
use webcache_workload::{Request, Trace};

/// One admission in this many is timed: a timer pair costs about as
/// much as a whole FC admission, so timing every one would swamp it.
const ADMIT_SAMPLE: u64 = 32;
/// Fewest traced (and untraced) passes.
const MIN_PASSES: usize = 3;
/// Most traced (and untraced) passes; the rest of the run's time goes to
/// the layer replays.
const MAX_PASSES: usize = 8;
/// Sends replayed through the unreliable transport.
const TRANSPORT_SENDS: u64 = 200_000;
/// Where the span log is written, inside the checkout.
const OUT_DIR: &str = "perfbench/out";

/// Wraps a scheme engine, recording as children of the enclosing pass
/// span: every `prepare_wave` and `finish`, and for one request in
/// [`ADMIT_SAMPLE`] its admission plus the engine's own work since the
/// previous admission returned (the `loop` span).
struct Traced<'a, E: SchemeEngine + ?Sized> {
    inner: &'a mut E,
    rec: &'a mut Recorder,
    /// Layer name of the scheme's admission path.
    layer: &'static str,
    pass: usize,
    next: u64,
    /// When the admission before a sampled one returned.
    returned_ns: Option<u64>,
}

impl<E: SchemeEngine + ?Sized> SchemeEngine for Traced<'_, E> {
    fn serve(&mut self, proxy: usize, request: &Request) -> HitClass {
        self.admit(proxy, request).class
    }

    fn admit(&mut self, proxy: usize, request: &Request) -> Admission {
        let id = self.next;
        self.next += 1;
        match id % ADMIT_SAMPLE {
            0 => {}
            phase => {
                let a = self.inner.admit(proxy, request);
                if phase == ADMIT_SAMPLE - 1 {
                    self.returned_ns = Some(self.rec.now());
                }
                return a;
            }
        }
        if let Some(start) = self.returned_ns.take() {
            self.rec.since("core.engine", "loop", id, Some(self.pass), start);
        }
        let s = self.rec.open(self.layer, "admit", id, Some(self.pass));
        let a = self.inner.admit(proxy, request);
        self.rec.close(s);
        self.rec.tag(s, a.class.label());
        a
    }

    fn latency_of(&self, model: &dyn LatencyModel, class: HitClass) -> f64 {
        self.inner.latency_of(model, class)
    }

    fn price(&self, model: &dyn LatencyModel, admission: &Admission) -> f64 {
        self.inner.price(model, admission)
    }

    fn prepare_wave(&mut self, proxy: usize, wave: &[Request]) {
        // A loop span must not straddle a wave.
        self.returned_ns = None;
        let s = self.rec.open(self.layer, "prepare_wave", self.next, Some(self.pass));
        self.inner.prepare_wave(proxy, wave);
        self.rec.close(s);
    }

    fn finish(&mut self, metrics: &mut RunMetrics) {
        let s = self.rec.open(self.layer, "finish", 0, Some(self.pass));
        self.inner.finish(metrics);
        self.rec.close(s);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Layer name of a workload's admission path.
fn admit_layer(w: Workload) -> &'static str {
    match w.experiment().scheme {
        SchemeKind::Fc | SchemeKind::FcEc => "core.cost_benefit",
        _ => "core.hiergd",
    }
}

/// Median duration of an empty span: what recording costs, subtracted
/// from every measured span.
fn span_cost_ns() -> f64 {
    let mut rec = Recorder::default();
    for _ in 0..20_001 {
        let s = rec.open("calibration", "empty", 0, None);
        rec.close(s);
    }
    stats::median(&rec.spans().iter().map(|s| s.duration_ns() as f64).collect::<Vec<_>>())
}

/// One traced pass, reduced to its layer times.
struct TracedPass {
    metrics: RunMetrics,
    wall_ns: f64,
    /// Admission span durations (ns, recording cost removed) by class.
    admits: Vec<(HitClass, f64)>,
    /// Engine work between two admissions (ns, recording cost removed).
    loops: Vec<f64>,
    wave_ns: f64,
    finish_ns: f64,
    /// Spans recorded inside the pass.
    children: usize,
    scheduled: u64,
    delivered: u64,
}

fn traced_pass(w: Workload, traces: &[Trace], rec: &mut Recorder, cost: f64) -> TracedPass {
    let cfg = w.experiment();
    let mut engine = w.build(traces);
    let mut clock = SimClock::new(cfg.clock);
    let pass = rec.open("core.engine", "pass", 0, None);
    let first = rec.spans().len();
    let metrics = {
        let mut traced = Traced {
            inner: engine.as_mut(),
            rec: &mut *rec,
            layer: admit_layer(w),
            pass,
            next: 0,
            returned_ns: None,
        };
        Engine::new(&mut traced, traces, &cfg.net).run(&mut clock, &NoopRecorder)
    };
    rec.close(pass);
    let spans = &rec.spans()[first..];
    let corrected = |s: &Span| s.duration_ns() as f64 - cost;
    let class_of = |tag: &str| HitClass::ALL.into_iter().find(|c| c.label() == tag);
    let sum = |op: &str| spans.iter().filter(|s| s.op == op).map(corrected).sum::<f64>();
    TracedPass {
        wall_ns: rec.spans()[pass].duration_ns() as f64,
        admits: spans
            .iter()
            .filter(|s| s.op == "admit")
            .filter_map(|s| Some((class_of(s.tag)?, corrected(s))))
            .collect(),
        loops: spans.iter().filter(|s| s.op == "loop").map(corrected).collect(),
        wave_ns: sum("prepare_wave"),
        finish_ns: sum("finish"),
        children: spans.len(),
        scheduled: clock.scheduled(),
        delivered: clock.delivered(),
        metrics,
    }
}

/// Per 1,000 requests.
fn per_kreq(count: u64, requests: u64) -> f64 {
    count as f64 * 1000.0 / requests.max(1) as f64
}

/// Times `f` as a span named `layer`/`op` and returns its result.
fn span<T>(
    rec: &mut Recorder,
    layer: &'static str,
    op: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let s = rec.open(layer, op, 0, None);
    let value = f();
    rec.close(s);
    (value, rec.spans()[s].duration_ns() as f64)
}

/// The traced run of `w`: per-layer metrics, the span log written under
/// [`OUT_DIR`], and the result line.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let started = Instant::now();
    let mut rec = Recorder::default();
    let mut m = Metrics::new();
    let cfg = w.experiment();

    // Memory first, while the heap is still fresh: later allocations
    // reuse freed pages and would hide the growth.
    let rss0 = procfs::rss_kb();
    let (traces, gen_ns) = span(&mut rec, "workload", "generate", || w.traces(seed));
    let rss1 = procfs::rss_kb();
    let (engine, build_ns) = span(&mut rec, "core.config", "build_engine", || w.build(&traces));
    let rss2 = procfs::rss_kb();
    drop(engine);
    m.put("workload.generate_s", gen_ns / 1e9, "s");
    m.put("config.build_s", build_ns / 1e9, "s");

    crate::reference_check(w)?;
    let cost = span_cost_ns();

    // Untraced and traced passes, interleaved so machine noise hits both
    // alike.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut failures = Vec::new();
    let mut first_fp = None;
    while traced.len() < MIN_PASSES
        || (traced.len() < MAX_PASSES && started.elapsed().as_secs_f64() < seconds / 2.0)
    {
        let p = workloads::engine_pass(w, &traces);
        untraced.push(p.wall_s * 1e9);
        let t = traced_pass(w, &traces, &mut rec, cost);
        let fp = fingerprint::of_run(&t.metrics);
        let first = *first_fp.get_or_insert(fp);
        if p.fingerprint != fp {
            failures.push("tracing changed the simulated output".to_string());
        }
        failures.extend(
            [fingerprint::check(fp, first, None), crate::check_load(w, p.rho)]
                .into_iter()
                .filter_map(Result::err),
        );
        traced.push(t);
    }

    let requests = traced[0].metrics.requests;
    let t_traced = stats::median(&traced.iter().map(|t| t.wall_ns).collect::<Vec<_>>());
    let t_untraced = stats::median(&untraced);
    let median_of = |f: &dyn Fn(&TracedPass) -> f64| -> f64 {
        stats::median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let admit_mean = |t: &TracedPass, class: Option<HitClass>| -> Option<f64> {
        let xs: Vec<f64> =
            t.admits.iter().filter(|(c, _)| class.is_none_or(|k| *c == k)).map(|a| a.1).collect();
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    };
    // Timer reads stall the pipeline, so a sampled span measures a call's
    // latency, which exceeds its share of throughput when consecutive
    // requests overlap in the memory system. The untraced pass time less
    // waves and finish is therefore split between the engine and the
    // admission layer in the ratio of their sampled span times.
    let mean =
        |xs: &[f64]| if xs.is_empty() { 0.0 } else { xs.iter().sum::<f64>() / xs.len() as f64 };
    let admit_latency = median_of(&|t| admit_mean(t, None).unwrap_or(0.0));
    let loop_latency = median_of(&|t| mean(&t.loops));
    let wave_ns = median_of(&|t| t.wave_ns);
    let finish_ns = median_of(&|t| t.finish_ns);
    let body = t_untraced - wave_ns - finish_ns;
    let engine_share = loop_latency / (loop_latency + admit_latency);
    let engine_self = body * engine_share;
    let admit_total = body - engine_self;
    let tracing_cost = median_of(&|t| t.children as f64) * cost;
    let unattributed = t_traced - t_untraced - tracing_cost;
    let last = traced.last().expect("at least one traced pass");

    m.put("engine.self_ns_per_req", engine_self / requests as f64, "ns");
    m.put("clock.events_per_req", last.scheduled as f64 / requests as f64, "count");
    m.put("clock.self_ns_per_event", engine_self / last.delivered.max(1) as f64, "ns");
    m.put("admit.ns_per_req", admit_total / requests as f64, "ns");
    m.put("admit.latency_ns", admit_latency, "ns");
    m.put("engine.loop_latency_ns", loop_latency, "ns");
    let mut class_rows = Vec::new();
    for class in HitClass::ALL {
        let key = match class {
            HitClass::LocalProxy => "local_proxy",
            HitClass::OwnP2p => "own_p2p",
            HitClass::CoopProxy => "coop_proxy",
            HitClass::CoopP2p => "coop_p2p",
            HitClass::Server => "server",
        };
        m.put(
            &format!("class.{key}_frac"),
            last.metrics.count(class) as f64 / requests as f64,
            "ratio",
        );
        let ns = traced.iter().filter_map(|t| admit_mean(t, Some(class))).collect::<Vec<_>>();
        class_rows.push((format!("admit.{key}_ns"), (!ns.is_empty()).then(|| stats::median(&ns))));
    }
    // Every workload serves proxy hits and server misses, so only those
    // two classes' admission times are result metrics; the others are
    // printed for the workloads that serve them.
    let (reported, printed): (Vec<_>, Vec<_>) = class_rows
        .into_iter()
        .partition(|(name, _)| matches!(name.as_str(), "admit.local_proxy_ns" | "admit.server_ns"));
    for (name, value) in &reported {
        if let Some(v) = value {
            m.put(name, *v, "ns");
        }
    }
    m.put("wave.ns_per_req", wave_ns / requests as f64, "ns");
    let msgs = &last.metrics.messages;
    m.put("p2p.overlay_msgs_per_kreq", per_kreq(msgs.overlay_messages, requests), "count");
    m.put("p2p.lookups_per_kreq", per_kreq(msgs.lookups, requests), "count");
    m.put("p2p.diversions_per_kreq", per_kreq(msgs.diversions, requests), "count");
    m.put("p2p.pushes_per_kreq", per_kreq(msgs.pushes, requests), "count");
    m.put("p2p.direct_destages_per_kreq", per_kreq(msgs.direct_destages, requests), "count");

    // Layer replays on a finished Hier-GD engine of the workload's
    // topology (for fc-event: Hier-GD on FC's topology).
    let reference = hiergd_reference(w, &traces);
    if cfg.scheme == SchemeKind::HierGd && reference.1 != fingerprint::of_run(&last.metrics) {
        failures.push("the concrete Hier-GD build differs from build_engine's".to_string());
    }
    failures.extend(replay_layers(w, seed, &traces, &reference.0, &mut rec, &mut m));

    m.put("memory.trace_kb", rss1.saturating_sub(rss0) as f64, "KB");
    m.put("memory.engine_kb", rss2.saturating_sub(rss1) as f64, "KB");
    m.put("memory.peak_rss_mb", procfs::peak_rss_kb() as f64 / 1024.0, "MB");
    m.put("tracing.overhead_frac", t_traced / t_untraced - 1.0, "ratio");
    m.put("trace.unattributed_frac", unattributed / t_traced, "ratio");

    println!(
        "traced run of {} seed {seed}: {} traced + {} untraced passes",
        w.name(),
        traced.len(),
        untraced.len()
    );
    println!(
        "pass {:.3} ms traced / {:.3} ms untraced = engine self {:.3} + admit {:.3} + wave {:.3} \
         + finish {:.3} + span recording {:.3} + unattributed {:.3} ms (span cost {cost:.1} ns)",
        t_traced / 1e6,
        t_untraced / 1e6,
        engine_self / 1e6,
        admit_total / 1e6,
        wave_ns / 1e6,
        finish_ns / 1e6,
        tracing_cost / 1e6,
        unattributed / 1e6,
    );
    for (name, value) in &printed {
        match value {
            Some(v) => println!("{name:<32} {v:>18.6} ns"),
            None => println!("{name:<32} {:>18} ns (class never served)", "n/a"),
        }
    }
    print!("{}", m.table());
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    let path = format!("{OUT_DIR}/{}-seed{seed}.spans.csv", w.name());
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, rec.to_csv()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("span log: {path} ({} spans)", rec.spans().len());
    Ok(m.result_line(failures.is_empty(), traced.len(), failures.len().min(traced.len())))
}

/// Builds the workload's concrete Hier-GD engine and runs it once
/// (untimed), returning it with its output fingerprint.
fn hiergd_reference(w: Workload, traces: &[Trace]) -> (HierGdEngine, u64) {
    let cfg = w.experiment();
    let mut engine = w.hiergd(traces);
    let m = Engine::new(&mut engine, traces, &cfg.net)
        .run(&mut SimClock::new(cfg.clock), &NoopRecorder);
    (engine, fingerprint::of_run(&m))
}

/// Proxy 0's node ids in the order its cluster joined them, when they
/// match the cache's id scheme (`cache-node-<seed>-<i>`, seed `0x1EAF00`
/// for proxy 0); otherwise the overlay's own order. Join order shapes
/// the routing tables, so the replay must follow it to route like the
/// engine's overlay.
fn join_order(mut ids: Vec<NodeId>) -> Vec<NodeId> {
    let joined: Vec<NodeId> = (0..ids.len())
        .map(|i| NodeId::from_bytes(format!("cache-node-{}-{i}", 0x1E_AF00).as_bytes()))
        .collect();
    let mut sorted = joined.clone();
    sorted.sort_unstable();
    ids.sort_unstable();
    if sorted == ids {
        joined
    } else {
        println!("note: node ids do not follow the join scheme; replaying in overlay order");
        ids
    }
}

/// The isolated replays: the greedy-dual policy, Pastry build and
/// routing, the lookup directory, the unreliable transport and the
/// fault drill.
fn replay_layers(
    w: Workload,
    seed: u64,
    traces: &[Trace],
    engine: &HierGdEngine,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Option<String> {
    let cfg = w.experiment();
    let stream: Vec<&Request> = traces.iter().flat_map(|t| t.requests.iter()).collect();
    let n = stream.len() as f64;
    let num_objects = traces.iter().map(|t| t.num_objects).max().unwrap_or(0);
    let oids: Vec<u128> = (0..num_objects).map(|o| object_id_for_url(&Trace::url_of(o))).collect();

    // policy: the object stream through a greedy-dual cache of the
    // workload's proxy capacity.
    let capacity = match w {
        Workload::ChurnEvent => ChurnConfig::default().proxy_capacity,
        _ => Sizing::derive(&cfg.at(SchemeKind::HierGd, cfg.cache_frac), traces).proxy_capacity,
    };
    let cost = cfg.net.fetch_cost(HitClass::Server);
    let (evictions, ns) = span(rec, "policy", "gd_replay", || {
        let mut gd: GreedyDualCache<u32, DenseIndex> = GreedyDualCache::new(capacity);
        stream.iter().filter(|r| gd.insert_with_cost(r.object, cost, 1.0).is_some()).count()
    });
    black_box(evictions);
    m.put("policy.gd_ns_per_req", ns / n, "ns");

    // pastry: rebuild proxy 0's overlay from its node ids, then route
    // every request of its trace from the client's node to the object.
    let p2p = engine.p2p(0);
    let ids = join_order(p2p.node_ids().collect());
    let (overlay, build_ns) =
        span(rec, "pastry", "with_nodes", || Overlay::with_nodes(cfg.hiergd.pastry, ids));
    m.put("pastry.build_s", build_ns / 1e9, "s");
    let routes: Vec<(NodeId, NodeId)> = traces[0]
        .requests
        .iter()
        .map(|r| (p2p.node_for_client(r.client), NodeId(oids[r.object as usize])))
        .collect();
    let (hops, ns) = span(rec, "pastry", "route_hops", || {
        routes
            .iter()
            .map(|&(from, key)| overlay.route_hops(from, key).map_or(0, |r| r.1))
            .sum::<usize>()
    });
    m.put("pastry.route_ns", ns / routes.len() as f64, "ns");
    m.put("pastry.hops_mean", hops as f64 / routes.len() as f64, "count");

    // p2p.directory: membership probes of every request on the finished
    // engine's directories.
    let (found, ns) = span(rec, "p2p.directory", "contains_dense", || {
        let mut found = 0usize;
        for (p, t) in traces.iter().enumerate() {
            let p2p = engine.p2p(p);
            for r in &t.requests {
                let o = r.object as usize;
                found += usize::from(p2p.directory_contains_dense(o, oids[o]));
            }
        }
        found
    });
    black_box(found);
    m.put("directory.probe_ns", ns / n, "ns");

    // p2p.transport: sends at the churn drill's fault rates.
    let churn = Workload::churn(seed);
    let mut transport = UnreliableTransport::new(churn.plan.transport_faults());
    let ((retries, dedups, timeouts), ns) = span(rec, "p2p.transport", "send", || {
        let (mut retries, mut dedups, mut timeouts) = (0u64, 0u64, 0u64);
        for i in 0..TRANSPORT_SENDS {
            let out = transport.send(MessageClass::Destage, u128::from(i));
            retries += u64::from(out.attempts > 1);
            dedups += u64::from(out.deduped);
            timeouts += u64::from(out.timeouts);
        }
        (retries, dedups, timeouts)
    });
    m.put("transport.send_ns", ns / TRANSPORT_SENDS as f64, "ns");
    m.put("transport.retries_per_kreq", per_kreq(retries, TRANSPORT_SENDS), "count");
    m.put("transport.dedups_per_kreq", per_kreq(dedups, TRANSPORT_SENDS), "count");
    m.put("transport.timeouts_per_kreq", per_kreq(timeouts, TRANSPORT_SENDS), "count");

    // core.fault: the churn drill and the same drive with an empty plan,
    // each less the trace generation `run_churn` does first.
    let (_, gen_ns) = span(rec, "workload", "generate", || Workload::ChurnEvent.traces(seed));
    let (report, drill_ns) =
        span(rec, "core.fault", "run_churn", || run_churn(&churn).expect("valid churn config"));
    let empty = ChurnConfig { plan: FaultPlan::none(), ..churn };
    let (_, empty_ns) = span(rec, "core.fault", "run_churn_empty", || {
        run_churn(&empty).expect("valid churn config")
    });
    m.put("fault.drill_s", (drill_ns - gen_ns) / 1e9, "s");
    m.put("fault.empty_plan_s", (empty_ns - gen_ns) / 1e9, "s");
    m.put("fault.rereplications", report.rereplications as f64, "count");
    m.put("fault.stale_hits", report.stale_hits as f64, "count");
    workloads::churn_violation(&report)
}

//! Host-time benchmark of the webcache simulator.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and prints, as its last line, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones of a separate traced run.
//! See `README.md` beside this crate.

mod alloc;
mod fingerprint;
mod load;
mod procfs;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;
mod yardstick;

use report::Metrics;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Pass, Workload, DEFAULT_SEED};
use yardstick::Yardstick;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Bytes per MB.
const MB: f64 = 1024.0 * 1024.0;
/// Fewest timed passes per run, however long they take.
const MIN_PASSES: usize = 5;
/// Yardstick replays after a pass, as a share of the pass's time.
const YARDSTICK_SHARE: f64 = 0.2;
/// How strongly set-up time follows the host speed the yardstick
/// measures, as an exponent: set-up is half SHA-1 and RNG arithmetic, so
/// it slows about half as much as a pass. Over 59 runs on the 2-core VM
/// the bounds were set on, the slope of log set-up time on log host
/// speed was 0.49 to 0.60 per workload (a pass's: 0.71 to 0.95).
const SETUP_SPEED_EXPONENT: f64 = 0.5;

/// The command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} '{value}' ({what})");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("want a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Checks the recorded fingerprint at the default seed with one untimed
/// pass, so a change to any simulated statistic fails every run, not
/// only runs at that seed.
pub fn reference_check(w: Workload) -> Result<(), String> {
    let recorded = fingerprint::recorded(w.name())
        .ok_or_else(|| format!("no recorded fingerprint for {}", w.name()))?;
    let traces = w.traces(DEFAULT_SEED);
    let p = workloads::pass(w, DEFAULT_SEED, &traces);
    fingerprint::check(p.fingerprint, p.fingerprint, Some(recorded))
        .and_then(|()| p.violation.map_or(Ok(()), Err))
        .map_err(|e| format!("{} at the default seed: {e}", w.name()))
}

/// Refuses an event workload whose offered load reaches saturation.
pub fn check_load(w: Workload, rho: Option<f64>) -> Result<(), String> {
    match rho {
        Some(r) if r >= 1.0 => Err(format!(
            "{} offers load rho = {r:.4} >= 1: its queues would grow without bound",
            w.name()
        )),
        _ => Ok(()),
    }
}

/// Why each failing pass failed its output check: a fingerprint that
/// differs from the first pass's, a broken churn guarantee, or ρ ≥ 1.
fn pass_failures(w: Workload, passes: &[Pass]) -> Vec<String> {
    let Some(first) = passes.first().map(|p| p.fingerprint) else { return Vec::new() };
    passes
        .iter()
        .enumerate()
        .filter_map(|(i, p)| {
            fingerprint::check(p.fingerprint, first, None)
                .and_then(|()| p.violation.clone().map_or(Ok(()), Err))
                .and_then(|()| check_load(w, p.rho))
                .err()
                .map(|e| format!("pass {i}: {e}"))
        })
        .collect()
}

/// The end-to-end run: measuring cycles until `seconds` have elapsed.
/// A cycle is a timed set-up, a timed pass on the engine it built, and
/// one to five replays of the [`Yardstick`] right after the pass.
///
/// On a shared host, other tenants slow the memory system by up to 2×
/// for stretches of seconds to minutes, so a run's raw pass times move
/// with how much of it fell into such a stretch. The pass rates are
/// therefore reported at the yardstick's nominal host speed: each pass
/// time is scaled by the speed the yardstick measured next to it (the
/// median of its replays), and the run reports the median. Set-up times
/// are scaled by that speed to the [`SETUP_SPEED_EXPONENT`]. The raw
/// medians are printed beside them.
fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let mut yardstick = Yardstick::default();
    let yardstick_bytes = yardstick.heap_bytes() as i64;
    reference_check(w)?;
    let pool = rayon::current_num_threads();

    let start = Instant::now();
    let mut setups = Vec::new();
    let mut engine_bytes = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut yardstick_hits = Vec::new();
    // A first replay faults the yardstick's pages in; it is not a sample.
    let (hits, mut yardstick_s) = yardstick.run();
    yardstick_hits.push(hits);
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let (setup_s, bytes, mut p) = workloads::cycle(w, seed);
        // Replays worth about a fifth of the pass, so one slow replay
        // does not set a long pass's speed.
        let reps = (YARDSTICK_SHARE * p.wall_s / yardstick_s).round().clamp(1.0, 5.0) as usize;
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (hits, s) = yardstick.run();
            yardstick_hits.push(hits);
            times.push(s);
        }
        yardstick_s = stats::median(&times);
        p.speed = yardstick.speed_factor(yardstick_s);
        setups.push(setup_s);
        engine_bytes.push(bytes as f64);
        passes.push(p);
    }

    if yardstick_hits.iter().any(|&h| h != yardstick_hits[0]) {
        return Err("the yardstick's replays disagree on their hit count".into());
    }
    let failures = pass_failures(w, &passes);
    for f in &failures {
        eprintln!("check failed: {f}");
    }

    let requests = passes[0].requests as f64;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    let norm_walls: Vec<f64> = passes.iter().map(|p| p.wall_s * p.speed).collect();
    let norm_cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s * p.speed).collect();
    let norm_setups: Vec<f64> =
        (setups.iter().zip(&passes)).map(|(s, p)| s * p.speed.powf(SETUP_SPEED_EXPONENT)).collect();
    let speeds: Vec<f64> = passes.iter().map(|p| p.speed).collect();
    let failed_frac = failures.len() as f64 / passes.len() as f64;

    let mut m = Metrics::new();
    m.put("norm_req_per_s", requests / stats::median(&norm_walls), "req/s");
    m.put("norm_cpu_req_per_s", requests / stats::median(&norm_cpus), "req/s");
    m.put("setup_s", stats::median(&norm_setups), "s");
    m.put("peak_heap_mb", (alloc::peak_bytes() - yardstick_bytes) as f64 / MB, "MB");
    m.put("bytes_per_node", stats::median(&engine_bytes) / w.client_nodes() as f64, "B");

    println!("workload {} seed {seed}: {} passes, pool {pool} thread(s)", w.name(), passes.len());
    if let Some(rho) = passes[0].rho {
        println!("offered load rho = {rho:.4} per proxy (event clock, arrivals one round apart)");
    }
    println!(
        "median pass {:.2} req/s wall, {:.2} req/s cpu, median set-up {:.6} s (raw); median \
         host speed {:.4} of nominal; fastest pass {:.2} req/s wall; median {} involuntary \
         switches per pass",
        requests / stats::median(&walls),
        requests / stats::median(&cpus),
        stats::median(&setups),
        stats::median(&speeds),
        requests / walls.iter().copied().fold(f64::INFINITY, f64::min),
        stats::median_u64(&passes.iter().map(|p| p.preemptions).collect::<Vec<_>>()),
    );
    if let Some((pct, t)) = stats::tail(&norm_walls) {
        println!(
            "pass time at nominal speed over {} passes: median {:.3} ms, p{pct} {:.3} ms",
            passes.len(),
            stats::median(&norm_walls) * 1e3,
            t * 1e3,
        );
    }
    println!("peak RSS (VmHWM) {:.3} MB", procfs::peak_rss_kb() as f64 / 1024.0);
    println!("failed_frac {failed_frac} ratio");
    print!("{}", m.table());
    println!("{}", report::passes_json(&passes, &setups, pool));
    Ok(m.result_line(failures.is_empty(), passes.len(), failures.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(fingerprint: u64, rho: Option<f64>) -> Pass {
        Pass {
            requests: 10,
            wall_s: 1.0,
            cpu_s: 1.0,
            preemptions: 0,
            speed: 1.0,
            fingerprint,
            rho,
            violation: None,
        }
    }

    #[test]
    fn a_perturbed_fingerprint_counts_as_a_failed_pass() {
        let clean = [pass(7, None), pass(7, None), pass(7, None)];
        assert!(pass_failures(Workload::HierGdCompat, &clean).is_empty());
        let perturbed = [pass(7, None), pass(7 ^ 1, None), pass(7, None)];
        let failures = pass_failures(Workload::HierGdCompat, &perturbed);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("pass 1:"));
    }

    #[test]
    fn saturation_and_churn_violations_fail_a_pass() {
        let mut broken = pass(7, Some(0.5));
        broken.violation = Some("1 invariant violations".into());
        let passes = [pass(7, Some(0.5)), pass(7, Some(1.0)), broken];
        assert_eq!(pass_failures(Workload::FcEvent, &passes).len(), 2);
    }
}

//! Output fingerprints: a 64-bit digest of everything a pass simulated,
//! so a change that moves any simulated statistic fails the run.

use webcache_sim::{ChurnReport, HitClass, RunMetrics};

/// Recorded fingerprints at [`crate::workloads::DEFAULT_SEED`], one
/// `workload hex` pair per line.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// FNV-1a over `bytes`: stable across platforms and toolchains, which
/// the standard library's hasher does not promise.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The fields `tests/golden/run_metrics.json` pins for an engine run:
/// per-class counts, the bits of the latency sum and the message ledger.
pub fn of_run(m: &RunMetrics) -> u64 {
    let classes: Vec<u64> = HitClass::ALL.iter().map(|&c| m.count(c)).collect();
    let text =
        format!("{}|{classes:?}|{:016x}|{:?}", m.requests, m.total_latency.to_bits(), m.messages);
    fnv1a(text.as_bytes())
}

/// A churn drill's full report, in its bit-stable JSON rendering.
pub fn of_churn(r: &ChurnReport) -> u64 {
    fnv1a(r.to_json().as_bytes())
}

/// The fingerprint recorded for `workload` at the default seed.
pub fn recorded(workload: &str) -> Option<u64> {
    RECORDED.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload).then(|| u64::from_str_radix(hex.trim(), 16).ok())?
    })
}

/// Why a pass failed its output check, if it did: its fingerprint must
/// equal the run's first pass and, when one is given, the recorded one.
pub fn check(pass: u64, first: u64, recorded: Option<u64>) -> Result<(), String> {
    if pass != first {
        return Err(format!("fingerprint {pass:016x} differs from the first pass's {first:016x}"));
    }
    match recorded {
        Some(r) if r != pass => {
            Err(format!("fingerprint {pass:016x} differs from the recorded {r:016x}"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> RunMetrics {
        let mut m = RunMetrics::default();
        m.record(HitClass::LocalProxy, 1.0);
        m.record(HitClass::Server, 21.0);
        m.messages.lookups = 3;
        m
    }

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_pinned_field_moves_the_fingerprint() {
        let base = of_run(&metrics());
        assert_eq!(base, of_run(&metrics()));
        let mut latency = metrics();
        latency.total_latency = f64::from_bits(latency.total_latency.to_bits() + 1);
        let mut class = metrics();
        class.by_class.bump(HitClass::OwnP2p);
        let mut ledger = metrics();
        ledger.messages.pushes += 1;
        for perturbed in [latency, class, ledger] {
            assert_ne!(of_run(&perturbed), base);
        }
    }

    #[test]
    fn a_perturbed_pass_fails_the_check() {
        let first = of_run(&metrics());
        let mut m = metrics();
        m.messages.diversions += 1;
        assert!(check(first, first, Some(first)).is_ok());
        assert!(check(first, first, None).is_ok());
        assert!(check(of_run(&m), first, None).is_err());
        assert!(check(first, first, Some(first ^ 1)).is_err());
    }

    #[test]
    fn every_workload_has_a_recorded_fingerprint() {
        for w in crate::workloads::Workload::ALL {
            assert!(recorded(w.name()).is_some(), "{}", w.name());
        }
        assert_eq!(recorded("no-such-workload"), None);
    }
}

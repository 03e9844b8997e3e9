//! Offered load of an event-clock workload, computed from outside the
//! engine: the mean priced service time per request over the time
//! between two arrivals at one proxy.

use webcache_sim::{HitClass, LatencyModel, TICKS_PER_ROUND, TICKS_PER_UNIT};

/// Utilization ρ of each proxy when requests arrive one round apart:
/// `Σ count(class) × latency(class) / requests`, over one round in
/// latency units. Every proxy replays a statistically identical trace
/// at the same rate, so one ρ describes them all. At ρ ≥ 1 the event
/// clock's queues grow without bound and a run measures backlog, not
/// the scheme.
pub fn offered_load(counts: &[(HitClass, u64)], model: &dyn LatencyModel) -> f64 {
    let requests: u64 = counts.iter().map(|&(_, n)| n).sum();
    if requests == 0 {
        return 0.0;
    }
    let busy: f64 = counts.iter().map(|&(class, n)| n as f64 * model.latency(class)).sum();
    let round = TICKS_PER_ROUND as f64 / TICKS_PER_UNIT as f64;
    busy / requests as f64 / round
}

#[cfg(test)]
mod tests {
    use super::*;
    use webcache_sim::NetworkModel;

    #[test]
    fn hand_computed_case() {
        // Paper ratios Ts/Tc = 10, Ts/Tl = 20, Tp2p/Tl = 1.4 with Tl = 1:
        // proxy 1, own-P2P 2.4, server 21 units. Scaled by 1/16 and
        // mixed 6 : 1 : 3, the mean service is
        // (6·1 + 1·2.4 + 3·21) / 10 / 16 = 71.4 / 160 = 0.44625 rounds.
        let model = NetworkModel::default().scaled(1.0 / 16.0);
        assert_eq!(model.latency(HitClass::LocalProxy), 1.0 / 16.0);
        let counts = [(HitClass::LocalProxy, 6), (HitClass::OwnP2p, 1), (HitClass::Server, 3)];
        let rho = offered_load(&counts, &model);
        assert!((rho - 0.44625).abs() < 1e-12, "{rho}");
    }

    #[test]
    fn unscaled_server_misses_saturate() {
        let rho = offered_load(&[(HitClass::Server, 5)], &NetworkModel::default());
        assert!((rho - 21.0).abs() < 1e-12, "{rho}");
        assert_eq!(offered_load(&[], &NetworkModel::default()), 0.0);
    }
}

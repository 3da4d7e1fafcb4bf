//! From measured protocol statistics to wall-clock estimates.
//!
//! The functional runtime counts *what happened* (bytes, tuples, rounds and
//! the per-step critical path); the paper's device profile says *how long*
//! each unit takes on the secure-token hardware. Combining the two gives a
//! simulated `T_Q` for a real protocol run — the bridge that lets the
//! `figures --sim` mode cross-check the analytical model of Section 6
//! against the actual protocol implementation instead of against formulas.

use tdsql_core::stats::{Phase, RunStats};
use tdsql_costmodel::DeviceProfile;

/// Wall-clock estimate of one protocol run on the given hardware.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedTime {
    /// Collection-phase time (data-acquisition bound, usually excluded from
    /// the paper's T_Q).
    pub collection: f64,
    /// Aggregation-phase time — the paper's T_Q focus.
    pub aggregation: f64,
    /// Filtering-phase time.
    pub filtering: f64,
}

impl SimulatedTime {
    /// The paper's T_Q: aggregation only ("the most complex phase").
    pub fn tq(&self) -> f64 {
        self.aggregation
    }

    /// End-to-end processing time.
    pub fn total(&self) -> f64 {
        self.collection + self.aggregation + self.filtering
    }
}

/// Time for one TDS to handle `bytes` of partition traffic: download/upload
/// on the link, crypto over every byte, and per-tuple CPU work (estimated at
/// one tuple per 16 payload bytes, the paper's `st`).
fn step_time(device: &DeviceProfile, bytes: f64) -> f64 {
    device.transfer_time(bytes) + device.crypto_time(bytes) + device.cpu_time(bytes / 16.0)
}

/// Estimate wall-clock time from a run's statistics: each sequential step
/// lasts as long as its busiest TDS (the recorded critical path). A phase
/// with no step takes `0.0` (folded from `+0.0`: `Iterator::sum` over `f64`
/// starts at `-0.0`).
pub fn simulate(stats: &RunStats, device: &DeviceProfile) -> SimulatedTime {
    let phase_time = |phase: Phase| -> f64 {
        stats
            .phase(phase)
            .critical_path_bytes
            .iter()
            .fold(0.0, |t, &b| t + step_time(device, b as f64))
    };
    SimulatedTime {
        collection: phase_time(Phase::Collection),
        aggregation: phase_time(Phase::Aggregation),
        filtering: phase_time(Phase::Filtering),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_core::access::AccessPolicy;
    use tdsql_core::connectivity::Connectivity;
    use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
    use tdsql_core::runtime::SimBuilder;
    use tdsql_core::workload::{smart_meters, SmartMeterConfig};
    use tdsql_crypto::credential::Role;
    use tdsql_sql::parser::parse_query;

    fn run(kind: ProtocolKind, n_tds: usize) -> RunStats {
        let (dbs, _) = smart_meters(&SmartMeterConfig {
            n_tds,
            districts: 5,
            readings_per_tds: 1,
            ..Default::default()
        });
        let mut world = SimBuilder::new()
            .seed(1)
            .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("q", "supplier");
        let query =
            parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap();
        let mut params = ProtocolParams::new(kind);
        params.chunk = 32;
        world.run_query(&querier, &query, params).unwrap();
        world.stats.clone()
    }

    /// One GROUP BY run over `n_tds` TDSs and `districts` groups in which
    /// `available` TDSs connect per round — the paper's availability, and
    /// the knob of Fig. 10i/j — timed by [`simulate`].
    fn with_available(
        kind: ProtocolKind,
        available: usize,
        n_tds: usize,
        districts: usize,
    ) -> SimulatedTime {
        let (dbs, _) = smart_meters(&SmartMeterConfig {
            n_tds,
            districts,
            readings_per_tds: 1,
            ..Default::default()
        });
        let mut world = SimBuilder {
            connectivity: Connectivity::fraction(available as f64 / n_tds as f64),
            // Collection is untimed; let it hear from every TDS.
            default_max_rounds: 100_000,
            ..SimBuilder::new().seed(7)
        }
        .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("q", "supplier");
        let query =
            parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap();
        let mut params = ProtocolParams::new(kind);
        params.chunk = 16;
        params.alpha = 4;
        world.run_query(&querier, &query, params).unwrap();
        assert!(!world.stats.partial, "every TDS must contribute");
        simulate(&world.stats, &DeviceProfile::default())
    }

    #[test]
    fn tag_protocols_are_elastic_s_agg_is_not() {
        // Fig. 10i vs 10j at functional scale: more available TDSs help
        // ED_Hist a lot and S_Agg much less (its tail is the serial reducer
        // chain).
        let speedup =
            |kind| with_available(kind, 1, 400, 16).tq() / with_available(kind, 64, 400, 16).tq();
        let speedup_ed = speedup(ProtocolKind::EdHist { buckets: 8 });
        let speedup_sa = speedup(ProtocolKind::SAgg);
        assert!(
            speedup_ed > speedup_sa,
            "ED speedup {speedup_ed:.2} vs S_Agg {speedup_sa:.2}"
        );
        assert!(
            speedup_ed > 2.0,
            "ED must exploit 64 TDSs: ×{speedup_ed:.2}"
        );
    }

    #[test]
    fn utilization_degrades_with_overprovisioning() {
        // Utilization of k TDSs: T_Q(1) / (k · T_Q(k)).
        let serial = with_available(ProtocolKind::SAgg, 1, 200, 4).tq();
        let utilization =
            |k: usize| serial / (k as f64 * with_available(ProtocolKind::SAgg, k, 200, 4).tq());
        let (lean, fat) = (utilization(2), utilization(128));
        assert!(lean > fat, "lean {lean:.3} vs fat {fat:.3}");
        assert!(lean <= 1.0 + 1e-9, "lean {lean:.3}");
    }

    #[test]
    fn noise_pays_in_virtual_time_too() {
        let s_agg = with_available(ProtocolKind::SAgg, 16, 300, 6).tq();
        let noisy = with_available(ProtocolKind::RnfNoise { nf: 10 }, 16, 300, 6).tq();
        assert!(noisy > s_agg, "noise {noisy} vs s_agg {s_agg}");
    }

    #[test]
    fn basic_protocol_has_no_aggregation_time() {
        let (dbs, _) = smart_meters(&SmartMeterConfig {
            n_tds: 10,
            ..Default::default()
        });
        let mut world = SimBuilder::new()
            .seed(7)
            .build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
        let querier = world.make_querier("q", "supplier");
        let query = parse_query("SELECT cid FROM consumer").unwrap();
        let params = ProtocolParams::new(ProtocolKind::Basic);
        world.run_query(&querier, &query, params).unwrap();
        let t = simulate(&world.stats, &DeviceProfile::default());
        assert_eq!(t.tq().to_bits(), 0.0f64.to_bits(), "T_Q {:?}", t.tq());
        assert!(t.filtering > 0.0);
    }

    #[test]
    fn virtual_time_does_not_depend_on_the_backend() {
        use std::net::TcpListener;
        use std::sync::Arc;
        use tdsql_core::ssi::Ssi;
        use tdsql_core::{DriverConfig, ServiceDriver, SsiService, TdsPool};
        use tdsql_net::deploy::Deployment;
        use tdsql_net::{serve_pool, serve_ssi, RemoteSsi, RemoteTdsPool};
        use tdsql_obs::Obs;

        // The one clock times any driver run: the same deployment and seed
        // give bit-identical virtual time in process and over loopback TCP.
        let dep = Deployment {
            meters: SmartMeterConfig {
                n_tds: 60,
                districts: 4,
                readings_per_tds: 1,
                ..Default::default()
            },
            ..Deployment::default()
        };
        let querier = dep.make_querier("q", &dep.role);
        let system = dep.system_querier();
        let query =
            parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap();
        let obs = || Arc::new(Obs::new(b"virtual-time"));
        let loopback = || {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            (listener, addr)
        };
        for kind in [ProtocolKind::SAgg, ProtocolKind::EdHist { buckets: 2 }] {
            let mut params = ProtocolParams::new(kind);
            params.chunk = 8;
            let time = |ssi: &dyn SsiService, pool: &dyn TdsPool| {
                let config = DriverConfig {
                    seed: 11,
                    ..DriverConfig::default()
                };
                let mut driver = ServiceDriver::new(ssi, pool, obs(), config).unwrap();
                driver
                    .run_query(&querier, Some(&system), &query, params.clone())
                    .unwrap();
                let t = simulate(&driver.stats, &DeviceProfile::default());
                [t.collection, t.aggregation, t.filtering].map(f64::to_bits)
            };
            let in_process = time(&Ssi::new(), &dep.provision().0);

            let (ssi_listener, ssi_addr) = loopback();
            let (pool_listener, pool_addr) = loopback();
            let ssi = Arc::new(Ssi::new());
            let pool = Arc::new(dep.provision().0);
            std::thread::spawn(move || serve_ssi(ssi_listener, ssi, obs()));
            std::thread::spawn(move || serve_pool(pool_listener, pool, obs()));
            let remote_pool = RemoteTdsPool::connect(pool_addr, obs()).unwrap();
            let over_tcp = time(&RemoteSsi::connect(ssi_addr, obs()), &remote_pool);

            assert_eq!(in_process, over_tcp, "{}", kind.name());
            assert!(in_process.iter().all(|&b| f64::from_bits(b) > 0.0));
        }
    }

    #[test]
    fn simulated_times_are_positive_and_ordered() {
        let device = DeviceProfile::default();
        let t = simulate(&run(ProtocolKind::SAgg, 150), &device);
        assert!(t.collection > 0.0);
        assert!(t.aggregation > 0.0);
        assert!(t.filtering > 0.0);
        assert!(t.total() >= t.tq());
    }

    #[test]
    fn noise_pays_more_than_s_agg() {
        // Fake tuples inflate the first aggregation wave — the functional
        // analogue of Fig. 10e's noise penalty. nf is chosen so the noisy
        // partition count exceeds the 150-TDS population: the penalty then
        // costs extra sequential steps rather than riding on partition
        // shuffle luck.
        let device = DeviceProfile::default();
        let s_agg = simulate(&run(ProtocolKind::SAgg, 150), &device);
        let noisy = simulate(&run(ProtocolKind::RnfNoise { nf: 60 }, 150), &device);
        assert!(
            noisy.tq() > s_agg.tq(),
            "noise {} vs s_agg {}",
            noisy.tq(),
            s_agg.tq()
        );
    }

    #[test]
    fn more_tuples_more_aggregation_time_for_s_agg() {
        let device = DeviceProfile::default();
        let small = simulate(&run(ProtocolKind::SAgg, 60), &device);
        let large = simulate(&run(ProtocolKind::SAgg, 240), &device);
        assert!(large.tq() > small.tq());
    }

    #[test]
    fn faster_link_means_lower_times() {
        let stats = run(ProtocolKind::SAgg, 100);
        let slow = DeviceProfile::default();
        let fast = DeviceProfile {
            link_bps: 1e9,
            ..DeviceProfile::default()
        };
        assert!(simulate(&stats, &fast).total() < simulate(&stats, &slow).total());
    }
}

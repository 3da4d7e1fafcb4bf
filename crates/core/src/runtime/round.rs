//! The deterministic, seeded simulation world.
//!
//! [`SimWorld`] owns a provisioned deployment in one process — the TDS
//! population, the untrusted [`Ssi`], the authority that signs credentials,
//! and the clock/RNG that drive connectivity — and runs queries on it by
//! handing them to the one sequential plan interpreter,
//! [`ServiceDriver`], over its own `Ssi` and a [`LocalTdsPool`] borrowing
//! its population. Time advances in **rounds**: each round a
//! connectivity-sampled subset of the TDSs connects, downloads pending
//! work and uploads encrypted results; the at-least-once machinery behind
//! that (timeouts, re-sends, the fault plan) lives in the driver.
//!
//! Everything is driven by one seeded RNG that the world keeps across
//! queries, so every protocol run is exactly reproducible.

use std::sync::Arc;

use tdsql_obs::Obs;

use tdsql_crypto::credential::{CredentialSigner, Role};
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_crypto::KeyRing;
use tdsql_sql::ast::Query;
use tdsql_sql::engine::Database;
use tdsql_sql::value::Value;

use crate::access::AccessPolicy;
use crate::connectivity::Connectivity;
use crate::error::Result;
use crate::message::QueryTarget;
use crate::protocol::{ProtocolKind, ProtocolParams};
use crate::querier::Querier;
use crate::runtime::service::{DriverConfig, ServiceDriver};
use crate::service::LocalTdsPool;
use crate::ssi::Ssi;
use crate::stats::RunStats;
use crate::tds::{provision, CipherContext, Tds, SYSTEM_ROLE};

/// Builder for a simulation world.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    /// Master secret all TDSs derive their key ring from (burn-time install).
    pub master_seed: Vec<u8>,
    /// Authority secret for credential signing.
    pub authority_secret: Vec<u8>,
    /// Connectivity / fault model.
    pub connectivity: Connectivity,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Cap on collection rounds when the query has no SIZE duration bound.
    pub default_max_rounds: u64,
    /// Delivery attempts per work item before the runtime gives up: a
    /// SIZE-bounded query abandons the item (partial result), an unbounded
    /// query aborts with [`ProtocolError::QueryAborted`].
    pub retry_budget: u32,
}

impl Default for SimBuilder {
    fn default() -> Self {
        Self {
            master_seed: b"tdsql-master".to_vec(),
            authority_secret: b"tdsql-authority".to_vec(),
            connectivity: Connectivity::always_on(),
            seed: 0,
            default_max_rounds: 1_000,
            retry_budget: 64,
        }
    }
}

impl SimBuilder {
    /// Fresh builder with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the connectivity model.
    pub fn connectivity(mut self, c: Connectivity) -> Self {
        self.connectivity = c;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the per-work-item retry budget.
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.retry_budget = budget.max(1);
        self
    }

    /// Build the world: one TDS per database, shared key ring and policy.
    pub fn build(self, databases: Vec<Database>, policy: AccessPolicy) -> SimWorld {
        let n = databases.len();
        self.build_with_policies(databases, vec![policy; n])
    }

    /// Build with a **per-TDS** access policy — the paper allows the policy
    /// to come from the producer organism, the legislator *or a consumer
    /// association*, so different holders may enforce different rules. A TDS
    /// whose policy denies the querier answers with dummies, invisibly.
    pub fn build_with_policies(
        self,
        databases: Vec<Database>,
        policies: Vec<AccessPolicy>,
    ) -> SimWorld {
        assert_eq!(databases.len(), policies.len(), "one policy per TDS");
        let (ring, signer, tdss) = provision(
            &self.master_seed,
            &self.authority_secret,
            databases.into_iter().zip(policies),
        );
        let system_querier = Querier::new(
            "system",
            &ring.k1,
            signer.issue("system", Role::new(SYSTEM_ROLE), u64::MAX),
        );
        // The redaction key is derived from the master seed: digests are
        // stable within one world (traces stay join-able) and unlinkable
        // across worlds provisioned with different master secrets.
        let obs = Arc::new(Obs::new(&self.master_seed));
        let mut ssi = Ssi::new();
        ssi.attach_obs(Arc::clone(&obs));
        SimWorld {
            tdss,
            ssi,
            obs,
            connectivity: self.connectivity,
            rng: StdRng::seed_from_u64(self.seed),
            stats: RunStats::new(),
            round: 0,
            default_max_rounds: self.default_max_rounds,
            retry_budget: self.retry_budget,
            seed: self.seed,
            ring,
            signer,
            system_querier,
            master_seed: self.master_seed,
            epoch: 0,
        }
    }
}

/// The simulated deployment: the TDS population, the untrusted SSI, and the
/// clock/RNG driving connectivity.
pub struct SimWorld {
    /// The TDS population.
    pub tdss: Vec<Tds>,
    /// The untrusted supporting server.
    pub ssi: Ssi,
    /// The run's trace collector (shared with the SSI). Events carry only
    /// the virtual round clock, never wall time, so a fixed-seed run's trace
    /// replays byte-identically.
    pub obs: Arc<Obs>,
    /// Connectivity and fault model.
    pub connectivity: Connectivity,
    /// The run's RNG.
    pub rng: StdRng,
    /// Statistics of the most recent [`SimWorld::run_query`].
    pub stats: RunStats,
    /// Global round clock.
    pub round: u64,
    /// Collection-round cap when SIZE has no duration bound.
    pub default_max_rounds: u64,
    /// Delivery attempts per work item before abandon (SIZE-bounded) or
    /// abort (unbounded).
    pub retry_budget: u32,
    /// The builder's seed: the driver derives per-step TDS randomness from
    /// it, while `rng` above is the stream that advances across queries.
    seed: u64,
    ring: KeyRing,
    signer: CredentialSigner,
    system_querier: Querier,
    master_seed: Vec<u8>,
    epoch: u32,
}

impl SimWorld {
    /// Issue a querier with a signed credential (simulation convenience: in
    /// a deployment the authority and key provisioning are offline steps).
    pub fn make_querier(&self, id: &str, role: &str) -> Querier {
        Querier::new(
            id,
            &self.ring.k1,
            self.signer.issue(id, Role::new(role), u64::MAX),
        )
    }

    /// Issue a querier whose credential expires at `expires_at_round`
    /// (checked by every TDS against the protocol round clock).
    pub fn make_querier_expiring(&self, id: &str, role: &str, expires_at_round: u64) -> Querier {
        Querier::new(
            id,
            &self.ring.k1,
            self.signer.issue(id, Role::new(role), expires_at_round),
        )
    }

    /// The shared key ring (tests only: lets assertions decrypt).
    pub fn ring(&self) -> &KeyRing {
        &self.ring
    }

    /// Current key epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Rotate to the next key epoch: every TDS re-derives `k1`/`k2`/the
    /// bucket-hash key with epoch domain separation. Queriers provisioned
    /// before the rotation can no longer issue readable queries (their `k1`
    /// is stale) and must be re-issued via [`SimWorld::make_querier`];
    /// ciphertexts archived under the old epoch stay sealed to holders of
    /// the new keys. Returns the new epoch number.
    pub fn rotate_keys(&mut self) -> u32 {
        self.epoch += 1;
        self.ring = KeyRing::derive_epoch(&self.master_seed, self.epoch);
        let ciphers = CipherContext::shared(&self.ring);
        for tds in &mut self.tdss {
            tds.rekey_shared(Arc::clone(&ciphers));
        }
        self.system_querier = Querier::new(
            "system",
            &self.ring.k1,
            self.signer
                .issue("system", Role::new(SYSTEM_ROLE), u64::MAX),
        );
        self.epoch
    }

    /// Run `f` on a [`ServiceDriver`] over this world's own `Ssi` and a
    /// pool borrowing its population. The RNG, round clock and stats are
    /// carried into the driver and back out — on errors too — so the clock
    /// keeps advancing across queries and `stats` reads what the run did.
    pub(crate) fn drive<T>(
        &mut self,
        f: impl FnOnce(&mut ServiceDriver<'_>, &Querier) -> Result<T>,
    ) -> Result<T> {
        let pool = LocalTdsPool::new(&self.tdss);
        let mut driver = ServiceDriver::new(
            &self.ssi,
            &pool,
            Arc::clone(&self.obs),
            DriverConfig {
                connectivity: self.connectivity,
                seed: self.seed,
                default_max_rounds: self.default_max_rounds,
                retry_budget: self.retry_budget,
                discovery_cache: None,
            },
        )?;
        driver.rng = self.rng.clone();
        driver.round = self.round;
        driver.stats = std::mem::take(&mut self.stats);
        let out = f(&mut driver, &self.system_querier);
        self.rng = driver.rng;
        self.round = driver.round;
        self.stats = driver.stats;
        out
    }

    /// Prepare protocol parameters for a query, running the discovery
    /// sub-protocol now if the kind needs it. Useful to amortise discovery
    /// across many queries over the same grouping attributes — the paper's
    /// "done only once and refreshed from time to time".
    pub fn prepare_params(&mut self, query: &Query, kind: ProtocolKind) -> Result<ProtocolParams> {
        self.drive(|driver, system| driver.prepare_params(Some(system), query, kind))
    }

    /// Run a query end to end with the given protocol and return the decrypted
    /// result rows. Discovery (for noise/histogram protocols) runs
    /// automatically when `params` lacks the needed domain knowledge.
    pub fn run_query(
        &mut self,
        querier: &Querier,
        query: &Query,
        params: ProtocolParams,
    ) -> Result<Vec<Vec<Value>>> {
        self.run_query_targeted(querier, query, params, QueryTarget::Crowd)
    }

    /// Run a query posted to **personal queryboxes**: only the targeted TDSs
    /// download and answer it (e.g. a doctor querying her own patients'
    /// folders). Untargeted queries use [`SimWorld::run_query`].
    pub fn run_query_targeted(
        &mut self,
        querier: &Querier,
        query: &Query,
        params: ProtocolParams,
        target: QueryTarget,
    ) -> Result<Vec<Vec<Value>>> {
        self.drive(|driver, system| {
            driver.run_query_targeted(querier, Some(system), query, params, target)
        })
    }
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SimWorld {{ tdss: {}, round: {}, connectivity: {:?} }}",
            self.tdss.len(),
            self.round,
            self.connectivity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;
    use crate::workload::{health_survey, HealthConfig};
    use tdsql_sql::parser::parse_query;

    fn small_world(seed: u64) -> SimWorld {
        let (dbs, _) = health_survey(&HealthConfig {
            n_tds: 8,
            ..Default::default()
        });
        SimBuilder::new()
            .seed(seed)
            .build(dbs, AccessPolicy::allow_all(Role::new("physician")))
    }

    #[test]
    fn builder_defaults() {
        let b = SimBuilder::new();
        assert_eq!(b.seed, 0);
        assert_eq!(b.default_max_rounds, 1_000);
        let world = small_world(1);
        assert_eq!(world.tdss.len(), 8);
        assert_eq!(world.epoch(), 0);
        assert_eq!(world.round, 0);
        assert!(format!("{world:?}").contains("tdss: 8"));
    }

    #[test]
    fn queriers_share_k1_with_the_fleet() {
        let mut world = small_world(2);
        let q = world.make_querier("a", "physician");
        let query = parse_query("SELECT COUNT(*) FROM health").unwrap();
        let rows = world
            .run_query(&q, &query, ProtocolParams::new(ProtocolKind::SAgg))
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(8)]]);
    }

    #[test]
    fn critical_path_recorded_per_collection_round() {
        let mut world = small_world(4);
        let q = world.make_querier("a", "physician");
        let query = parse_query("SELECT COUNT(*) FROM health").unwrap();
        world
            .run_query(&q, &query, ProtocolParams::new(ProtocolKind::SAgg))
            .unwrap();
        let phase = world.stats.phase(Phase::Collection);
        assert_eq!(phase.critical_path_bytes.len() as u64, phase.steps);
        assert!(phase.critical_path_bytes.iter().all(|&b| b > 0));
    }

    #[test]
    fn stats_reset_between_runs() {
        let mut world = small_world(5);
        let q = world.make_querier("a", "physician");
        let query = parse_query("SELECT COUNT(*) FROM health").unwrap();
        world
            .run_query(&q, &query, ProtocolParams::new(ProtocolKind::SAgg))
            .unwrap();
        let first = world.stats.load_bytes();
        world
            .run_query(&q, &query, ProtocolParams::new(ProtocolKind::SAgg))
            .unwrap();
        let second = world.stats.load_bytes();
        // Same query, same world: per-run stats, not cumulative.
        assert!((first as f64 - second as f64).abs() / (first as f64) < 0.2);
    }
}

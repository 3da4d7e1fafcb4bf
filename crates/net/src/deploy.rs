//! Shared deployment recipe for the binaries, the smoke script and the
//! loopback tests.
//!
//! A network deployment is keyed by three public parameters: the master
//! seed (burn-time key-ring installation into every TDS), the authority
//! secret (credential signing), and the workload config. `tds-pool` and
//! `querier` processes started with the same parameters provision the
//! same population and the same key ring — exactly the paper's burn-time
//! trust model, where keys are installed in the tamper-resistant hardware
//! before deployment and never travel on the wire.

use std::sync::Arc;

use tdsql_core::access::AccessPolicy;
use tdsql_core::querier::Querier;
use tdsql_core::service::LocalTdsPool;
use tdsql_core::tds::{provision, SYSTEM_ROLE};
use tdsql_core::workload::{smart_meters, SmartMeterConfig};
use tdsql_crypto::credential::{CredentialSigner, Role};
use tdsql_crypto::KeyRing;
use tdsql_sql::engine::Database;

/// Everything needed to provision one side of a deployment.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Master secret the key ring derives from (burn-time install).
    pub master_seed: Vec<u8>,
    /// Authority secret for credential signing.
    pub authority_secret: Vec<u8>,
    /// Smart-meter workload parameters.
    pub meters: SmartMeterConfig,
    /// Role the shared access policy admits.
    pub role: String,
}

impl Default for Deployment {
    fn default() -> Self {
        Self {
            master_seed: b"tdsql-master".to_vec(),
            authority_secret: b"tdsql-authority".to_vec(),
            meters: SmartMeterConfig::default(),
            role: "supplier".into(),
        }
    }
}

impl Deployment {
    /// Provision the TDS population and the cleartext oracle union
    /// (the oracle never leaves the provisioning process; the pool server
    /// only serves ciphertext).
    pub fn provision(&self) -> (LocalTdsPool, Database) {
        let (dbs, oracle) = smart_meters(&self.meters);
        let policy = AccessPolicy::allow_all(Role::new(&self.role));
        let population = dbs.into_iter().map(|db| (db, policy.clone()));
        let (_, _, tdss) = provision(&self.master_seed, &self.authority_secret, population);
        (LocalTdsPool::new(Arc::new(tdss)), oracle)
    }

    /// A querier holding `k1` and a signed credential (never expires).
    pub fn make_querier(&self, id: &str, role: &str) -> Querier {
        let ring = KeyRing::derive(&self.master_seed);
        let signer = CredentialSigner::new(&self.authority_secret);
        Querier::new(id, &ring.k1, signer.issue(id, Role::new(role), u64::MAX))
    }

    /// The system querier the discovery sub-protocol posts as.
    pub fn system_querier(&self) -> Querier {
        self.make_querier("system", SYSTEM_ROLE)
    }
}

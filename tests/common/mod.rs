//! Shared helpers for the integration tests.
#![allow(dead_code)] // not every suite uses every helper

use tdsql_core::querier::Querier;
use tdsql_crypto::credential::{CredentialSigner, Role};
use tdsql_crypto::KeyRing;
use tdsql_sql::value::Value;

/// A querier with a valid, never-expiring credential but `k1` of key epoch
/// `epoch` — stale (or premature) against a population provisioned at any
/// other epoch of the same master seed.
pub fn querier_at_epoch(
    master_seed: &[u8],
    authority_secret: &[u8],
    id: &str,
    role: &str,
    epoch: u32,
) -> Querier {
    Querier::new(
        id,
        &KeyRing::derive_epoch(master_seed, epoch).k1,
        CredentialSigner::new(authority_secret).issue(id, Role::new(role), u64::MAX),
    )
}

/// Sort rows into a canonical order so protocol output (which has no defined
/// row order) can be compared against the oracle.
pub fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").partial_cmp(&format!("{b:?}")).unwrap());
    rows
}

/// Compare two result sets with float tolerance: partial-aggregate merge
/// order may perturb the last ulp of AVG/VARIANCE, which is inherent to any
/// distributed float summation and irrelevant to correctness.
pub fn assert_rows_eq(actual: Vec<Vec<Value>>, expected: Vec<Vec<Value>>, label: &str) {
    let actual = sorted(actual);
    let expected = sorted(expected);
    assert_eq!(actual.len(), expected.len(), "{label}: row count");
    for (i, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        assert_eq!(a.len(), e.len(), "{label}: row {i} arity");
        for (j, (av, ev)) in a.iter().zip(e.iter()).enumerate() {
            match (av, ev) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = y.abs().max(1.0);
                    assert!(
                        (x - y).abs() / scale < 1e-9,
                        "{label}: row {i} col {j}: {x} vs {y}"
                    );
                }
                _ => assert_eq!(av, ev, "{label}: row {i} col {j}"),
            }
        }
    }
}

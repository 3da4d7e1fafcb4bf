//! Threat-model extension: what does a **compromised TDS** change?
//!
//! The paper's threat model assumes all TDSs honest and flags "extend the
//! threat model to (a small number of) compromised TDSs" as future work
//! (Section 8). This module quantifies the blast radius: an SSI that
//! archived all traffic and later obtains one TDS's key material can
//! decrypt **every intermediate tuple of every query run under that `k2`
//! epoch** — the paper's footnote 7 remark that "these keys may change over
//! time" is exactly the mitigation, modelled here by key epochs
//! ([`tdsql_crypto::KeyRing::derive`] from per-epoch masters).
//!
//! An archiving SSI is simply a journaled one: the settle journal already
//! holds every intermediate ciphertext the SSI accepted, and [`archive`]
//! reads them back out.

use tdsql_crypto::{KeyRing, NDetCipher};

use crate::error::Result;
use crate::message::StoredTuple;
use crate::ssi::{Journal, JournalConfig, JournalRecord};
use crate::stats::Phase;
use crate::tuple_codec::{AggInput, PartialAggBatch, PlainTuple};

/// Every intermediate ciphertext a journaled SSI accepted or restored, in
/// journal order: (query id, phase, stored tuple). These are the
/// `CollectionAccepted`, `WorkingAccepted` and `WorkingRestored` records;
/// result rows are sealed under `k1` for the querier and are left out.
/// Refused deliveries (duplicates, late uploads, window-closed drops) are
/// never journaled, so each accepted tuple appears exactly once.
///
/// Opening the journal creates a missing file and truncates a torn tail,
/// as recovery does; read it between deliveries or after the server
/// stopped.
pub fn archive(config: &JournalConfig) -> Result<Vec<(u64, Phase, StoredTuple)>> {
    let (_, records) = Journal::open(config)?;
    let mut out = Vec::new();
    for (_, record) in records {
        let (query_id, phase, tuples) = match record {
            JournalRecord::CollectionAccepted {
                query_id, tuples, ..
            } => (query_id, Phase::Collection, tuples),
            JournalRecord::WorkingAccepted {
                query_id,
                phase,
                tuples,
                ..
            }
            | JournalRecord::WorkingRestored {
                query_id,
                phase,
                tuples,
            } => (query_id, phase, tuples),
            _ => continue,
        };
        out.extend(tuples.into_iter().map(|t| (query_id, phase, t)));
    }
    Ok(out)
}

/// What an adversary recovered from one archived ciphertext.
#[derive(Debug, Clone, PartialEq)]
pub enum Recovered {
    /// Nothing — wrong key (different epoch, or only `k1` compromised).
    Nothing,
    /// A Select-From-Where collection tuple.
    Plain(PlainTuple),
    /// An aggregate collection tuple (group key + inputs).
    Input(AggInput),
    /// A partial-aggregation batch.
    Partials(PartialAggBatch),
}

/// Outcome of replaying an archive against compromised key material.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BreachReport {
    /// Ciphertexts the adversary tried.
    pub attempted: usize,
    /// Ciphertexts that decrypted under the compromised keys.
    pub opened: usize,
    /// True (non-fake) tuples exposed — the privacy loss.
    pub true_tuples_exposed: usize,
    /// Distinct group keys exposed.
    pub groups_exposed: usize,
}

impl BreachReport {
    /// Fraction of archived ciphertexts the adversary could open.
    pub fn open_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.opened as f64 / self.attempted as f64
        }
    }
}

/// An adversary holding a (possibly compromised) key ring.
pub struct Adversary {
    k2: NDetCipher,
}

impl Adversary {
    /// Model a compromise of a TDS provisioned from `ring`.
    pub fn with_ring(ring: &KeyRing) -> Self {
        Self {
            k2: NDetCipher::new(&ring.k2),
        }
    }

    /// Attempt to open one archived ciphertext.
    pub fn open(&self, tuple: &StoredTuple) -> Recovered {
        let Ok(plain) = self.k2.decrypt(&tuple.blob) else {
            return Recovered::Nothing;
        };
        // Try the wire formats in specificity order.
        if let Ok(batch) = PartialAggBatch::decode(&plain) {
            return Recovered::Partials(batch);
        }
        if let Ok(input) = AggInput::decode(&plain) {
            return Recovered::Input(input);
        }
        if let Ok(t) = PlainTuple::decode(&plain) {
            return Recovered::Plain(t);
        }
        Recovered::Nothing
    }

    /// Replay a whole archive and quantify the breach.
    pub fn replay(&self, archive: &[(u64, Phase, StoredTuple)]) -> BreachReport {
        let mut report = BreachReport::default();
        let mut groups = std::collections::BTreeSet::new();
        for (_, _, tuple) in archive {
            report.attempted += 1;
            match self.open(tuple) {
                Recovered::Nothing => {}
                Recovered::Plain(PlainTuple::Dummy) => report.opened += 1,
                Recovered::Plain(PlainTuple::Row(_)) => {
                    report.opened += 1;
                    report.true_tuples_exposed += 1;
                }
                Recovered::Input(input) => {
                    report.opened += 1;
                    if !input.fake {
                        report.true_tuples_exposed += 1;
                        groups.insert(input.key.0.clone());
                    }
                }
                Recovered::Partials(batch) => {
                    report.opened += 1;
                    for (key, _) in &batch.entries {
                        groups.insert(key.0.clone());
                    }
                }
            }
        }
        report.groups_exposed = groups.len();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::access::AccessPolicy;
    use crate::bytes::Bytes;
    use crate::message::{DeliveryOutcome, GroupTag, QueryEnvelope, QueryTarget};
    use crate::protocol::{ProtocolKind, ProtocolParams};
    use crate::runtime::SimBuilder;
    use crate::ssi::Ssi;
    use crate::workload::{smart_meters, SmartMeterConfig};
    use tdsql_crypto::credential::{CredentialSigner, Role};
    use tdsql_sql::ast::SizeClause;
    use tdsql_sql::parser::parse_query;

    /// A fresh journal config under the temp dir, unique per test.
    fn tmp_journal(name: &str) -> JournalConfig {
        let path = std::env::temp_dir().join(format!(
            "tdsql-adversary-{}-{name}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        JournalConfig::new(path)
    }

    /// Run one S_Agg query on a journaled SSI and read its archive back.
    fn run_archived(master: &[u8], name: &str) -> (Vec<(u64, Phase, StoredTuple)>, KeyRing) {
        let (dbs, _) = smart_meters(&SmartMeterConfig {
            n_tds: 20,
            districts: 3,
            readings_per_tds: 1,
            ..Default::default()
        });
        let mut builder = SimBuilder::new().seed(900);
        builder.master_seed = master.to_vec();
        let mut world = builder.build(dbs, AccessPolicy::allow_all(Role::new("supplier")));
        let config = tmp_journal(name);
        world.ssi = Ssi::recover(config.clone()).unwrap();
        world.ssi.attach_obs(Arc::clone(&world.obs));
        let querier = world.make_querier("q", "supplier");
        let query =
            parse_query("SELECT c.district, COUNT(*) FROM consumer c GROUP BY c.district").unwrap();
        world
            .run_query(&querier, &query, ProtocolParams::new(ProtocolKind::SAgg))
            .unwrap();
        let ring = world.ring().clone();
        let archived = archive(&config).unwrap();
        let _ = std::fs::remove_file(&config.path);
        (archived, ring)
    }

    #[test]
    fn compromised_k2_opens_everything() {
        let (archive, ring) = run_archived(b"epoch-1", "k2");
        assert!(!archive.is_empty());
        let adversary = Adversary::with_ring(&ring);
        let report = adversary.replay(&archive);
        assert_eq!(report.open_rate(), 1.0, "k2 opens every intermediate blob");
        assert!(
            report.true_tuples_exposed >= 20,
            "all collection tuples leak"
        );
        assert!(report.groups_exposed >= 3, "group keys leak");
    }

    #[test]
    fn different_epoch_opens_nothing() {
        // Key rotation (footnote 7) contains the breach: traffic from a
        // different master epoch stays sealed.
        let (archive, _) = run_archived(b"epoch-1", "epoch");
        let other_ring = KeyRing::derive(b"epoch-2");
        let adversary = Adversary::with_ring(&other_ring);
        let report = adversary.replay(&archive);
        assert_eq!(report.opened, 0);
        assert_eq!(report.true_tuples_exposed, 0);
        assert_eq!(report.open_rate(), 0.0);
    }

    fn envelope() -> QueryEnvelope {
        QueryEnvelope {
            query_id: 0,
            enc_query: Bytes::from_static(b"opaque"),
            credential: CredentialSigner::new(b"authority").issue("q", Role::new("r"), u64::MAX),
            size: SizeClause {
                max_tuples: None,
                max_rounds: None,
            },
            protocol: ProtocolKind::SAgg,
            target: QueryTarget::Crowd,
        }
    }

    fn tuple(blob: &'static [u8]) -> StoredTuple {
        StoredTuple {
            tag: GroupTag::None,
            blob: Bytes::from_static(blob),
        }
    }

    #[test]
    fn archive_holds_each_accepted_intermediate_once() {
        let config = tmp_journal("archive");
        let ssi = Ssi::recover(config.clone()).unwrap();
        let qid = ssi.post_query_durable(envelope()).unwrap();
        // One collection item, assigned twice (a reassignment after a
        // timeout): the first answer merges, its duplicate and the late
        // answer under the second assignment do not.
        let item = ssi.new_item(qid).unwrap();
        let first = ssi.begin_assignment(qid, item).unwrap();
        let second = ssi.begin_assignment(qid, item).unwrap();
        let batch = vec![tuple(b"c1"), tuple(b"c2")];
        let outcomes = [
            ssi.receive_collection(qid, first, batch.clone()).unwrap(),
            ssi.receive_collection(qid, first, batch).unwrap(),
            ssi.receive_collection(qid, second, vec![tuple(b"late")])
                .unwrap(),
        ];
        assert_eq!(
            outcomes,
            [
                DeliveryOutcome::Accepted,
                DeliveryOutcome::Duplicate,
                DeliveryOutcome::LateAfterReassign
            ]
        );
        ssi.close_collection(qid).unwrap();
        assert_eq!(ssi.take_working(qid).unwrap().len(), 2);
        ssi.restore_working(qid, Phase::Aggregation, vec![tuple(b"w1")])
            .unwrap();
        let item = ssi.new_item(qid).unwrap();
        let a = ssi.begin_assignment(qid, item).unwrap();
        ssi.receive_working(qid, a, Phase::Aggregation, vec![tuple(b"w2")])
            .unwrap();
        let item = ssi.new_item(qid).unwrap();
        let a = ssi.begin_assignment(qid, item).unwrap();
        assert_eq!(
            ssi.receive_results(qid, a, vec![Bytes::from_static(b"k1-row")])
                .unwrap(),
            DeliveryOutcome::Accepted
        );

        let archived: Vec<(u64, Phase, Vec<u8>)> = archive(&config)
            .unwrap()
            .into_iter()
            .map(|(q, phase, t)| (q, phase, t.blob.to_vec()))
            .collect();
        let want = [
            (Phase::Collection, b"c1"),
            (Phase::Collection, b"c2"),
            (Phase::Aggregation, b"w1"),
            (Phase::Aggregation, b"w2"),
        ];
        let want: Vec<(u64, Phase, Vec<u8>)> = want
            .iter()
            .map(|(phase, blob)| (qid, *phase, blob.to_vec()))
            .collect();
        assert_eq!(archived, want);
        let _ = std::fs::remove_file(&config.path);
    }
}

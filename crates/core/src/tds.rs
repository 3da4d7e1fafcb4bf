//! The Trusted Data Server — the only trusted element of the architecture.
//!
//! A TDS holds its owner's data and the cryptographic material (`k1`, `k2`,
//! the bucket-hash key, the authority verification key). Its code "cannot be
//! tampered, even by the TDS holder herself": in this reproduction the trust
//! boundary is the type — everything a [`Tds`] ever returns is encrypted or
//! deliberately public, and the SSI/runtime only handle those outputs.

use crate::bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;
use tdsql_crypto::rng::seq::SliceRandom;
use tdsql_crypto::rng::Rng;
use tdsql_crypto::rng::StdRng;

use tdsql_crypto::{BucketHasher, CredentialVerifier, DetCipher, KeyRing, NDetCipher};
use tdsql_sql::aggregate::AggState;
use tdsql_sql::ast::Query;
use tdsql_sql::engine::{AggregatePlan, Database, JoinedRelation};
use tdsql_sql::expr::{eval_predicate, AggContext};
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::{GroupKey, Value};

use crate::access::AccessPolicy;
use crate::arena::TupleArena;
use crate::error::{ProtocolError, Result};
use crate::histogram::Histogram;
use crate::message::{GroupTag, QueryEnvelope, StoredTuple};
use crate::protocol::{ProtocolKind, ProtocolParams};
use crate::tuple_codec::{AggInput, PartialAggBatch, PlainTuple, ResultRow};

/// Role name reserved for the infrastructure's own discovery queries; the
/// TDS firmware answers these regardless of the installed policy (the
/// discovery result never leaves the `k2` trust domain).
pub const SYSTEM_ROLE: &str = "__system";

/// A TDS's decrypted, validated view of one posted query.
///
/// The parsed query, plan and parameters are behind [`Arc`] so a population
/// of TDSs opening the same envelope (see [`QueryOpenCache`]) shares one
/// parse — and one copy of the discovery data (noise domain / histogram) —
/// instead of cloning per TDS.
#[derive(Debug, Clone)]
pub struct QueryContext {
    /// SSI query id.
    pub query_id: u64,
    /// The decrypted query.
    pub query: Arc<Query>,
    /// Aggregation plan, when the query aggregates.
    pub plan: Option<Arc<AggregatePlan>>,
    /// Did the querier pass credential + access-control checks?
    /// When false the TDS still participates — with dummies only.
    pub authorized: bool,
    /// Protocol parameters (public recipe + k2-protected discovery data).
    pub params: Arc<ProtocolParams>,
}

/// Amortizes the ring-wide part of [`Tds::open_query`] across a population.
///
/// Decrypting and parsing a posted query depends only on the envelope
/// ciphertext and the ring's `k1` — it is identical for every TDS burned
/// from the same ring, yet dominated collection wall-time at large
/// populations. A cache entry is keyed on (cipher-context identity, exact
/// envelope ciphertext) and holds the parsed [`Query`] and [`AggregatePlan`].
/// The per-TDS trust decisions — credential verification and the local
/// access policy — are *never* cached; they run on every open. Neither are
/// failures: an envelope that does not authenticate or parse leaves the
/// cache untouched and fails again on the next call.
///
/// The cache is a fixed-capacity LRU ([`Self::CAPACITY`] entries, most
/// recently used first) because one pool serves every live query: a
/// cross-query batch frame carries up to `MixedOptions::max_batch` (16)
/// envelopes, and C_Noise / ED_Hist queries add a discovery envelope each,
/// so a single slot would be evicted by every neighbour.
///
/// The internals are private and only [`Tds`] methods populate them, so a
/// runtime holding a cache cannot forge a parse result into the trust
/// domain: the trust boundary stays the type.
#[derive(Default)]
pub struct QueryOpenCache {
    inner: std::sync::Mutex<Vec<CachedOpen>>,
}

struct CachedOpen {
    /// Identity of the cipher context the entry was parsed under. Compared
    /// by `Arc::ptr_eq`: a different ring (even with equal ciphertext bytes)
    /// can never hit.
    ciphers: Arc<CipherContext>,
    /// The exact envelope ciphertext this entry answers for.
    enc_query: Bytes,
    query: Arc<Query>,
    plan: Option<Arc<AggregatePlan>>,
}

impl CachedOpen {
    fn answers(&self, ciphers: &Arc<CipherContext>, enc_query: &Bytes) -> bool {
        Arc::ptr_eq(&self.ciphers, ciphers) && self.enc_query == *enc_query
    }
}

impl QueryOpenCache {
    /// Entries kept: twice the default cross-query batch cap, so a full
    /// batch of queries that each run a discovery sub-query still fits.
    /// A constant, not a knob — an evicted entry costs one re-parse.
    pub const CAPACITY: usize = 32;

    /// Fresh, empty cache. A pool keeps one for its lifetime
    /// ([`crate::service::LocalTdsPool`]); the threaded runtime one per run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the entries, recovering them on poison: a panicking worker must
    /// not cascade into poison panics on its siblings, and every mutation
    /// (rotate, truncate, insert of a fully built entry) leaves the list
    /// valid.
    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<CachedOpen>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The parse stored for this (cipher context, ciphertext), now the most
    /// recently used.
    fn get(
        &self,
        ciphers: &Arc<CipherContext>,
        enc_query: &Bytes,
    ) -> Option<(Arc<Query>, Option<Arc<AggregatePlan>>)> {
        let mut entries = self.entries();
        let i = entries.iter().position(|c| c.answers(ciphers, enc_query))?;
        entries[..=i].rotate_right(1);
        Some((Arc::clone(&entries[0].query), entries[0].plan.clone()))
    }

    /// Store a parse as the most recently used, evicting the least.
    fn put(&self, entry: CachedOpen) {
        let mut entries = self.entries();
        // A sibling worker may have stored the same parse meanwhile.
        if !entries
            .iter()
            .any(|c| c.answers(&entry.ciphers, &entry.enc_query))
        {
            entries.truncate(Self::CAPACITY - 1);
            entries.insert(0, entry);
        }
    }
}

impl std::fmt::Debug for QueryOpenCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("QueryOpenCache { .. }")
    }
}

/// How a reduce step tags its outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetagMode {
    /// One untagged batch per partition (S_Agg: the SSI stays blind).
    None,
    /// One tagged tuple per group, tag = `Det_Enc_k2(A_G)` (noise protocols
    /// and the hand-over step of ED_Hist).
    DetPerGroup,
}

/// Destination of finalized rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultDest {
    /// Encrypt under `k1` for the querier (normal queries).
    Querier,
    /// Encrypt under `k2` for other TDSs (discovery sub-protocol).
    Tds,
}

/// The full cipher suite derived from one [`KeyRing`].
///
/// Building this is the expensive part of provisioning a TDS: four AES
/// key-schedule expansions plus four HMAC ipad/opad precomputations. All
/// TDSs burned from the same ring use *identical* cipher material, so the
/// context is built once per ring and shared via [`std::sync::Arc`] —
/// key-schedule construction is O(rings), not O(TDS population).
#[derive(Clone)]
pub struct CipherContext {
    /// `k1` cipher — querier ↔ TDS messages.
    pub k1: NDetCipher,
    /// `k2` cipher — TDS ↔ TDS messages relayed by the SSI.
    pub k2: NDetCipher,
    /// Deterministic cipher under `k2` material — group tags.
    pub det2: DetCipher,
    /// Keyed bucket-id hash — ED_Hist tags.
    pub bucket_hasher: BucketHasher,
}

impl CipherContext {
    /// Derive every cipher from a key ring, once.
    pub fn new(ring: &KeyRing) -> Self {
        Self {
            k1: NDetCipher::new(&ring.k1),
            k2: NDetCipher::new(&ring.k2),
            det2: DetCipher::new(&ring.k2),
            bucket_hasher: BucketHasher::new(&ring.hash),
        }
    }

    /// Derive and wrap for sharing across a TDS population.
    pub fn shared(ring: &KeyRing) -> Arc<Self> {
        Arc::new(Self::new(ring))
    }
}

impl std::fmt::Debug for CipherContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key-derived material.
        write!(f, "CipherContext {{ .. }}")
    }
}

/// The Trusted Data Server.
pub struct Tds {
    /// Stable identifier.
    pub id: u64,
    ciphers: Arc<CipherContext>,
    /// Prepared HMAC half of the authority key: credential verification
    /// runs on every query open (never cached), so the key pads are
    /// absorbed once at burn time.
    authority_verifier: CredentialVerifier,
    db: Database,
    policy: AccessPolicy,
}

impl Tds {
    /// Provision a TDS at burn time. Derives a private cipher context;
    /// population-scale provisioning should build one [`CipherContext`]
    /// per ring and use [`Tds::with_ciphers`] instead.
    pub fn new(
        id: u64,
        ring: &KeyRing,
        authority_key: [u8; 32],
        db: Database,
        policy: AccessPolicy,
    ) -> Self {
        Self::with_ciphers(id, CipherContext::shared(ring), authority_key, db, policy)
    }

    /// Provision a TDS sharing an already-derived cipher context.
    pub fn with_ciphers(
        id: u64,
        ciphers: Arc<CipherContext>,
        authority_key: [u8; 32],
        db: Database,
        policy: AccessPolicy,
    ) -> Self {
        Self {
            id,
            ciphers,
            authority_verifier: CredentialVerifier::new(&authority_key),
            db,
            policy,
        }
    }

    /// Install a new key ring (epoch rotation). The authority key and the
    /// local data are untouched; all ciphers are re-derived.
    pub fn rekey(&mut self, ring: &KeyRing) {
        self.ciphers = CipherContext::shared(ring);
    }

    /// Epoch rotation sharing one already-derived context across the
    /// population (the O(rings) path).
    pub fn rekey_shared(&mut self, ciphers: Arc<CipherContext>) {
        self.ciphers = ciphers;
    }

    /// The local database (mutable: data acquisition is application-defined).
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Read access to the local database (test inspection).
    pub fn db(&self) -> &Database {
        &self.db
    }

    // -- step 3: download, decrypt and validate the query ------------------

    /// Open a posted query: decrypt with `k1`, verify the credential against
    /// the authority key and the current round, evaluate the access policy.
    pub fn open_query(
        &self,
        envelope: &QueryEnvelope,
        params: ProtocolParams,
        now_round: u64,
    ) -> Result<QueryContext> {
        let (query, plan) = self.decrypt_and_parse(envelope)?;
        self.finish_open(envelope, Arc::new(params), now_round, query, plan)
    }

    /// [`Self::open_query`] with the ring-wide decrypt+parse+plan step
    /// memoized in `cache`. Credential verification and the access-policy
    /// decision still run per TDS per call — only work that is a pure
    /// function of (cipher context, envelope ciphertext) is shared, and a
    /// failed decrypt or parse is returned without touching the cache.
    pub fn open_query_cached(
        &self,
        envelope: &QueryEnvelope,
        params: Arc<ProtocolParams>,
        now_round: u64,
        cache: &QueryOpenCache,
    ) -> Result<QueryContext> {
        let (query, plan) = match cache.get(&self.ciphers, &envelope.enc_query) {
            Some(parsed) => parsed,
            None => {
                // An error returns here, before anything is stored.
                let (query, plan) = self.decrypt_and_parse(envelope)?;
                cache.put(CachedOpen {
                    ciphers: Arc::clone(&self.ciphers),
                    enc_query: envelope.enc_query.clone(),
                    query: Arc::clone(&query),
                    plan: plan.clone(),
                });
                (query, plan)
            }
        };
        self.finish_open(envelope, params, now_round, query, plan)
    }

    /// The ring-wide half of an open: authenticate + decrypt the envelope
    /// under `k1`, parse, and build the aggregate plan.
    fn decrypt_and_parse(
        &self,
        envelope: &QueryEnvelope,
    ) -> Result<(Arc<Query>, Option<Arc<AggregatePlan>>)> {
        let sql_bytes = self.ciphers.k1.decrypt(&envelope.enc_query)?;
        let sql = String::from_utf8(sql_bytes)
            .map_err(|_| ProtocolError::Codec("query is not UTF-8".into()))?;
        let query = parse_query(&sql)?;
        let plan = if query.is_aggregate() {
            Some(Arc::new(AggregatePlan::new(&query)?))
        } else {
            None
        };
        Ok((Arc::new(query), plan))
    }

    /// The per-TDS half of an open: credential + policy trust decisions.
    fn finish_open(
        &self,
        envelope: &QueryEnvelope,
        params: Arc<ProtocolParams>,
        now_round: u64,
        query: Arc<Query>,
        plan: Option<Arc<AggregatePlan>>,
    ) -> Result<QueryContext> {
        let credential_ok = self
            .authority_verifier
            .verify(&envelope.credential, now_round)
            .is_ok();
        let is_system = envelope.credential.role.0 == SYSTEM_ROLE;
        let authorized =
            credential_ok && (is_system || self.policy.allows(&envelope.credential.role, &query));
        Ok(QueryContext {
            query_id: envelope.query_id,
            query,
            plan,
            authorized,
            params,
        })
    }

    // -- step 4 / 4': collection phase --------------------------------------

    /// Evaluate the query locally and produce the collection-phase tuples.
    /// Unauthorized queriers and empty local results yield a dummy, so the
    /// SSI cannot learn selectivity or denial.
    pub fn collect(&self, ctx: &QueryContext, rng: &mut StdRng) -> Result<Vec<StoredTuple>> {
        let mut arena = TupleArena::new();
        arena.begin_item();
        self.collect_into(ctx, rng, &mut arena)?;
        Ok(arena.drain().pop().unwrap_or_default())
    }

    /// Arena variant of [`Self::collect`]: seals this TDS's tuples into the
    /// open item of `arena` instead of allocating per tuple. Blobs are
    /// byte-identical to the [`Self::collect`] path under the same RNG
    /// state. On error the caller owns rolling the item back
    /// ([`TupleArena::abort_item`]).
    pub fn collect_into(
        &self,
        ctx: &QueryContext,
        rng: &mut StdRng,
        arena: &mut TupleArena,
    ) -> Result<()> {
        match (&ctx.plan, ctx.params.kind) {
            (None, _) => self.collect_plain_into(ctx, rng, arena),
            (Some(plan), kind) => self.collect_agg_into(ctx, plan.as_ref(), kind, rng, arena),
        }
    }

    fn collect_plain_into(
        &self,
        ctx: &QueryContext,
        rng: &mut StdRng,
        arena: &mut TupleArena,
    ) -> Result<()> {
        let mut sealed = 0usize;
        if ctx.authorized {
            let out = tdsql_sql::engine::execute(&self.db, &ctx.query)?;
            for row in out.rows {
                PlainTuple::Row(row).encode_into(ctx.params.pad, arena.scratch())?;
                arena.seal(&self.ciphers.k2, GroupTag::None, rng);
                sealed += 1;
            }
        }
        if sealed == 0 {
            PlainTuple::Dummy.encode_into(ctx.params.pad, arena.scratch())?;
            arena.seal(&self.ciphers.k2, GroupTag::None, rng);
        }
        Ok(())
    }

    fn collect_agg_into(
        &self,
        ctx: &QueryContext,
        plan: &AggregatePlan,
        kind: ProtocolKind,
        rng: &mut StdRng,
        arena: &mut TupleArena,
    ) -> Result<()> {
        let mut inputs: Vec<AggInput> = Vec::new();
        if ctx.authorized {
            let rel = JoinedRelation::bind(&self.db, &ctx.query.from)?;
            rel.for_each_row(&self.db, |rows| {
                let env = rel.env(rows);
                if let Some(w) = &ctx.query.where_clause {
                    if !eval_predicate(w, &env, &AggContext::Forbidden)? {
                        return Ok(());
                    }
                }
                let key = plan.group_key(&env)?;
                let agg_inputs = plan.agg_inputs(&env)?;
                inputs.push(AggInput {
                    key,
                    inputs: agg_inputs,
                    fake: false,
                });
                Ok(())
            })?;
        }
        let pad = ctx.params.pad;
        // Dummies / fakes per protocol.
        match kind {
            ProtocolKind::Basic => {
                return Err(ProtocolError::Unsupported(
                    "basic protocol cannot run aggregate queries".into(),
                ))
            }
            ProtocolKind::SAgg => {
                if inputs.is_empty() {
                    inputs.push(self.dummy_input(ctx, rng));
                }
                for t in inputs {
                    t.encode_into(pad, arena.scratch())?;
                    arena.seal(&self.ciphers.k2, GroupTag::None, rng);
                }
            }
            ProtocolKind::RnfNoise { nf } => {
                let n_fakes = nf as usize * inputs.len().max(1);
                let fakes = self.random_fakes(ctx, n_fakes, rng);
                if inputs.is_empty() {
                    // Denied/empty: one extra fake stands in for the tuple.
                    inputs.push(self.noise_fake(ctx, rng));
                }
                inputs.extend(fakes);
                for t in inputs {
                    let tag = GroupTag::Det(Bytes::from(self.ciphers.det2.encrypt(&t.key.0)));
                    t.encode_into(pad, arena.scratch())?;
                    arena.seal(&self.ciphers.k2, tag, rng);
                }
            }
            ProtocolKind::CNoise => {
                // One fake per domain value the TDS does NOT hold: the
                // resulting distribution is flat by construction.
                let mut held: std::collections::BTreeSet<GroupKey> =
                    inputs.iter().map(|t| t.key.clone()).collect();
                let mut all = inputs;
                for key in ctx.params.noise_domain.iter() {
                    if !held.contains(key) {
                        held.insert(key.clone());
                        all.push(AggInput {
                            key: key.clone(),
                            inputs: self.fake_inputs(ctx, rng),
                            fake: true,
                        });
                    }
                }
                if all.is_empty() {
                    all.push(self.dummy_input(ctx, rng));
                }
                for t in all {
                    let tag = GroupTag::Det(Bytes::from(self.ciphers.det2.encrypt(&t.key.0)));
                    t.encode_into(pad, arena.scratch())?;
                    arena.seal(&self.ciphers.k2, tag, rng);
                }
            }
            ProtocolKind::EdHist { .. } => {
                let hist = ctx.params.histogram.as_ref().ok_or_else(|| {
                    ProtocolError::Protocol("ED_Hist requires a discovered histogram".into())
                })?;
                if inputs.is_empty() {
                    // Dummy lands in a random bucket.
                    let mut d = self.dummy_input(ctx, rng);
                    d.fake = true;
                    let bucket = rng.gen_range(0..hist.n_buckets());
                    let tag = GroupTag::Bucket(self.ciphers.bucket_hasher.hash(bucket));
                    d.encode_into(pad, arena.scratch())?;
                    arena.seal(&self.ciphers.k2, tag, rng);
                } else {
                    for t in inputs {
                        let bucket = hist.bucket_of(&t.key);
                        let tag = GroupTag::Bucket(self.ciphers.bucket_hasher.hash(bucket));
                        t.encode_into(pad, arena.scratch())?;
                        arena.seal(&self.ciphers.k2, tag, rng);
                    }
                }
            }
        }
        Ok(())
    }

    fn dummy_input(&self, ctx: &QueryContext, rng: &mut StdRng) -> AggInput {
        // A dummy with an empty key: skipped by reducers before any key use.
        let _ = ctx;
        let _ = rng;
        AggInput {
            key: GroupKey(Vec::new()),
            inputs: Vec::new(),
            fake: true,
        }
    }

    fn noise_fake(&self, ctx: &QueryContext, rng: &mut StdRng) -> AggInput {
        ctx.params
            .noise_domain
            .choose(rng)
            .map(|key| AggInput {
                key: key.clone(),
                inputs: self.fake_inputs(ctx, rng),
                fake: true,
            })
            .unwrap_or_else(|| self.dummy_input(ctx, rng))
    }

    fn random_fakes(&self, ctx: &QueryContext, n: usize, rng: &mut StdRng) -> Vec<AggInput> {
        (0..n).map(|_| self.noise_fake(ctx, rng)).collect()
    }

    fn fake_inputs(&self, ctx: &QueryContext, rng: &mut StdRng) -> Vec<Value> {
        // Plausible-looking inputs; they are filtered out before aggregation
        // so their values only need to keep the payload size uniform.
        let n = ctx.plan.as_ref().map(|p| p.agg_calls.len()).unwrap_or(0);
        (0..n)
            .map(|_| Value::Float(rng.gen_range(0.0..1.0)))
            .collect()
    }

    // -- steps 6–8: aggregation phase ---------------------------------------

    /// Reduce a partition of collection tuples into partial aggregations.
    pub fn reduce_inputs(
        &self,
        ctx: &QueryContext,
        partition: &[StoredTuple],
        retag: RetagMode,
        rng: &mut StdRng,
    ) -> Result<Vec<StoredTuple>> {
        let plan = self.require_plan(ctx)?;
        let mut groups: BTreeMap<GroupKey, Vec<AggState>> = BTreeMap::new();
        let mut plain = Vec::new();
        for tuple in partition {
            self.ciphers.k2.decrypt_into(&tuple.blob, &mut plain)?;
            let input = AggInput::decode(&plain)?;
            if input.fake {
                continue;
            }
            let states = groups
                .entry(input.key)
                .or_insert_with(|| plan.init_states());
            plan.update_states(states, &input.inputs)?;
        }
        self.emit_groups(ctx, groups, retag, rng)
    }

    /// Merge a partition of partial-aggregation batches.
    pub fn reduce_partials(
        &self,
        ctx: &QueryContext,
        partition: &[StoredTuple],
        retag: RetagMode,
        rng: &mut StdRng,
    ) -> Result<Vec<StoredTuple>> {
        let plan = self.require_plan(ctx)?;
        let mut groups: BTreeMap<GroupKey, Vec<AggState>> = BTreeMap::new();
        let mut plain = Vec::new();
        for tuple in partition {
            self.ciphers.k2.decrypt_into(&tuple.blob, &mut plain)?;
            let batch = PartialAggBatch::decode(&plain)?;
            for (key, states) in batch.entries {
                match groups.entry(key) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(states);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        plan.merge_states(e.get_mut(), &states)?;
                    }
                }
            }
        }
        self.emit_groups(ctx, groups, retag, rng)
    }

    fn emit_groups(
        &self,
        ctx: &QueryContext,
        groups: BTreeMap<GroupKey, Vec<AggState>>,
        retag: RetagMode,
        rng: &mut StdRng,
    ) -> Result<Vec<StoredTuple>> {
        let _ = ctx;
        match retag {
            RetagMode::None => {
                let batch = PartialAggBatch {
                    entries: groups.into_iter().collect(),
                };
                Ok(vec![self.seal_k2(GroupTag::None, batch.encode()?, rng)])
            }
            RetagMode::DetPerGroup => groups
                .into_iter()
                .map(|(key, states)| {
                    let tag = GroupTag::Det(Bytes::from(self.ciphers.det2.encrypt(&key.0)));
                    let batch = PartialAggBatch {
                        entries: vec![(key, states)],
                    };
                    Ok(self.seal_k2(tag, batch.encode()?, rng))
                })
                .collect(),
        }
    }

    // -- steps 9–12: filtering phase -----------------------------------------

    /// Basic protocol: drop dummies and re-encrypt true rows under `k1`.
    pub fn filter_plain(
        &self,
        ctx: &QueryContext,
        partition: &[StoredTuple],
        rng: &mut StdRng,
    ) -> Result<Vec<Bytes>> {
        let _ = ctx;
        let mut out = Vec::new();
        for tuple in partition {
            let plain = self.ciphers.k2.decrypt(&tuple.blob)?;
            match PlainTuple::decode(&plain)? {
                PlainTuple::Dummy => {}
                PlainTuple::Row(values) => {
                    out.push(Bytes::from(
                        self.ciphers.k1.encrypt(rng, &ResultRow(values).encode()?),
                    ));
                }
            }
        }
        Ok(out)
    }

    /// Aggregate protocols: evaluate HAVING, project the SELECT list, and
    /// encrypt final rows for their destination.
    pub fn finalize_groups(
        &self,
        ctx: &QueryContext,
        partition: &[StoredTuple],
        dest: ResultDest,
        rng: &mut StdRng,
    ) -> Result<Vec<Bytes>> {
        let plan = self.require_plan(ctx)?;
        let mut out = Vec::new();
        for tuple in partition {
            let plain = self.ciphers.k2.decrypt(&tuple.blob)?;
            let batch = PartialAggBatch::decode(&plain)?;
            for (key, states) in &batch.entries {
                if !plan.having_passes(key, states)? {
                    continue;
                }
                let row = plan.project(key, states)?;
                let encoded = ResultRow(row).encode()?;
                let sealed = match dest {
                    ResultDest::Querier => self.ciphers.k1.encrypt(rng, &encoded),
                    ResultDest::Tds => self.ciphers.k2.encrypt(rng, &encoded),
                };
                out.push(Bytes::from(sealed));
            }
        }
        Ok(out)
    }

    /// Decrypt `k2`-sealed result rows (discovery results, readable only
    /// inside the TDS trust domain).
    pub fn open_k2_rows(&self, blobs: &[Bytes]) -> Result<Vec<Vec<Value>>> {
        blobs
            .iter()
            .map(|b| {
                let plain = self.ciphers.k2.decrypt(b)?;
                Ok(ResultRow::decode(&plain)?.0)
            })
            .collect()
    }

    /// Seal a histogram for SSI-side caching under `k2`.
    pub fn seal_histogram(&self, hist: &Histogram, rng: &mut StdRng) -> Bytes {
        Bytes::from(self.ciphers.k2.encrypt(rng, &hist.encode()))
    }

    /// Open a `k2`-sealed histogram.
    pub fn open_histogram(&self, blob: &Bytes) -> Result<Histogram> {
        let plain = self.ciphers.k2.decrypt(blob)?;
        Histogram::decode(&plain).ok_or_else(|| ProtocolError::Codec("corrupt histogram".into()))
    }

    fn require_plan<'a>(&self, ctx: &'a QueryContext) -> Result<&'a AggregatePlan> {
        ctx.plan.as_deref().ok_or_else(|| {
            ProtocolError::Unsupported("aggregation step on a non-aggregate query".into())
        })
    }

    fn seal_k2(&self, tag: GroupTag, plain: Vec<u8>, rng: &mut StdRng) -> StoredTuple {
        StoredTuple {
            tag,
            blob: Bytes::from(self.ciphers.k2.encrypt(rng, &plain)),
        }
    }
}

impl std::fmt::Debug for Tds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tds {{ id: {} }}", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdsql_crypto::credential::{CredentialSigner, Role};
    use tdsql_crypto::rng::SeedableRng;
    use tdsql_sql::ast::SizeClause;
    use tdsql_sql::schema::{Column, TableSchema};
    use tdsql_sql::value::DataType;

    fn make_tds(id: u64, rows: &[(i64, f64, &str)]) -> (Tds, CredentialSigner, KeyRing) {
        let ring = KeyRing::derive(b"test-master");
        let signer = CredentialSigner::new(b"authority");
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "power",
            vec![
                Column::new("cid", DataType::Int),
                Column::new("cons", DataType::Float),
                Column::new("district", DataType::Str),
            ],
        ));
        for (cid, cons, d) in rows {
            db.insert(
                "power",
                vec![
                    Value::Int(*cid),
                    Value::Float(*cons),
                    Value::Str(d.to_string()),
                ],
            )
            .unwrap();
        }
        let policy = AccessPolicy::allow_all(Role::new("supplier"));
        (
            Tds::new(id, &ring, signer.verification_key(), db, policy),
            signer,
            ring,
        )
    }

    fn envelope(
        ring: &KeyRing,
        signer: &CredentialSigner,
        sql: &str,
        kind: ProtocolKind,
        role: &str,
    ) -> QueryEnvelope {
        let k1 = NDetCipher::new(&ring.k1);
        let mut rng = StdRng::seed_from_u64(42);
        QueryEnvelope {
            query_id: 0,
            enc_query: Bytes::from(k1.encrypt(&mut rng, sql.as_bytes())),
            credential: signer.issue("energy-co", Role::new(role), u64::MAX),
            size: SizeClause::default(),
            protocol: kind,
            target: crate::message::QueryTarget::Crowd,
        }
    }

    #[test]
    fn open_query_authorized() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north")]);
        let env = envelope(
            &ring,
            &signer,
            "SELECT AVG(cons) FROM power GROUP BY district",
            ProtocolKind::SAgg,
            "supplier",
        );
        let ctx = tds
            .open_query(&env, ProtocolParams::new(ProtocolKind::SAgg), 0)
            .unwrap();
        assert!(ctx.authorized);
        assert!(ctx.plan.is_some());
    }

    #[test]
    fn open_query_unauthorized_still_participates() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north")]);
        let env = envelope(
            &ring,
            &signer,
            "SELECT AVG(cons) FROM power GROUP BY district",
            ProtocolKind::SAgg,
            "stranger",
        );
        let ctx = tds
            .open_query(&env, ProtocolParams::new(ProtocolKind::SAgg), 0)
            .unwrap();
        assert!(!ctx.authorized);
        // Collection still yields (dummy) output.
        let mut rng = StdRng::seed_from_u64(1);
        let tuples = tds.collect(&ctx, &mut rng).unwrap();
        assert_eq!(tuples.len(), 1);
    }

    #[test]
    fn system_role_bypasses_policy() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north")]);
        let env = envelope(
            &ring,
            &signer,
            "SELECT COUNT(*) FROM power GROUP BY district",
            ProtocolKind::SAgg,
            SYSTEM_ROLE,
        );
        let ctx = tds
            .open_query(&env, ProtocolParams::new(ProtocolKind::SAgg), 0)
            .unwrap();
        assert!(ctx.authorized);
    }

    #[test]
    fn collect_and_reduce_s_agg() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north"), (2, 4.0, "north")]);
        let env = envelope(
            &ring,
            &signer,
            "SELECT district, AVG(cons) FROM power GROUP BY district",
            ProtocolKind::SAgg,
            "supplier",
        );
        let ctx = tds
            .open_query(&env, ProtocolParams::new(ProtocolKind::SAgg), 0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let tuples = tds.collect(&ctx, &mut rng).unwrap();
        assert_eq!(tuples.len(), 2);
        assert!(tuples.iter().all(|t| t.tag == GroupTag::None));

        let reduced = tds
            .reduce_inputs(&ctx, &tuples, RetagMode::None, &mut rng)
            .unwrap();
        assert_eq!(reduced.len(), 1);
        let finalized = tds
            .finalize_groups(&ctx, &reduced, ResultDest::Querier, &mut rng)
            .unwrap();
        assert_eq!(finalized.len(), 1);

        // Decrypt as the querier would.
        let k1 = NDetCipher::new(&ring.k1);
        let row = ResultRow::decode(&k1.decrypt(&finalized[0]).unwrap()).unwrap();
        assert_eq!(row.0, vec![Value::Str("north".into()), Value::Float(3.0)]);
    }

    #[test]
    fn noise_fakes_are_filtered() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north")]);
        let kind = ProtocolKind::RnfNoise { nf: 5 };
        let env = envelope(
            &ring,
            &signer,
            "SELECT district, COUNT(*) FROM power GROUP BY district",
            kind,
            "supplier",
        );
        let mut params = ProtocolParams::new(kind);
        params.noise_domain = vec![
            GroupKey::from_values(&[Value::Str("north".into())]),
            GroupKey::from_values(&[Value::Str("south".into())]),
        ]
        .into();
        let ctx = tds.open_query(&env, params, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let tuples = tds.collect(&ctx, &mut rng).unwrap();
        assert_eq!(tuples.len(), 6, "1 true + 5 fakes");
        // All payload sizes identical: fakes are size-indistinguishable.
        let sizes: std::collections::BTreeSet<usize> =
            tuples.iter().map(|t| t.blob.len()).collect();
        assert_eq!(sizes.len(), 1);

        let reduced = tds
            .reduce_inputs(&ctx, &tuples, RetagMode::DetPerGroup, &mut rng)
            .unwrap();
        // Only the true group survives reduction.
        let finalized = tds
            .finalize_groups(&ctx, &reduced, ResultDest::Querier, &mut rng)
            .unwrap();
        assert_eq!(finalized.len(), 1);
        let k1 = NDetCipher::new(&ring.k1);
        let row = ResultRow::decode(&k1.decrypt(&finalized[0]).unwrap()).unwrap();
        assert_eq!(row.0, vec![Value::Str("north".into()), Value::Int(1)]);
    }

    #[test]
    fn c_noise_covers_complementary_domain() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north")]);
        let env = envelope(
            &ring,
            &signer,
            "SELECT district, COUNT(*) FROM power GROUP BY district",
            ProtocolKind::CNoise,
            "supplier",
        );
        let mut params = ProtocolParams::new(ProtocolKind::CNoise);
        params.noise_domain = ["north", "south", "east", "west"]
            .iter()
            .map(|d| GroupKey::from_values(&[Value::Str(d.to_string())]))
            .collect();
        let ctx = tds.open_query(&env, params, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let tuples = tds.collect(&ctx, &mut rng).unwrap();
        // 1 true + 3 complementary fakes = nd tuples, flat by construction.
        assert_eq!(tuples.len(), 4);
        let tags: std::collections::BTreeSet<_> = tuples.iter().map(|t| t.tag.clone()).collect();
        assert_eq!(tags.len(), 4, "every domain value appears exactly once");
    }

    #[test]
    fn ed_hist_requires_histogram() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north")]);
        let kind = ProtocolKind::EdHist { buckets: 4 };
        let env = envelope(
            &ring,
            &signer,
            "SELECT district, COUNT(*) FROM power GROUP BY district",
            kind,
            "supplier",
        );
        let ctx = tds.open_query(&env, ProtocolParams::new(kind), 0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            tds.collect(&ctx, &mut rng),
            Err(ProtocolError::Protocol(_))
        ));
    }

    #[test]
    fn filter_plain_drops_dummies() {
        let (tds, signer, ring) = make_tds(1, &[(1, 2.0, "north")]);
        let env = envelope(
            &ring,
            &signer,
            "SELECT cid FROM power WHERE cons > 1.0",
            ProtocolKind::Basic,
            "supplier",
        );
        let ctx = tds
            .open_query(&env, ProtocolParams::new(ProtocolKind::Basic), 0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut tuples = tds.collect(&ctx, &mut rng).unwrap();
        assert_eq!(tuples.len(), 1);
        // Add a dummy, as an empty-result TDS of the same ring would send.
        let dummy = PlainTuple::Dummy.encode(ctx.params.pad).unwrap();
        tuples.push(tds.seal_k2(GroupTag::None, dummy, &mut rng));

        let filtered = tds.filter_plain(&ctx, &tuples, &mut rng).unwrap();
        assert_eq!(filtered.len(), 1);
        let k1 = NDetCipher::new(&ring.k1);
        let row = ResultRow::decode(&k1.decrypt(&filtered[0]).unwrap()).unwrap();
        assert_eq!(row.0, vec![Value::Int(1)]);
    }

    #[test]
    fn open_cache_holds_two_full_batches() {
        let max_batch = crate::runtime::mixed::MixedOptions::default().max_batch;
        assert!(QueryOpenCache::CAPACITY >= 2 * max_batch);
    }

    #[test]
    fn histogram_seal_roundtrip() {
        let (tds, _, _) = make_tds(1, &[]);
        let dist: Vec<_> = (0..10)
            .map(|i| (GroupKey::from_values(&[Value::Int(i)]), 3u64))
            .collect();
        let hist = Histogram::build(&dist, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let sealed = tds.seal_histogram(&hist, &mut rng);
        assert_eq!(tds.open_histogram(&sealed).unwrap(), hist);
    }
}

//! Workload-independent kernels: one timed loop per public function of a
//! layer, on inputs shaped like the workloads' (96-byte envelopes, 8-tuple
//! partitions). They tell which layer a change in a workload's per-layer
//! numbers came from; none of them is gated.

use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use tdsql_core::bytes::Bytes;
use tdsql_core::message::{GroupTag, StoredTuple};
use tdsql_core::plan::PhasePlan;
use tdsql_core::ssi::journal::{Journal, JournalConfig, JournalRecord, SyncPolicy};
use tdsql_core::tuple_codec::{AggInput, ResultRow};
use tdsql_core::{ProtocolKind, ProtocolParams, TdsStep};
use tdsql_crypto::aes::Aes128;
use tdsql_crypto::credential::{CredentialSigner, CredentialVerifier, Role};
use tdsql_crypto::hmac::HmacSha256;
use tdsql_crypto::rng::{SeedableRng, StdRng};
use tdsql_crypto::sha256::Sha256;
use tdsql_crypto::{DetCipher, KeyRing, NDetCipher};
use tdsql_net::deploy::Deployment;
use tdsql_net::wire::PoolRequest;
use tdsql_net::{read_frame, write_frame};
use tdsql_sql::engine::execute;
use tdsql_sql::parser::parse_query;
use tdsql_sql::value::{GroupKey, Value};

use crate::stats::percentile_of;
use crate::workload::{journal_dir, JournalFile, AGG_SQL};

/// Batches per kernel; the median batch is reported.
const BATCHES: usize = 5;
/// Payload of a collection tuple once sealed (64-byte pad + nDet overhead
/// rounds to this).
const ENVELOPE: usize = 96;
/// Tuples in a reduce partition.
const PARTITION: usize = 8;
/// Buffer for the two throughput kernels.
const BULK: usize = 64 * 1024;

/// Median nanoseconds per call of `f` over [`BATCHES`] batches of `iters`.
fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    percentile_of(&batches, 0.5).unwrap_or_default()
}

fn mib_per_s(bytes: usize, ns: f64) -> f64 {
    (bytes as f64 / (1024.0 * 1024.0)) / (ns / 1e9)
}

/// Round trips of one small frame over a loopback socket: the floor under
/// every `net.*_rtt_us`.
fn frame_echo_rtt_us() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> Result<(), String> {
            let (mut peer, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            let _ = peer.set_nodelay(true);
            // Ends when the client hangs up.
            while let Ok(frame) = read_frame(&mut peer) {
                write_frame(&mut peer, &frame).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = conn.set_nodelay(true);
        let payload = [0x5au8; ENVELOPE];
        let mut failed = None;
        let ns = ns_per_call(2_000, || {
            let trip = write_frame(&mut conn, &payload).and_then(|()| read_frame(&mut conn));
            if let Err(e) = trip {
                failed = Some(e.to_string());
            }
        });
        drop(conn);
        echo.join()
            .map_err(|_| "echo thread panicked".to_string())??;
        failed.map_or(Ok(ns / 1e3), Err)
    })
}

/// Median nanoseconds of `op` on a fresh journal in `dir`, which syncs
/// every `sync_every` appends.
fn journal_ns(
    dir: &Path,
    sync_every: u64,
    iters: u32,
    op: impl Fn(&mut Journal, &JournalRecord) -> tdsql_core::Result<()>,
) -> Result<f64, String> {
    let file = JournalFile::new(dir, "kernel");
    let config = JournalConfig {
        path: file.0.clone(),
        sync: SyncPolicy::EveryN(sync_every),
        snapshot_every: 0,
    };
    let (mut journal, _) = Journal::open(&config).map_err(|e| format!("journal kernel: {e}"))?;
    let record = JournalRecord::CollectionAccepted {
        query_id: 1,
        assignment: 1,
        tuples: vec![StoredTuple {
            tag: GroupTag::None,
            blob: Bytes::from(vec![0x5au8; ENVELOPE]),
        }],
    };
    let mut failed = None;
    let ns = ns_per_call(iters, || {
        if let Err(e) = op(&mut journal, &record) {
            failed = Some(e);
        }
    });
    failed.map_or(Ok(ns), |e| Err(format!("journal kernel: {e}")))
}

/// Run every kernel once. `disk` is the directory whose flush latency the
/// fsync kernel reads.
pub fn run(disk: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let err = |e: tdsql_core::ProtocolError| format!("kernel set-up: {e}");
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(13);
    let dep = Deployment::default();
    let ring = KeyRing::derive(&dep.master_seed);
    let plain = [0x5au8; ENVELOPE];

    let ndet = NDetCipher::new(&ring.k2);
    let ns = ns_per_call(20_000, || {
        black_box(ndet.encrypt(&mut rng, black_box(&plain)));
    });
    out.push(("kernel.crypto.ndet_encrypt_ns", ns));
    let sealed = ndet.encrypt(&mut rng, &plain);
    let ns = ns_per_call(20_000, || {
        black_box(ndet.decrypt(black_box(&sealed)).is_ok());
    });
    out.push(("kernel.crypto.ndet_decrypt_ns", ns));
    let det = DetCipher::new(&ring.k2);
    let ns = ns_per_call(20_000, || {
        black_box(det.encrypt(black_box(&plain)));
    });
    out.push(("kernel.crypto.det_encrypt_ns", ns));

    let aes = Aes128::new(ring.k1.enc_key());
    let mut bulk = vec![0x5au8; BULK];
    let ns = ns_per_call(200, || aes.encrypt_blocks(black_box(&mut bulk)));
    out.push(("kernel.crypto.aes_mib_s", mib_per_s(BULK, ns)));
    let ns = ns_per_call(100, || {
        black_box(Sha256::digest(black_box(&bulk)));
    });
    out.push(("kernel.crypto.sha256_mib_s", mib_per_s(BULK, ns)));
    let ns = ns_per_call(20_000, || {
        black_box(HmacSha256::mac(ring.k1.mac_key(), black_box(&plain)));
    });
    out.push(("kernel.crypto.hmac_ns", ns));

    let signer = CredentialSigner::new(&dep.authority_secret);
    let credential = signer.issue("energy-co", Role::new(&dep.role), u64::MAX);
    let verifier = CredentialVerifier::new(&signer.verification_key());
    let ns = ns_per_call(20_000, || {
        black_box(verifier.verify(black_box(&credential), 0).is_ok());
    });
    out.push(("kernel.crypto.credential_verify_ns", ns));

    let tuple = AggInput {
        key: GroupKey::from_values(&[Value::Str("district-0003".into())]),
        inputs: vec![Value::Int(1)],
        fake: false,
    };
    let pad = ProtocolParams::new(ProtocolKind::SAgg).pad;
    let ns = ns_per_call(50_000, || {
        black_box(black_box(&tuple).encode(pad).is_ok());
    });
    out.push(("kernel.codec.encode_ns", ns));
    let encoded = tuple.encode(pad).map_err(err)?;
    let ns = ns_per_call(50_000, || {
        black_box(AggInput::decode(black_box(&encoded)).is_ok());
    });
    out.push(("kernel.codec.decode_ns", ns));

    let ns = ns_per_call(5_000, || {
        black_box(parse_query(black_box(AGG_SQL)).is_ok());
    });
    out.push(("kernel.sql.parse_us", ns / 1e3));
    let query = parse_query(AGG_SQL).map_err(|e| format!("kernel query: {e}"))?;
    let (pool, _oracle) = dep.provision();
    let tds = pool.tdss().first().ok_or("empty kernel population")?;
    let ns = ns_per_call(5_000, || {
        black_box(execute(tds.db(), black_box(&query)).is_ok());
    });
    out.push(("kernel.sql.execute_local_us", ns / 1e3));
    let params = ProtocolParams::new(ProtocolKind::SAgg);
    let ns = ns_per_call(5_000, || {
        black_box(PhasePlan::compile(black_box(&query), &params));
    });
    out.push(("kernel.plan.compile_us", ns / 1e3));

    let querier = dep.make_querier("energy-co", &dep.role);
    let ns = ns_per_call(5_000, || {
        black_box(querier.make_envelope(&query, ProtocolKind::SAgg, &mut rng));
    });
    out.push(("kernel.querier.envelope_us", ns / 1e3));
    let env = querier.make_envelope(&query, ProtocolKind::SAgg, &mut rng);
    let ns = ns_per_call(5_000, || {
        black_box(tds.open_query(black_box(&env), params.clone(), 0).is_ok());
    });
    out.push(("kernel.tds.open_query_us", ns / 1e3));
    let k1 = NDetCipher::new(&ring.k1);
    let blobs = (0..PARTITION as i64)
        .map(|i| {
            let row = ResultRow(vec![Value::Str(format!("district-{i:04}")), Value::Int(i)]);
            Ok(Bytes::from(k1.encrypt(&mut rng, &row.encode()?)))
        })
        .collect::<tdsql_core::Result<Vec<Bytes>>>()
        .map_err(err)?;
    let ns = ns_per_call(5_000, || {
        black_box(querier.decrypt_results(black_box(&blobs)).is_ok());
    });
    out.push(("kernel.querier.decrypt_results_us", ns / 1e3));

    let request = PoolRequest::Step {
        index: 0,
        env,
        params,
        now_round: 0,
        step: TdsStep::ReduceInputs {
            retag: tdsql_core::tds::RetagMode::None,
        },
        partition: (0..PARTITION)
            .map(|_| StoredTuple {
                tag: GroupTag::None,
                blob: Bytes::from(sealed.clone()),
            })
            .collect(),
        rng_seed: 13,
    };
    let ns = ns_per_call(20_000, || {
        black_box(black_box(&request).encode().is_ok());
    });
    out.push(("kernel.wire.encode_ns", ns));
    let wire = request.encode().map_err(err)?;
    let ns = ns_per_call(20_000, || {
        black_box(PoolRequest::decode(black_box(&wire)).is_ok());
    });
    out.push(("kernel.wire.decode_ns", ns));

    out.push(("kernel.frame.echo_rtt_us", frame_echo_rtt_us()?));
    // As the journaled workload appends: where it does, syncing as it does.
    let ns = journal_ns(&journal_dir(), 64, 20_000, |j, r| j.append(r))?;
    out.push(("kernel.journal.append_ns", ns));
    let ns = journal_ns(disk, u64::MAX, 4, |j, r| {
        j.append(r).and_then(|()| j.sync_now())
    })?;
    out.push(("kernel.journal.fsync_disk_us", ns / 1e3));
    Ok(out)
}

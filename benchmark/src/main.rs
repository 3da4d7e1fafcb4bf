//! `benchmark` — end-to-end and per-layer measurements over the
//! `ServiceDriver` seam. See `README.md` beside this crate.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]   one run, result JSON on the last line
//! benchmark                                                         every workload, untraced then traced
//! benchmark check-counts [--seed N]                                  do the exact counts repeat?
//! ```
//!
//! Every run happens in a child process of its own (so `VmHWM` belongs to
//! one workload) with the `TDSQL_*` knobs scrubbed from its environment.

mod json;
mod kernels;
mod reference;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use std::time::Instant;

use json::Metric;
use reference::speed_factor;
use stats::{percentile_of, ratio};
use trace::{Recorder, SsiProbe, TracedPool, Tracing};
use workload::{Backend, Phase, Shape, Spec, World, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Ordinal of the first timed query. Fixed, so that twins with different
/// warm-up counts time the same queries (ordinals seed the drivers).
const FIRST_TIMED: u64 = 1_000;
/// A traced run records spans for every this-many-th query.
const SAMPLE_EVERY: u64 = 16;
/// Environment knobs that change what the program does.
const SCRUBBED_ENV: [&str; 3] = ["TDSQL_LOG", "TDSQL_SOFT_CRYPTO", "TDSQL_NET_TIMEOUT_MS"];
/// Counts that must repeat exactly between two runs at one seed.
const EXACT_COUNTS: [&str; 7] = [
    "tds.calls_per_query",
    "ssi.calls_per_query",
    "driver.load_q_bytes_per_query",
    "crypto.aes_blocks_per_query",
    "net.round_trips_per_query",
    "net.wire_bytes_per_query",
    "journal.bytes_per_query",
];

/// A metric as `BENCHMARK.json` declares it. Only the end-to-end ones
/// carry a bound: how far the median may worsen before it is a regression.
struct Declared {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Declared {
    Declared {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Declared {
    Declared {
        name,
        unit,
        better,
        bound: None,
    }
}

const END_TO_END: [Declared; 4] = [
    gated("query_ms.p50", "ms", "lower", 0.25),
    gated("tuples_per_s", "1/s", "higher", 0.25),
    gated("setup_s", "s", "lower", 0.25),
    gated("peak_rss_mib", "MiB", "lower", 0.1),
];

/// Every metric of a traced run, in the order it is printed.
const PER_LAYER: [Declared; 65] = [
    layer("box.ref_task_us.p50", "us", "lower"),
    layer("driver.self_ms_per_query", "ms", "lower"),
    layer("driver.rounds_per_query", "count", "lower"),
    layer("driver.load_q_bytes_per_query", "B", "lower"),
    layer("driver.participating_tds", "count", "higher"),
    layer("driver.query_ms.p90", "ms", "lower"),
    layer("tds.busy_ms_per_query", "ms", "lower"),
    layer("tds.calls_per_query", "count", "lower"),
    layer("tds.collect_us_per_call", "us", "lower"),
    layer("tds.reduce_us_per_call", "us", "lower"),
    layer("tds.finalize_us_per_call", "us", "lower"),
    layer("tds.tuples_out_per_query", "count", "lower"),
    layer("tds.errors", "count", "lower"),
    layer("ssi.busy_ms_per_query", "ms", "lower"),
    layer("ssi.calls_per_query", "count", "lower"),
    layer("ssi.ledger_us_per_call", "us", "lower"),
    layer("ssi.receive_us_per_call", "us", "lower"),
    layer("ssi.working_us_per_call", "us", "lower"),
    layer("ssi.control_us_per_call", "us", "lower"),
    layer("ssi.purge_ms_per_query", "ms", "lower"),
    layer("ssi.errors", "count", "lower"),
    layer("journal.bytes_per_query", "B", "lower"),
    layer("journal.bytes_per_load_byte", "ratio", "lower"),
    layer("crypto.aes_blocks_per_query", "count", "lower"),
    layer("crypto.key_schedules_per_query", "count", "lower"),
    layer("net.round_trips_per_query", "count", "lower"),
    layer("net.retries_per_query", "count", "lower"),
    layer("net.reconnects", "count", "lower"),
    layer("net.wire_bytes_per_query", "B", "lower"),
    layer("net.wire_bytes_per_load_byte", "ratio", "lower"),
    layer("net.ssi_rtt_us.p50", "us", "lower"),
    layer("net.pool_rtt_us.p50", "us", "lower"),
    layer("sched.admitted", "count", "higher"),
    layer("sched.queued", "count", "lower"),
    layer("sched.rejected", "count", "lower"),
    layer("batch.flushes_per_query", "count", "lower"),
    layer("batch.parts_per_flush", "count", "higher"),
    layer("batch.wait_share", "ratio", "lower"),
    layer("mixed.wave_ms.p50", "ms", "lower"),
    layer("mixed.query_ms.p50.s_agg", "ms", "lower"),
    layer("mixed.query_ms.p50.basic", "ms", "lower"),
    layer("mixed.query_ms.p50.rnf_noise", "ms", "lower"),
    layer("mixed.query_ms.p50.c_noise", "ms", "lower"),
    layer("mixed.query_ms.p50.ed_hist", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("kernel.crypto.ndet_encrypt_ns", "ns", "lower"),
    layer("kernel.crypto.ndet_decrypt_ns", "ns", "lower"),
    layer("kernel.crypto.det_encrypt_ns", "ns", "lower"),
    layer("kernel.crypto.aes_mib_s", "MiB/s", "higher"),
    layer("kernel.crypto.sha256_mib_s", "MiB/s", "higher"),
    layer("kernel.crypto.hmac_ns", "ns", "lower"),
    layer("kernel.crypto.credential_verify_ns", "ns", "lower"),
    layer("kernel.codec.encode_ns", "ns", "lower"),
    layer("kernel.codec.decode_ns", "ns", "lower"),
    layer("kernel.sql.parse_us", "us", "lower"),
    layer("kernel.sql.execute_local_us", "us", "lower"),
    layer("kernel.plan.compile_us", "us", "lower"),
    layer("kernel.querier.envelope_us", "us", "lower"),
    layer("kernel.tds.open_query_us", "us", "lower"),
    layer("kernel.querier.decrypt_results_us", "us", "lower"),
    layer("kernel.wire.encode_ns", "ns", "lower"),
    layer("kernel.wire.decode_ns", "ns", "lower"),
    layer("kernel.frame.echo_rtt_us", "us", "lower"),
    layer("kernel.journal.append_ns", "ns", "lower"),
    layer("kernel.journal.fsync_disk_us", "us", "lower"),
];

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// Least length of the timed phase (of each half of a traced run).
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    child: bool,
    pinned: bool,
    check_counts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 13,
        seconds: 12.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        child: false,
        pinned: false,
        check_counts: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "check-counts" => args.check_counts = true,
            "--child" => args.child = true,
            "--pinned" => args.pinned = true,
            "--workload" => args.workload = Some(value()?),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Filesystem type of the mount `dir` lives on, from `/proc/self/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then_some((at.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

// --- the parent: one child per run ---------------------------------------

/// The last CPU this process may run on, if `taskset` is there to pin to it.
fn pin_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = allowed.trim().rsplit([',', '-']).next()?.to_string();
    let pins = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?
        .success();
    pins.then_some(cpu)
}

/// Spawn this binary as a child for one run and wait for it. Loopback
/// runs are pinned to one CPU when `taskset` allows: the three parties of
/// a synchronous RPC chain never run at once, and unpinned their wake-ups
/// cross cores at the scheduler's whim.
fn spawn_child(spec: &Spec, args: &Args, capture: bool) -> Result<(ExitCode, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let pin = (spec.backend == Backend::Loopback).then(pin_cpu).flatten();
    let mut cmd = match &pin {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", cpu]).arg(&exe).arg("--pinned");
            cmd
        }
        None => Command::new(&exe),
    };
    cmd.args(["--child", "--workload", spec.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir);
    for key in SCRUBBED_ENV {
        cmd.env_remove(key);
    }
    cmd.stdin(Stdio::null());
    if capture {
        cmd.stdout(Stdio::piped());
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("spawn child: {e}"))?;
    let code = if output.status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    Ok((code, String::from_utf8_lossy(&output.stdout).into_owned()))
}

fn run_all(args: &Args) -> Result<ExitCode, String> {
    let mut code = ExitCode::SUCCESS;
    for spec in &WORKLOADS {
        for trace in [false, true] {
            println!(
                "== {} (trace {}) — {}",
                spec.name,
                u8::from(trace),
                spec.why
            );
            let run = Args {
                trace,
                ..args.clone()
            };
            if spawn_child(spec, &run, false)?.0 != ExitCode::SUCCESS {
                code = ExitCode::FAILURE;
            }
        }
    }
    Ok(code)
}

/// Two traced runs of every solo workload at one seed, each of exactly the
/// workload's fixed query count (`--seconds 0`); the counts in
/// [`EXACT_COUNTS`] must agree digit for digit.
fn check_counts(args: &Args) -> Result<ExitCode, String> {
    let mut differing = 0;
    for spec in WORKLOADS
        .iter()
        .filter(|s| matches!(s.shape, Shape::Solo(_)))
    {
        let run = Args {
            trace: true,
            seconds: 0.0,
            ..args.clone()
        };
        let mut lines = Vec::new();
        for _ in 0..2 {
            let (code, stdout) = spawn_child(spec, &run, true)?;
            if code != ExitCode::SUCCESS {
                return Err(format!("{}: traced run failed", spec.name));
            }
            lines.push(stdout.lines().last().unwrap_or_default().to_string());
        }
        for name in EXACT_COUNTS {
            let (a, b) = (
                json::value_text(&lines[0], name),
                json::value_text(&lines[1], name),
            );
            let verdict = if a.is_some() && a == b {
                "repeats"
            } else {
                differing += 1;
                "DIFFERS"
            };
            println!(
                "{:<18} {:<32} {:>14} {:>14}  {verdict}",
                spec.name,
                name,
                a.unwrap_or("-"),
                b.unwrap_or("-")
            );
        }
    }
    println!("check-counts: {differing} count(s) differ");
    Ok(if differing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// --- the child: one workload, one run ------------------------------------

/// What a run reports: each declared metric with its reading, `None` where
/// the metric does not apply to the workload.
struct RunResult {
    attempted: u64,
    failed: u64,
    readings: Vec<(&'static Declared, Option<f64>)>,
}

/// Build a world and run its fixed warm-up; returns the world, the
/// warm-up phase and how long both took, the reference task's own time
/// taken out.
fn set_up(spec: &Spec, args: &Args) -> Result<(World, Phase, f64), String> {
    let begun = Instant::now();
    let world = World::build(spec, args.seed)?;
    let warm = {
        let probe = SsiProbe::new(world.ssi(), None);
        workload::run_phase(&world, spec, 0, spec.warmup, 0.0, &probe, None)?
    };
    let seconds = begun.elapsed().as_secs_f64() - warm.reference_s();
    Ok((world, warm, seconds))
}

/// The factor a phase's times are multiplied by: the reference task's
/// speed factor on a CPU-bound workload, 1 on one that waits on timers.
fn factor_of(spec: &Spec, phase: &Phase) -> Result<f64, String> {
    if !spec.cpu_bound {
        return Ok(1.0);
    }
    speed_factor(&phase.ref_us).ok_or_else(|| "the reference task never ran".to_string())
}

/// `--trace 0`: the four end-to-end metrics. The three times are reported
/// at the speed of a calm box: each is multiplied by the speed factor of
/// the phase it was measured in. Memory is as read.
fn run_untraced(spec: &Spec, args: &Args) -> Result<RunResult, String> {
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut world = None;
    for _ in 0..SETUP_REPS {
        // The previous world goes first, so two never coexist in memory.
        drop(world.take());
        let (w, warm, seconds) = set_up(spec, args)?;
        attempted += warm.queries;
        failed += warm.failed;
        setups.push(seconds * factor_of(spec, &warm)?);
        setups_raw.push(seconds);
        world = Some(w);
    }
    let world = world.ok_or("no set-up ran")?;
    let probe = SsiProbe::new(world.ssi(), None);
    let timed = workload::run_phase(
        &world,
        spec,
        FIRST_TIMED,
        spec.timed,
        args.seconds,
        &probe,
        None,
    )?;
    attempted += timed.queries;
    failed += timed.failed;
    let factor = factor_of(spec, &timed)?;
    println!(
        "samples: {} timed queries in {:.3} s, rss read after {} queries, {} set-ups",
        timed.latency_ms.len(),
        timed.wall_s,
        spec.timed,
        setups.len(),
    );
    println!(
        "as measured: query_ms.p50 {:.4} tuples_per_s {:.4} setup_s {:?}",
        percentile_of(&timed.latency_ms, 0.5).unwrap_or_default(),
        ratio(timed.collected as f64, timed.wall_s).unwrap_or_default(),
        setups_raw,
    );
    println!(
        "reference task: {:.1} us (median of {}), calm box {:.1} us, cpu_bound {} -> times x {:.4}",
        percentile_of(&timed.ref_us, 0.5).unwrap_or_default(),
        timed.ref_us.len(),
        reference::NOMINAL_US,
        spec.cpu_bound,
        factor,
    );
    let values = [
        percentile_of(&timed.latency_ms, 0.5).map(|ms| ms * factor),
        ratio(timed.collected as f64, timed.wall_s * factor),
        percentile_of(&setups, 0.5),
        Some(timed.rss_kib as f64 / 1024.0),
    ];
    Ok(RunResult {
        attempted,
        failed,
        readings: END_TO_END.iter().zip(values).collect(),
    })
}

/// `--trace 1`: an untraced half for the overhead baseline, a traced half
/// behind the decorators, then the kernels.
fn run_traced(spec: &Spec, args: &Args) -> Result<RunResult, String> {
    let (world, warm, _) = set_up(spec, args)?;
    let (half_count, half_seconds) = (spec.timed.div_ceil(2), args.seconds / 2.0);
    let baseline = {
        let probe = SsiProbe::new(world.ssi(), None);
        workload::run_phase(
            &world,
            spec,
            FIRST_TIMED,
            half_count,
            half_seconds,
            &probe,
            None,
        )?
    };
    let rec = Recorder::new();
    let probe = SsiProbe::new(world.ssi(), Some(&rec));
    let pool = TracedPool::new(world.pool(), &rec);
    let tracing = Tracing {
        rec: &rec,
        pool: &pool,
        sample_every: SAMPLE_EVERY,
    };
    let net_before = world.net_stats();
    let journal_before = world.journal_len();
    let aes_before = tdsql_crypto::aes::aes_blocks_batched();
    let schedules_before = tdsql_crypto::key_schedules_built();
    let traced = workload::run_phase(
        &world,
        spec,
        FIRST_TIMED + baseline.units,
        half_count,
        half_seconds,
        &probe,
        Some(&tracing),
    )?;
    let aes_blocks = tdsql_crypto::aes::aes_blocks_batched() - aes_before;
    let key_schedules = tdsql_crypto::key_schedules_built() - schedules_before;
    let journal_bytes = world
        .journal_len()
        .zip(journal_before)
        .map(|(after, before)| (after - before) as f64);
    // Client-side counters of both connections: calls, retries,
    // reconnects, bytes on the wire.
    let net = world.net_stats().zip(net_before).map(|(after, before)| {
        [
            after.calls - before.calls,
            (after.attempts - after.calls) - (before.attempts - before.calls),
            after.reconnects - before.reconnects,
            after.bytes_total() - before.bytes_total(),
        ]
        .map(|n| n as f64)
    });
    let spans = rec.spans();
    let kernels = kernels::run(&args.out_dir)?;

    let per_q = |v: f64| ratio(v, traced.queries as f64);
    let ms = |ns: u64| ns as f64 / 1e6;
    let (ssi_calls, ssi_ns) = probe.driver_calls();
    let (tds_calls, tds_ns) = pool.calls();
    let latency_sum: f64 = traced.latency_ms.iter().sum();
    // What is left of the queries' latency once the SSI calls and the pool's
    // contacts are taken out. A solo driver is sequential, so this is its
    // self time. Under run_mixed the drivers overlap and wait on the batch
    // window: there it is batch-window wait plus the drivers' own time.
    let unaccounted_ms = latency_sum - ms(ssi_ns) - ms(tds_ns);
    let solo = matches!(spec.shape, Shape::Solo(_));
    let load_bytes = solo.then_some(traced.load_bytes as f64);
    let rtt_p50 =
        |prefix| net.and_then(|_| percentile_of(&trace::durations_us(&spans, prefix), 0.5));

    let reading = |name: &str| -> Result<Option<f64>, String> {
        Ok(match name {
            "box.ref_task_us.p50" => percentile_of(&traced.ref_us, 0.5),
            "driver.self_ms_per_query" => solo.then(|| per_q(unaccounted_ms)).flatten(),
            "driver.rounds_per_query" => solo.then(|| per_q(traced.rounds as f64)).flatten(),
            "driver.load_q_bytes_per_query" => load_bytes.and_then(per_q),
            "driver.participating_tds" => {
                solo.then(|| per_q(traced.participating as f64)).flatten()
            }
            "driver.query_ms.p90" => percentile_of(&traced.latency_ms, 0.9),
            "tds.busy_ms_per_query" => per_q(ms(tds_ns)),
            "tds.calls_per_query" => per_q(tds_calls as f64),
            "tds.collect_us_per_call" => pool.collect.us_per_call(),
            "tds.reduce_us_per_call" => pool.reduce.us_per_call(),
            "tds.finalize_us_per_call" => pool.finalize.us_per_call(),
            "tds.tuples_out_per_query" => per_q(pool.tuples_out.get() as f64),
            "tds.errors" => Some(pool.errors.get() as f64),
            "ssi.busy_ms_per_query" => per_q(ms(ssi_ns)),
            "ssi.calls_per_query" => per_q(ssi_calls as f64),
            "ssi.ledger_us_per_call" => probe.ledger.us_per_call(),
            "ssi.receive_us_per_call" => probe.receive.us_per_call(),
            "ssi.working_us_per_call" => probe.working.us_per_call(),
            "ssi.control_us_per_call" => probe.control.us_per_call(),
            "ssi.purge_ms_per_query" => per_q(ms(probe.purge.ns())),
            "ssi.errors" => Some(probe.errors.get() as f64),
            "journal.bytes_per_query" => journal_bytes.and_then(per_q),
            "journal.bytes_per_load_byte" => {
                journal_bytes.zip(load_bytes).and_then(|(j, l)| ratio(j, l))
            }
            "crypto.aes_blocks_per_query" => per_q(aes_blocks as f64),
            "crypto.key_schedules_per_query" => per_q(key_schedules as f64),
            "net.round_trips_per_query" => net.and_then(|n| per_q(n[0])),
            "net.retries_per_query" => net.and_then(|n| per_q(n[1])),
            "net.reconnects" => net.map(|n| n[2]),
            "net.wire_bytes_per_query" => net.and_then(|n| per_q(n[3])),
            "net.wire_bytes_per_load_byte" => net.zip(load_bytes).and_then(|(n, l)| ratio(n[3], l)),
            "net.ssi_rtt_us.p50" => rtt_p50("ssi."),
            "net.pool_rtt_us.p50" => rtt_p50("tds."),
            "sched.admitted" => (!solo).then_some(traced.sched[0] as f64),
            "sched.queued" => (!solo).then_some(traced.sched[1] as f64),
            "sched.rejected" => (!solo).then_some(traced.sched[2] as f64),
            "batch.flushes_per_query" => (!solo)
                .then(|| per_q(traced.batch_flushes as f64))
                .flatten(),
            "batch.parts_per_flush" => {
                ratio(traced.batch_parts as f64, traced.batch_flushes as f64)
            }
            "batch.wait_share" => (!solo)
                .then(|| ratio(unaccounted_ms, latency_sum))
                .flatten(),
            "mixed.wave_ms.p50" => percentile_of(&traced.wave_ms, 0.5),
            "trace.overhead_pct" => percentile_of(&traced.latency_ms, 0.5)
                .zip(percentile_of(&baseline.latency_ms, 0.5))
                .and_then(|(with, without)| ratio(with, without))
                .map(|r| (r - 1.0) * 100.0),
            other => {
                if let Some(label) = other.strip_prefix("mixed.query_ms.p50.") {
                    let of_label = traced.latency_by_label.iter().find(|(l, _)| *l == label);
                    let (_, samples) = of_label.ok_or_else(|| format!("no wave is {label}"))?;
                    percentile_of(samples, 0.5)
                } else {
                    let kernel = kernels.iter().find(|(k, _)| *k == other);
                    Some(kernel.ok_or_else(|| format!("nothing measures {other}"))?.1)
                }
            }
        })
    };
    let readings = PER_LAYER
        .iter()
        .map(|m| Ok((m, reading(m.name)?)))
        .collect::<Result<_, String>>()?;

    let trace_file = args.out_dir.join(format!("{}.trace.jsonl", spec.name));
    std::fs::write(&trace_file, trace::to_jsonl(&spans))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!(
        "samples: {} untraced + {} traced queries ({:.3} s + {:.3} s), {} spans in {}",
        baseline.latency_ms.len(),
        traced.latency_ms.len(),
        baseline.wall_s,
        traced.wall_s,
        spans.len(),
        trace_file.display()
    );
    Ok(RunResult {
        attempted: warm.queries + baseline.queries + traced.queries,
        failed: warm.failed + baseline.failed + traced.failed,
        readings,
    })
}

fn run_child(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    println!(
        "workload {} seed {} nproc {} aes_backend {:?} pinned {} journal_fs {}",
        spec.name,
        args.seed,
        nproc(),
        tdsql_crypto::aes::aes_backend(),
        args.pinned,
        if spec.backend == Backend::Journaled {
            fs_type(&workload::journal_dir())
        } else {
            "-".into()
        },
    );
    let result = if args.trace {
        run_traced(spec, args)?
    } else {
        run_untraced(spec, args)?
    };
    let mut metrics = Vec::with_capacity(result.readings.len());
    for (m, value) in result.readings {
        let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
        let value = match value {
            Some(v) => {
                println!(
                    "{:<36} {v:>16.4} {:<6} better {}{bound}",
                    m.name, m.unit, m.better
                );
                v
            }
            // A layer metric the workload gives no reading for. The driver
            // wants every declared name in the result line, so there it is 0.
            None if m.bound.is_none() => {
                println!("{:<36} {:>16} {:<6} does not apply", m.name, "n/a", m.unit);
                0.0
            }
            None => return Err(format!("{}: no query returned rows", m.name)),
        };
        metrics.push(Metric::new(m.name, value, m.unit));
    }
    println!("ops {} failed {}", result.attempted, result.failed);
    println!(
        "{}",
        json::result_line(
            result.failed == 0,
            result.attempted,
            result.failed,
            &metrics
        )
    );
    Ok(ExitCode::SUCCESS)
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.check_counts {
        return check_counts(&args);
    }
    let Some(name) = &args.workload else {
        return run_all(&args);
    };
    let spec = workload::spec(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    if args.child {
        run_child(spec, &args)
    } else {
        Ok(spawn_child(spec, &args, false)?.0)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables in this file
    /// are what the program prints. They must declare the same workloads
    /// and the same metrics, each with the same unit, direction and bound.
    #[test]
    fn benchmark_json_declares_what_the_program_prints() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        for w in &WORKLOADS {
            let entry = format!(
                "{{\"name\": {}, \"why\": {}}}",
                json::string(w.name),
                json::string(w.why)
            );
            assert!(text.contains(&entry), "workload entry {entry} missing");
        }
        assert_eq!(text.matches("\"why\":").count(), WORKLOADS.len());
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let entry = format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                json::string(m.name),
                json::string(m.unit),
                json::string(m.better),
            );
            assert!(text.contains(&entry), "metric entry {entry} missing");
        }
        assert_eq!(
            text.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn fs_type_resolves_a_real_directory() {
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }
}

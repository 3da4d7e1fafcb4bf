//! `ssi-server` — hosts the untrusted SSI ledger over the framed TCP
//! protocol.
//!
//! The SSI is honest-but-curious infrastructure: it never holds keys and
//! only ever sees ciphertext envelopes, encrypted tuples and public
//! protocol metadata. Usage:
//!
//! ```text
//! ssi-server --listen 127.0.0.1:7441 [--obs-seed HEX] \
//!            [--journal PATH] [--snapshot-every N] [--sync-every N]
//! ```
//!
//! With `--journal`, every ledger mutation is appended to a durable,
//! checksummed settle journal before the call returns; on startup the
//! ledger is **recovered** from the same file (torn tails from a crash
//! mid-append are truncated; interior corruption is a typed startup
//! error), so a SIGKILL mid-collection loses at most the un-acked tail
//! and never double-settles a work item. `--snapshot-every N` bounds
//! replay by embedding a snapshot record every N appends (default 4096:
//! a full-state snapshot every 64 records made a journaled 2 000-TDS
//! query ~4× slower); `--sync-every N` batches fsyncs (default: every
//! record).
//!
//! SIGTERM/SIGINT drain gracefully: stop accepting, finish in-flight
//! connections within one socket deadline (`TDSQL_NET_TIMEOUT_MS`), sync
//! the journal, exit 0.
//!
//! Prints `listening on <addr>` once the socket is bound (bind to port 0
//! to let the OS pick; scripts parse this line for the ephemeral port).

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use tdsql_core::ssi::{JournalConfig, Ssi, SyncPolicy};
use tdsql_net::cli::Flags;
use tdsql_net::server::{serve_ssi_with, ServeOptions};
use tdsql_net::shutdown;
use tdsql_obs::Obs;

fn run() -> Result<(), String> {
    let flags = Flags::parse(std::env::args().skip(1))?;
    let listen = flags.get_or("listen", "127.0.0.1:7441");
    let obs_seed = flags.u64_or("obs-seed", 0x0b5)?;
    let journal = flags.get("journal").map(String::from);
    let snapshot_every = flags.u64_or("snapshot-every", 4096)?;
    let sync_every = flags.u64_or("sync-every", 0)?;

    let listener = TcpListener::bind(&listen).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read bound address: {e}"))?;

    let mut ssi = match &journal {
        Some(path) => {
            let mut config = JournalConfig::new(PathBuf::from(path));
            config.snapshot_every = snapshot_every;
            if sync_every > 1 {
                config.sync = SyncPolicy::EveryN(sync_every);
            }
            let ssi = Ssi::recover(config).map_err(|e| format!("journal {path}: {e}"))?;
            println!("journal attached: {path}");
            ssi
        }
        None => Ssi::new(),
    };
    println!("listening on {addr}");

    let obs = Arc::new(Obs::new(&obs_seed.to_be_bytes()));
    ssi.attach_obs(Arc::clone(&obs));
    let ssi = Arc::new(ssi);
    // A malformed TDSQL_NET_TIMEOUT_MS is a startup error (never a silent
    // fall back to the default deadline).
    let opts = ServeOptions {
        stop: Some(shutdown::install()),
        ..ServeOptions::from_env()?
    };
    serve_ssi_with(listener, Arc::clone(&ssi), obs, opts);
    // Drained (SIGTERM/SIGINT) or listener failure: force any batched
    // journal tail down before exiting.
    ssi.sync_journal()
        .map_err(|e| format!("journal sync: {e}"))?;
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ssi-server: {msg}");
            ExitCode::FAILURE
        }
    }
}

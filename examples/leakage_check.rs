//! Leakage check: run the static verifier over the same aggregate query
//! under every protocol and print what each one would show the untrusted
//! SSI — before a single ciphertext moves. Basic cannot run an aggregate
//! query, so its verdict is `REFUTED`; the other four verify.
//!
//! ```sh
//! cargo run --example leakage_check
//! ```

use tdsql_analyze::explain_checked;
use tdsql_core::protocol::{ProtocolKind, ProtocolParams};
use tdsql_sql::parser::parse_query;

fn main() {
    let sql = "SELECT c.district, AVG(p.cons) FROM consumer c, power p \
               WHERE c.cid = p.cid GROUP BY c.district SIZE 100";
    let query = parse_query(sql).expect("well-formed query");

    for kind in [
        ProtocolKind::Basic,
        ProtocolKind::SAgg,
        ProtocolKind::RnfNoise { nf: 4 },
        ProtocolKind::CNoise,
        ProtocolKind::EdHist { buckets: 8 },
    ] {
        println!("=== {} ===", kind.name());
        print!("{}", explain_checked(&query, &ProtocolParams::new(kind)));
        println!();
    }
}

//! Distribution / domain discovery sub-protocol (Section 4.4).
//!
//! `C_Noise` needs the cardinality (in fact the values) of the grouping
//! domain; `ED_Hist` needs its distribution. Both are obtained by running a
//! `SELECT A_G, COUNT(*) ... GROUP BY A_G` through the S_Agg protocol —
//! the most confidential one — with results sealed under `k2`, so the
//! discovered distribution never leaves the TDS trust domain. Discovery runs
//! once per domain and is refreshed from time to time, not per query.
//!
//! Whether a protocol needs discovery at all is read off its compiled
//! [`crate::plan::PhasePlan`]; the sub-protocol itself is an S_Agg plan with
//! the finalize destination redirected to the TDSs. This module holds the
//! runtime-independent pieces (the discovery query, parsing and applying a
//! distribution); running the sub-protocol is the interpreters' job
//! ([`crate::runtime::service::ServiceDriver::discover_distribution`], and
//! the threaded runtime's own).

use std::sync::Arc;

use tdsql_sql::ast::{AggCall, AggFunc, Expr, Query, SelectItem};
use tdsql_sql::value::{GroupKey, Value};

use crate::error::{ProtocolError, Result};
use crate::histogram::Histogram;
use crate::plan::DiscoveryNeed;
use crate::protocol::ProtocolParams;

/// Build the discovery query for a target query's FROM list and grouping
/// expressions: `SELECT <A_G...>, COUNT(*) FROM <tables> GROUP BY <A_G...>`.
pub fn discovery_query(target: &Query) -> Query {
    let mut select: Vec<SelectItem> = target
        .group_by
        .iter()
        .map(|g| SelectItem::Expr {
            expr: g.clone(),
            alias: None,
        })
        .collect();
    select.push(SelectItem::Expr {
        expr: Expr::Aggregate(AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }),
        alias: None,
    });
    Query {
        select,
        from: target.from.clone(),
        where_clause: None,
        group_by: target.group_by.clone(),
        having: None,
        order_by: Vec::new(),
        limit: None,
        size: None,
    }
}

/// Parse the opened discovery result rows into a sorted (key → count)
/// distribution. Shared by the driver and threaded discovery paths.
pub(crate) fn distribution_from_rows(
    rows: Vec<Vec<Value>>,
    n_group: usize,
) -> Result<Vec<(GroupKey, u64)>> {
    let mut distribution = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != n_group + 1 {
            return Err(ProtocolError::Protocol("malformed discovery row".into()));
        }
        let key = GroupKey::from_values(&row[..n_group]);
        let count = match row[n_group] {
            Value::Int(n) if n >= 0 => n as u64,
            ref other => {
                return Err(ProtocolError::Protocol(format!(
                    "discovery count is not a non-negative integer: {other}"
                )))
            }
        };
        distribution.push((key, count));
    }
    distribution.sort();
    Ok(distribution)
}

/// Is the discovery need already met by the given parameters?
pub(crate) fn satisfied(need: DiscoveryNeed, params: &ProtocolParams) -> bool {
    match need {
        DiscoveryNeed::Domain => !params.noise_domain.is_empty(),
        DiscoveryNeed::Histogram { .. } => params.histogram.is_some(),
    }
}

/// Fill `params` from a discovered distribution, as the need prescribes.
pub(crate) fn apply_distribution(
    need: DiscoveryNeed,
    distribution: Vec<(GroupKey, u64)>,
    params: &mut ProtocolParams,
) {
    match need {
        DiscoveryNeed::Domain => {
            params.noise_domain = distribution.into_iter().map(|(k, _)| k).collect();
        }
        DiscoveryNeed::Histogram { buckets } => {
            params.histogram = Some(Arc::new(Histogram::build(&distribution, buckets)));
        }
    }
}

/// Run discovery on a simulated world and return the grouping distribution
/// (key → true count).
pub fn discover_distribution(
    world: &mut crate::runtime::SimWorld,
    target: &Query,
) -> Result<Vec<(GroupKey, u64)>> {
    world.drive(|driver, system| driver.discover_distribution(system, target))
}

//! Resource accounting for protocol runs.
//!
//! Counters map one-to-one onto the metrics of the paper's cost model
//! (Section 6.1): bytes moved and tuples processed feed `Load_Q`, the set of
//! participating TDSs feeds `P_TDS`, per-TDS work feeds `T_local`, and the
//! per-phase round structure feeds `T_Q` once a device profile converts
//! counts into time (done in `tdsql-costmodel`).

use std::collections::BTreeMap;

/// Phases of the generic protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Distribution-discovery sub-protocol (the S_Agg pre-query that C_Noise
    /// and ED_Hist run to learn the grouping-attribute distribution). Runs
    /// before the main query's collection phase and carries its own fault
    /// coordinates and work attribution.
    Discovery,
    /// Collection phase (steps 1–4).
    Collection,
    /// Aggregation phase (steps 5–8, possibly iterated).
    Aggregation,
    /// Filtering phase (steps 9–13).
    Filtering,
}

impl Phase {
    /// All phases in protocol order.
    pub const ALL: [Phase; 4] = [
        Phase::Discovery,
        Phase::Collection,
        Phase::Aggregation,
        Phase::Filtering,
    ];
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Discovery => f.write_str("discovery"),
            Phase::Collection => f.write_str("collection"),
            Phase::Aggregation => f.write_str("aggregation"),
            Phase::Filtering => f.write_str("filtering"),
        }
    }
}

/// Work done by one TDS during one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TdsWork {
    /// Bytes downloaded from the SSI.
    pub bytes_down: u64,
    /// Bytes uploaded to the SSI.
    pub bytes_up: u64,
    /// Tuples (or partial-aggregate entries) processed.
    pub tuples: u64,
    /// 16-byte cipher blocks processed (encryption + decryption + hashing).
    pub crypto_blocks: u64,
}

impl TdsWork {
    fn add(&mut self, other: &TdsWork) {
        self.bytes_down += other.bytes_down;
        self.bytes_up += other.bytes_up;
        self.tuples += other.tuples;
        self.crypto_blocks += other.crypto_blocks;
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }
}

/// Per-phase statistics.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Work per participating TDS id.
    pub per_tds: BTreeMap<u64, TdsWork>,
    /// Number of sequential steps (iterations) in the phase.
    pub steps: u64,
    /// Tuples the SSI stored during the phase.
    pub ssi_tuples_stored: u64,
    /// Bytes the SSI stored during the phase.
    pub ssi_bytes_stored: u64,
    /// Partitions reassigned after a TDS dropout.
    pub partitions_reassigned: u64,
    /// Per sequential step: the largest byte volume any single TDS handled —
    /// the phase's critical path (a step cannot finish before its busiest
    /// TDS does).
    pub critical_path_bytes: Vec<u64>,
}

impl PhaseStats {
    /// Number of distinct TDSs that participated.
    pub fn participating_tds(&self) -> usize {
        self.per_tds.len()
    }

    /// Total bytes processed by TDSs in this phase.
    pub fn total_tds_bytes(&self) -> u64 {
        self.per_tds.values().map(TdsWork::bytes).sum()
    }

    /// Total tuples processed by TDSs.
    pub fn total_tuples(&self) -> u64 {
        self.per_tds.values().map(|w| w.tuples).sum()
    }
}

/// Counters for the at-least-once delivery machinery: what the dedup layer
/// and the integrity checks absorbed during a run. A correct run under faults
/// shows non-zero counters here and an unchanged result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deliveries dropped because the same assignment already delivered.
    pub duplicates_dropped: u64,
    /// Deliveries rejected after authenticated decryption failed (payload
    /// corrupted in transit); the work was re-sent from the pristine copy.
    pub corrupt_rejected: u64,
    /// Deliveries that arrived after the SSI's timeout had already handed
    /// the work item to another TDS which completed it.
    pub late_after_reassign: u64,
    /// Uploads that vanished in transit (SSI timeout → resend).
    pub lost_uploads: u64,
    /// Work items abandoned under SIZE-bounded graceful degradation after
    /// exhausting their retry budget (each one flags the result partial).
    pub items_abandoned: u64,
}

impl FaultStats {
    /// Merge another counter set into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.duplicates_dropped += other.duplicates_dropped;
        self.corrupt_rejected += other.corrupt_rejected;
        self.late_after_reassign += other.late_after_reassign;
        self.lost_uploads += other.lost_uploads;
        self.items_abandoned += other.items_abandoned;
    }

    /// Total faults absorbed.
    pub fn total(&self) -> u64 {
        self.duplicates_dropped
            + self.corrupt_rejected
            + self.late_after_reassign
            + self.lost_uploads
            + self.items_abandoned
    }
}

/// Statistics for one full protocol run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    per_phase: BTreeMap<Phase, PhaseStats>,
    /// Total protocol rounds consumed.
    pub rounds: u64,
    /// Delivery faults absorbed by the dedup/integrity layer.
    pub faults: FaultStats,
    /// Did the query finalize over an incomplete tuple set? True when the
    /// SIZE window closed before every targeted TDS contributed, or when a
    /// SIZE-bounded query abandoned work items after their retry budget.
    pub partial: bool,
}

impl RunStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record TDS work in a phase.
    pub fn record(&mut self, phase: Phase, tds_id: u64, work: TdsWork) {
        self.per_phase
            .entry(phase)
            .or_default()
            .per_tds
            .entry(tds_id)
            .or_default()
            .add(&work);
    }

    /// Record data parked on the SSI.
    pub fn record_ssi_store(&mut self, phase: Phase, tuples: u64, bytes: u64) {
        let p = self.per_phase.entry(phase).or_default();
        p.ssi_tuples_stored += tuples;
        p.ssi_bytes_stored += bytes;
    }

    /// Count one sequential step of a phase.
    pub fn record_step(&mut self, phase: Phase) {
        self.per_phase.entry(phase).or_default().steps += 1;
    }

    /// Record the busiest single-TDS byte volume of the current step.
    pub fn record_step_critical(&mut self, phase: Phase, max_tds_bytes: u64) {
        self.per_phase
            .entry(phase)
            .or_default()
            .critical_path_bytes
            .push(max_tds_bytes);
    }

    /// Count one partition reassignment after a dropout.
    pub fn record_reassignment(&mut self, phase: Phase) {
        self.per_phase
            .entry(phase)
            .or_default()
            .partitions_reassigned += 1;
    }

    /// Per-phase stats (empty default if the phase never ran).
    pub fn phase(&self, phase: Phase) -> PhaseStats {
        self.per_phase.get(&phase).cloned().unwrap_or_default()
    }

    /// P_TDS: distinct TDSs participating across all phases.
    pub fn participating_tds(&self) -> usize {
        let mut ids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for p in self.per_phase.values() {
            ids.extend(p.per_tds.keys().copied());
        }
        ids.len()
    }

    /// Load_Q: total bytes processed by TDSs and stored by the SSI.
    pub fn load_bytes(&self) -> u64 {
        self.per_phase
            .values()
            .map(|p| p.total_tds_bytes() + p.ssi_bytes_stored)
            .sum()
    }

    /// Average per-TDS bytes processed (proxy for T_local).
    pub fn avg_tds_bytes(&self) -> f64 {
        let mut totals: BTreeMap<u64, u64> = BTreeMap::new();
        for p in self.per_phase.values() {
            for (id, w) in &p.per_tds {
                *totals.entry(*id).or_default() += w.bytes();
            }
        }
        if totals.is_empty() {
            0.0
        } else {
            totals.values().sum::<u64>() as f64 / totals.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = RunStats::new();
        s.record(
            Phase::Collection,
            1,
            TdsWork {
                bytes_down: 10,
                bytes_up: 20,
                tuples: 1,
                crypto_blocks: 2,
            },
        );
        s.record(
            Phase::Collection,
            1,
            TdsWork {
                bytes_down: 5,
                bytes_up: 0,
                tuples: 1,
                crypto_blocks: 1,
            },
        );
        s.record(
            Phase::Aggregation,
            2,
            TdsWork {
                bytes_down: 100,
                bytes_up: 10,
                tuples: 8,
                crypto_blocks: 9,
            },
        );
        assert_eq!(s.participating_tds(), 2);
        assert_eq!(s.phase(Phase::Collection).participating_tds(), 1);
        assert_eq!(s.phase(Phase::Collection).total_tds_bytes(), 35);
        assert_eq!(s.phase(Phase::Aggregation).total_tuples(), 8);
        assert_eq!(s.load_bytes(), 145);
        // TDS 1 moved 35 bytes, TDS 2 moved 110 → average 72.5.
        assert!((s.avg_tds_bytes() - 72.5).abs() < 1e-9);
    }

    #[test]
    fn ssi_storage_counted_in_load() {
        let mut s = RunStats::new();
        s.record_ssi_store(Phase::Collection, 100, 1600);
        assert_eq!(s.load_bytes(), 1600);
        assert_eq!(s.phase(Phase::Collection).ssi_tuples_stored, 100);
    }

    #[test]
    fn fault_stats_absorb_and_total() {
        let mut a = FaultStats {
            duplicates_dropped: 1,
            corrupt_rejected: 2,
            late_after_reassign: 3,
            lost_uploads: 4,
            items_abandoned: 5,
        };
        let b = FaultStats {
            duplicates_dropped: 10,
            ..FaultStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.duplicates_dropped, 11);
        assert_eq!(a.total(), 25);
        let s = RunStats::new();
        assert!(!s.partial);
        assert_eq!(s.faults.total(), 0);
    }

    #[test]
    fn steps_and_reassignments() {
        let mut s = RunStats::new();
        s.record_step(Phase::Aggregation);
        s.record_step(Phase::Aggregation);
        s.record_reassignment(Phase::Filtering);
        assert_eq!(s.phase(Phase::Aggregation).steps, 2);
        assert_eq!(s.phase(Phase::Filtering).partitions_reassigned, 1);
        assert_eq!(s.phase(Phase::Collection).steps, 0);
    }
}

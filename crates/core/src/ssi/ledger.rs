//! The settle ledger — the one at-least-once contract, written down once.
//!
//! Transport is at-least-once: the SSI times a partition out, re-sends it
//! under a fresh assignment, and must count exactly one of the answers.
//! This module holds that contract twice over — as data (the transition
//! tables the static model checker in `tdsql-analyze::verify::settle`
//! explores) and as the concurrent structure that implements it
//! ([`SettleLedger`]). Every runtime settles through this one ledger: each
//! query on the [`super::Ssi`] embeds one, journal replay re-drives it, and
//! the threaded runtime creates one per run.
//!
//! Concurrency: the ledger is **lock-striped** twice — assignment slots by
//! assignment id, completed items by work-item id — so concurrent
//! deliveries serialize only when they genuinely race on the same item or
//! assignment (the races the ledger exists to adjudicate). 100k TDSs
//! uploading collection tuples for different work items touch 100k
//! different stripe combinations, not one mutex.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use super::lock;
use crate::message::AssignmentId;

/// Stripes per ledger level. Settles take two short critical sections (one
/// assignment stripe, then one item stripe — sequential, never nested), so a
/// modest stripe count already removes essentially all false sharing.
const LEDGER_STRIPES: usize = 16;

// ---------------------------------------------------------------------------
// The settle-ledger transition model — **one source of truth**, three users.
//
// The exactly-once settlement argument rests on a small state machine: a
// delivery quotes an assignment (unissued / issued / settled), covers a work
// item (pending / done) and arrives relative to the collection window (open /
// closed for collection uploads; the post-collection phases invert the
// check). The tables below state every transition as data so that
//
// * [`SettleLedger::settle`] — the one ledger, embedded in every SSI query
//   and created once per threaded run — is asserted against them by an
//   exhaustive table-driven test in `ssi/mod.rs`, and [`window_guard`] is
//   what the SSI's live delivery path consults,
// * the static model checker (`tdsql-analyze::verify::settle`) explores all
//   interleavings of the same tables and proves exactly-one-`Accepted` per
//   item and no double-merge via `LateAfterReassign`,
// * a reader can audit the whole contract in one screen.
// ---------------------------------------------------------------------------

/// Abstract state of the assignment slot a delivery quotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SlotState {
    /// The SSI never issued this assignment id.
    Unissued,
    /// Issued, no delivery under it has settled yet.
    Issued,
    /// A delivery under it already settled (accepted or rejected).
    Settled,
}

/// Abstract state of the work item an assignment covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ItemState {
    /// No assignment has completed this item yet.
    Pending,
    /// Some assignment's delivery already completed this item.
    Done,
}

/// Abstract state of the collection window at delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WindowState {
    /// SIZE has not closed collection yet.
    Open,
    /// `close_collection` ran; aggregation/filtering may proceed.
    Closed,
}

/// Which receive path a delivery takes (the window guard differs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseClass {
    /// `receive_collection`: valid only while the window is open.
    Collection,
    /// `receive_working` / `receive_results`: valid only after it closed.
    PostCollection,
}

/// What the ledger does with a delivery, abstractly: the four
/// [`DeliveryOutcome`](crate::message::DeliveryOutcome)s plus the typed
/// refusal ([`InvalidTransition`](crate::ProtocolError::InvalidTransition)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SettleVerdict {
    /// Merged into the query state — must happen exactly once per item.
    Accepted,
    /// Same assignment already settled; dropped.
    Duplicate,
    /// Different assignment already completed the item; dropped.
    LateAfterReassign,
    /// Collection delivery after SIZE closed the window; dropped.
    WindowClosed,
    /// Typed refusal (`InvalidTransition`) — never silently dropped.
    RejectInvalid,
}

/// What the per-phase window guard decides before the ledger core runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardAction {
    /// Hand the delivery to the settle core.
    Proceed,
    /// Short-circuit with the given verdict; the ledger is not consulted
    /// and no state changes.
    Stop(SettleVerdict),
}

/// One row of the window-guard table.
#[derive(Debug, Clone, Copy)]
pub struct WindowGuard {
    /// Which receive path.
    pub class: PhaseClass,
    /// Window state at arrival.
    pub window: WindowState,
    /// What the guard does.
    pub action: GuardAction,
    /// One-line justification.
    pub why: &'static str,
}

/// The window guard, exhaustively: collection uploads are dropped (not
/// errored) after SIZE closes the window — stream semantics; aggregation and
/// filtering uploads before it closes are lifecycle violations — a typed
/// error, because no correct interpreter produces them.
pub const WINDOW_GUARDS: &[WindowGuard] = &[
    WindowGuard {
        class: PhaseClass::Collection,
        window: WindowState::Open,
        action: GuardAction::Proceed,
        why: "collection upload inside the window settles normally",
    },
    WindowGuard {
        class: PhaseClass::Collection,
        window: WindowState::Closed,
        action: GuardAction::Stop(SettleVerdict::WindowClosed),
        why: "SIZE closed the window; late tuples drop under stream semantics",
    },
    WindowGuard {
        class: PhaseClass::PostCollection,
        window: WindowState::Open,
        action: GuardAction::Stop(SettleVerdict::RejectInvalid),
        why: "aggregation/filtering output cannot precede window close",
    },
    WindowGuard {
        class: PhaseClass::PostCollection,
        window: WindowState::Closed,
        action: GuardAction::Proceed,
        why: "aggregation/filtering settle normally once collection closed",
    },
];

/// Look up the guard action for a receive path and window state. The match
/// indexes into [`WINDOW_GUARDS`] (row order is fixed and asserted by a
/// test) so the table stays the single authority.
pub fn window_guard(class: PhaseClass, window: WindowState) -> GuardAction {
    let idx = match (class, window) {
        (PhaseClass::Collection, WindowState::Open) => 0,
        (PhaseClass::Collection, WindowState::Closed) => 1,
        (PhaseClass::PostCollection, WindowState::Open) => 2,
        (PhaseClass::PostCollection, WindowState::Closed) => 3,
    };
    WINDOW_GUARDS[idx].action
}

/// One row of the settle-core transition table.
#[derive(Debug, Clone, Copy)]
pub struct SettleTransition {
    /// Assignment-slot state before the delivery.
    pub slot: SlotState,
    /// Work-item state before the delivery.
    pub item: ItemState,
    /// The ledger's verdict.
    pub verdict: SettleVerdict,
    /// Slot state after.
    pub slot_after: SlotState,
    /// Item state after.
    pub item_after: ItemState,
    /// Does the delivery's payload merge into the query state? Must be true
    /// exactly for `Accepted` — the invariant the model checker proves.
    pub merges: bool,
    /// Can a correct runtime actually reach this pre-state? (`Settled` with
    /// the item still `Pending` cannot: settling marks the item done or
    /// observes it done.) The model checker proves the claim.
    pub reachable: bool,
    /// One-line justification.
    pub why: &'static str,
}

/// The settle core, exhaustively over slot × item pre-states. This is
/// [`SettleLedger::settle`] as data; `settle_matches_transition_table` (the
/// `ssi` unit tests) drives the real ledger through every reachable row.
pub const SETTLE_TRANSITIONS: &[SettleTransition] = &[
    SettleTransition {
        slot: SlotState::Unissued,
        item: ItemState::Pending,
        verdict: SettleVerdict::RejectInvalid,
        slot_after: SlotState::Unissued,
        item_after: ItemState::Pending,
        merges: false,
        reachable: true,
        why: "delivery under an assignment the SSI never issued",
    },
    SettleTransition {
        slot: SlotState::Unissued,
        item: ItemState::Done,
        verdict: SettleVerdict::RejectInvalid,
        slot_after: SlotState::Unissued,
        item_after: ItemState::Done,
        merges: false,
        reachable: true,
        why: "forged assignment ids are refused even for finished items",
    },
    SettleTransition {
        slot: SlotState::Issued,
        item: ItemState::Pending,
        verdict: SettleVerdict::Accepted,
        slot_after: SlotState::Settled,
        item_after: ItemState::Done,
        merges: true,
        reachable: true,
        why: "first completed delivery per work item wins",
    },
    SettleTransition {
        slot: SlotState::Issued,
        item: ItemState::Done,
        verdict: SettleVerdict::LateAfterReassign,
        slot_after: SlotState::Settled,
        item_after: ItemState::Done,
        merges: false,
        reachable: true,
        why: "another assignment already completed the item; never re-merged",
    },
    SettleTransition {
        slot: SlotState::Settled,
        item: ItemState::Pending,
        verdict: SettleVerdict::Duplicate,
        slot_after: SlotState::Settled,
        item_after: ItemState::Pending,
        merges: false,
        reachable: false,
        why: "unreachable: a settled slot implies its item is done",
    },
    SettleTransition {
        slot: SlotState::Settled,
        item: ItemState::Done,
        verdict: SettleVerdict::Duplicate,
        slot_after: SlotState::Settled,
        item_after: ItemState::Done,
        merges: false,
        reachable: true,
        why: "the same assignment re-delivered; dropped",
    },
];

/// Look up the settle-core transition for a pre-state. The match indexes
/// into [`SETTLE_TRANSITIONS`] (row order is fixed and asserted by a test)
/// so the table stays the single authority — total over the cross product.
pub fn settle_transition(slot: SlotState, item: ItemState) -> &'static SettleTransition {
    let idx = match (slot, item) {
        (SlotState::Unissued, ItemState::Pending) => 0,
        (SlotState::Unissued, ItemState::Done) => 1,
        (SlotState::Issued, ItemState::Pending) => 2,
        (SlotState::Issued, ItemState::Done) => 3,
        (SlotState::Settled, ItemState::Pending) => 4,
        (SlotState::Settled, ItemState::Done) => 5,
    };
    &SETTLE_TRANSITIONS[idx]
}

/// One issued assignment: which work item it covers, and whether a delivery
/// under it already settled (accepted or rejected).
#[derive(Debug, Clone, Copy)]
struct AssignmentSlot {
    item: u64,
    settled: bool,
}

/// The durable content of a [`SettleLedger`], in a canonical order — what a
/// journal snapshot stores and [`SettleLedger::from_state`] rebuilds from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerState {
    /// Next work-item id to hand out.
    pub next_item: u64,
    /// Issued assignments, by id: (assignment id, item id, settled).
    pub assignments: Vec<(u64, u64, bool)>,
    /// Completed work items, ascending.
    pub items_done: Vec<u64>,
}

/// The striped settle ledger: which work items exist, which assignments
/// were issued for them, which of those settled, and which items are done.
#[derive(Debug)]
pub struct SettleLedger {
    /// Issued assignments, striped by [`AssignmentId`].
    assignments: Vec<Mutex<BTreeMap<u64, AssignmentSlot>>>,
    /// Work items already completed by some assignment's delivery, striped
    /// by item id.
    items_done: Vec<Mutex<BTreeSet<u64>>>,
    /// Next work-item id to hand out.
    next_item: AtomicU64,
}

impl Default for SettleLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl SettleLedger {
    /// An empty ledger: no items, no assignments.
    pub fn new() -> Self {
        Self {
            assignments: (0..LEDGER_STRIPES).map(|_| Mutex::default()).collect(),
            items_done: (0..LEDGER_STRIPES).map(|_| Mutex::default()).collect(),
            next_item: AtomicU64::new(0),
        }
    }

    /// Sequential ids stripe by their low bits; folding the high half in
    /// spreads composite ids (the threaded runtime's `item << 32 | attempt`)
    /// just as well and changes nothing for ids below 2^32.
    fn assignment_stripe(&self, assignment: AssignmentId) -> &Mutex<BTreeMap<u64, AssignmentSlot>> {
        let folded = assignment.0 ^ (assignment.0 >> 32);
        &self.assignments[(folded as usize) % LEDGER_STRIPES]
    }

    fn item_stripe(&self, item: u64) -> &Mutex<BTreeSet<u64>> {
        &self.items_done[(item as usize) % LEDGER_STRIPES]
    }

    /// Allocate a fresh work-item id. Ids never repeat within a ledger, so
    /// a wave-2 partition can never collide with a completed wave-1 item.
    pub fn new_item(&self) -> u64 {
        self.next_item.fetch_add(1, Ordering::Relaxed)
    }

    /// Was this work item ever allocated?
    pub fn allocated(&self, item: u64) -> bool {
        item < self.next_item.load(Ordering::Relaxed)
    }

    /// Register `assignment` as one delivery attempt for `item`. Returns
    /// `false` if that assignment id had been issued before (a replayed
    /// journal repeating itself — live ids are unique).
    pub fn issue(&self, assignment: AssignmentId, item: u64) -> bool {
        let slot = AssignmentSlot {
            item,
            settled: false,
        };
        lock(self.assignment_stripe(assignment))
            .insert(assignment.0, slot)
            .is_none()
    }

    /// Dedup core: settle a delivery under `assignment`. First completed
    /// delivery per work item is accepted; a repeat of the same assignment is
    /// a duplicate; a different assignment of an already-done item is a late
    /// arrival after reassignment; an assignment never issued is refused
    /// ([`SettleVerdict::RejectInvalid`]). Never returns `WindowClosed` —
    /// the window is [`window_guard`]'s business, not the ledger's.
    ///
    /// Two sequential critical sections: the assignment stripe adjudicates
    /// "did *this* assignment already settle?", then the item stripe
    /// adjudicates "did *any* assignment already complete this item?". The
    /// item stripe is the single serialization point per item, so even under
    /// concurrent racing assignments exactly one delivery comes back
    /// [`SettleVerdict::Accepted`].
    pub fn settle(&self, assignment: AssignmentId) -> SettleVerdict {
        let item = {
            let mut slots = lock(self.assignment_stripe(assignment));
            let Some(slot) = slots.get_mut(&assignment.0) else {
                return SettleVerdict::RejectInvalid;
            };
            if slot.settled {
                return SettleVerdict::Duplicate;
            }
            slot.settled = true;
            slot.item
        };
        if !lock(self.item_stripe(item)).insert(item) {
            return SettleVerdict::LateAfterReassign;
        }
        SettleVerdict::Accepted
    }

    /// Has this work item already been completed by some delivery?
    pub fn item_done(&self, item: u64) -> bool {
        lock(self.item_stripe(item)).contains(&item)
    }

    /// The abstract pre-state a delivery under `assignment` would meet —
    /// the coordinates of its [`SETTLE_TRANSITIONS`] row. `None` for an
    /// assignment never issued: there is no item to look at, and both
    /// `Unissued` rows refuse. (Two reads, not one atomic step: exact for a
    /// single-threaded replay, a hint under concurrency.)
    pub fn pre_state(&self, assignment: AssignmentId) -> Option<(SlotState, ItemState)> {
        let slot = *lock(self.assignment_stripe(assignment)).get(&assignment.0)?;
        let slot_state = if slot.settled {
            SlotState::Settled
        } else {
            SlotState::Issued
        };
        let item_state = if self.item_done(slot.item) {
            ItemState::Done
        } else {
            ItemState::Pending
        };
        Some((slot_state, item_state))
    }

    /// Capture the ledger for a snapshot, in canonical (sorted) order.
    pub fn state(&self) -> LedgerState {
        let mut assignments = Vec::new();
        for stripe in &self.assignments {
            for (a, slot) in lock(stripe).iter() {
                assignments.push((*a, slot.item, slot.settled));
            }
        }
        assignments.sort_unstable();
        let mut items_done = Vec::new();
        for stripe in &self.items_done {
            items_done.extend(lock(stripe).iter().copied());
        }
        items_done.sort_unstable();
        LedgerState {
            next_item: self.next_item.load(Ordering::Relaxed),
            assignments,
            items_done,
        }
    }

    /// Rebuild a ledger from a snapshot, refusing (with the reason) a state
    /// no run of this ledger can have produced.
    pub fn from_state(state: LedgerState) -> Result<Self, &'static str> {
        let ledger = Self::new();
        ledger.next_item.store(state.next_item, Ordering::Relaxed);
        for (assignment, item, settled) in state.assignments {
            if !ledger.allocated(item) {
                return Err("snapshot assignment for a work item never allocated");
            }
            let replaced = lock(ledger.assignment_stripe(AssignmentId(assignment)))
                .insert(assignment, AssignmentSlot { item, settled });
            if replaced.is_some() {
                return Err("snapshot repeats an assignment");
            }
        }
        for item in state.items_done {
            lock(ledger.item_stripe(item)).insert(item);
        }
        Ok(ledger)
    }

    /// Replay support: an `ItemAllocated { item }` record means ids up to
    /// and including `item` are taken.
    pub(super) fn note_allocated(&self, item: u64) {
        self.next_item
            .fetch_max(item.saturating_add(1), Ordering::Relaxed);
    }
}

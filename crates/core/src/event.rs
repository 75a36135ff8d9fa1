//! The unified runtime-event API every execution substrate consumes.
//!
//! One [`RuntimeEvent`] enum, consumed by a single
//! [`Substrate::apply_event`] entry point, covers every mutation a
//! substrate accepts, and it is the only way to change one: the
//! synchronous [`Session`], the discrete-event `Engine` and the
//! `ThreadedEngine` all take the whole alphabet, crash restarts
//! included. The daemon (`tulkun::daemon::DaemonSession`) admits
//! request lines into its queues and turns each one it applies at its
//! own `drain` into one event. The
//! lifecycle decisions behind the topology, crash and intent events are
//! made once, in [`crate::control::ControlPlane`]; a substrate only
//! delivers the result.
//!
//! [`Session`]: crate::verify::Session

use crate::churn::TopologyEvent;
use crate::intent::{IntentDelta, IntentId};
use crate::planner::PlanError;
use crate::spec::Invariant;
use tulkun_netmodel::network::RuleUpdate;
use tulkun_netmodel::topology::Topology;
use tulkun_netmodel::DeviceId;

/// One runtime mutation, uniform across substrates.
#[derive(Debug, Clone)]
pub enum RuntimeEvent {
    /// A burst of FIB rule updates, coalesced per device.
    Batch(Vec<RuleUpdate>),
    /// A live topology churn event. Names the session's base: the
    /// topology the substrate was constructed on and the invariant its
    /// base plan was compiled from. An event naming another is refused
    /// ([`crate::control::ControlPlane::topology_event`]).
    Topology {
        /// The link/device up/down event.
        event: TopologyEvent,
        /// The base topology the cumulative churn applies to.
        base: Topology,
        /// The base invariant to re-plan.
        invariant: Invariant,
    },
    /// Crash one device's verification agent and restart it from its
    /// neighbors' durable state.
    CrashRestart(DeviceId),
    /// Compile an invariant and install it as a new runtime intent
    /// (its DPVNet slice is deduplicated against live intents).
    InstallIntent {
        /// Human-readable intent name.
        name: String,
        /// The invariant to install.
        invariant: Invariant,
    },
    /// Remove a live intent; only nodes no surviving intent owns are
    /// uninstalled.
    RemoveIntent(IntentId),
}

/// What applying a [`RuntimeEvent`], or driving a substrate to
/// quiescence, produced: uniform across substrates.
#[derive(Debug, Clone, Default)]
pub struct EventOutcome {
    /// Messages sent to reach quiescence, when the substrate counts
    /// them synchronously (0 on the threaded substrate): what was
    /// delivered, unless a fence or restart discarded one in flight.
    /// The reference `Session` counts at delivery.
    pub messages: usize,
    /// Wire bytes of those messages (0 where `messages` is).
    pub bytes: u64,
    /// The intent the event named: the new id for
    /// [`RuntimeEvent::InstallIntent`], the removed one for
    /// [`RuntimeEvent::RemoveIntent`].
    pub intent: Option<IntentId>,
    /// The event's store-level change set, for intent and topology
    /// events (empty for batches and crash restarts): its
    /// `total_nodes` / `reused_nodes` are the dedup and locality
    /// evidence.
    pub delta: IntentDelta,
    /// For [`RuntimeEvent::InstallIntent`]: the install raced a
    /// topology fence and was parked for re-planning against the next
    /// epoch instead of landing now (`intent` still carries its id).
    pub parked: bool,
    /// Modelled quiescence time in ns, on substrates with a virtual
    /// clock (0 elsewhere).
    pub completion_ns: u64,
}

/// The shared substrate trait: every execution substrate applies the
/// same events, the whole [`RuntimeEvent`] alphabet, and this is the
/// only way to change one. An event the control plane refuses is an
/// `Err` that leaves the substrate as it was.
pub trait Substrate {
    /// Applies one runtime event and drives the substrate to
    /// quiescence.
    fn apply_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError>;
}

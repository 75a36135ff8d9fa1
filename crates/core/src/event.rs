//! The unified runtime-event API every execution substrate consumes.
//!
//! One [`RuntimeEvent`] enum, consumed by a single
//! [`Substrate::apply_event`] entry point, covers every mutation a
//! substrate accepts: the synchronous [`Session`], the discrete-event
//! `Engine` and the `ThreadedEngine`. (The verification `Service` is
//! not one: it admits requests through `offer` and applies them at its
//! own `drain`; a backend swap is its `set_backend`.) The lifecycle decisions behind the topology and intent events are made
//! once, in [`crate::control::ControlPlane`]; a substrate only
//! delivers the result.
//!
//! [`Session`]: crate::verify::Session

use crate::churn::TopologyEvent;
use crate::intent::IntentId;
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

/// What applying a [`RuntimeEvent`] produced, uniform across
/// substrates.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventOutcome {
    /// Messages the event caused, when the substrate counts them
    /// synchronously (0 for fire-and-forget substrates).
    pub messages: usize,
    /// The new intent's id, for [`RuntimeEvent::InstallIntent`].
    pub intent: Option<IntentId>,
    /// `(total_nodes, reused_nodes)` slice accounting for intent and
    /// topology events — the dedup/locality evidence.
    pub slice: Option<(usize, usize)>,
    /// For [`RuntimeEvent::InstallIntent`]: the install raced a
    /// topology fence and was parked for re-planning against the next
    /// epoch instead of landing now (`intent` still carries its id).
    pub parked: bool,
    /// Modelled quiescence time of the event in ns, on substrates with
    /// a virtual clock (0 elsewhere).
    pub completion_ns: u64,
}

/// The shared substrate trait: every execution substrate applies the
/// same events. Substrates reject events outside their model (e.g. the
/// synchronous reference session has no crash/restart) with
/// [`PlanError::Unsupported`] instead of silently ignoring them.
pub trait Substrate {
    /// Applies one runtime event and (for synchronous substrates) runs
    /// re-convergence.
    fn apply_event(&mut self, ev: &RuntimeEvent) -> Result<EventOutcome, PlanError>;
}

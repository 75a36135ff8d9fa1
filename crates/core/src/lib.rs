#![warn(missing_docs)]
//! Tulkun core: the paper's contribution.
//!
//! * [`spec`] — the declarative invariant specification language (§3):
//!   `(packet_space, ingress_set, behavior, [fault_scenes])` tuples with
//!   behaviors built from `(match_op, path_exp)` pairs, plus builders for
//!   every invariant family of Table 1 and a textual parser.
//! * [`count`] — per-universe count sets with the cross-product-sum (⊗)
//!   and union (⊕) operators of §4.2 and the minimal-counting-information
//!   reductions of Proposition 1.
//! * [`dpvnet`] — DPVNet: the DAG of all valid paths (§4.1), built by
//!   multiplying path-expression DFAs with the topology, with suffix
//!   merging (state minimization), virtual sources/destinations (§4.3)
//!   and fast paths for shortest-path DAGs.
//! * [`planner`] — decomposes an invariant into per-device counting tasks
//!   or local contracts (§4.2–4.3), choosing the minimal counting
//!   information each node propagates.
//! * [`dvm`] — the distributed verification messaging protocol (§5):
//!   LEC tables, `CIBIn`/`LocCIB`/`CIBOut`, `UPDATE`/`SUBSCRIBE` messages,
//!   and the event-driven on-device verifier.
//! * [`localcheck`] — communication-free local contracts for `equal`
//!   behaviors (§4.2), generalizing Azure RCDC.
//! * [`fault`] — fault-tolerant DPVNet precomputation and online
//!   recounting (§6).
//! * [`churn`] — live topology churn: epoch-fenced incremental
//!   re-planning around link/device up/down events at runtime.
//! * [`intent`] — the runtime intent store: invariant add/remove as
//!   first-class events, per-intent DPVNet slices, counting tasks
//!   deduplicated (refcounted) across overlapping intents.
//! * [`control`] — the control plane: the one owner of the intent and
//!   churn lifecycle, mapping each event to a per-device
//!   [`control::FencePlan`] that substrates only deliver.
//! * [`event`] — the unified [`event::RuntimeEvent`] /
//!   [`event::Substrate`] API every execution substrate consumes.
//! * [`explain`] — the explain engine: ranked causal chains for
//!   degraded verdicts, walked out of the telemetry flight recorder.
//! * [`verify`] — an in-process driver that runs all on-device verifiers
//!   to quiescence over a network snapshot (the simulator and the threaded
//!   runner drive the same verifiers asynchronously).

pub mod churn;
pub mod control;
pub mod count;
pub mod dpvnet;
pub mod dvm;
pub mod event;
pub mod explain;
pub mod fault;
pub mod intent;
pub mod localcheck;
pub mod planner;
pub mod spec;
pub mod verify;

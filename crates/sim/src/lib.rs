#![warn(missing_docs)]
//! Execution substrates for Tulkun's evaluation.
//!
//! The paper runs Tulkun on real switches; this crate virtualizes the
//! testbed while running the *real* verifier code. All substrates sit
//! on one shared device-runtime layer:
//!
//! * [`runtime`] — the event lifecycle ([`runtime::Runtime`]: FIB
//!   batches, crash/restart, epoch fences, scene swaps, report
//!   assembly), written once over a [`runtime::Fabric`], and the single
//!   [`RuntimeStats`] observability surface every harness reads. Two
//!   fabrics, two engines:
//!   - [`Engine`] — the discrete-event simulator: one pull loop, a
//!     boxed [`Transport`] and a [`runtime::VirtualClock`]; per-event
//!     CPU time is *measured* (not modeled) and DVM messages travel
//!     with the topology's link latencies. Verification time is the
//!     quiescence instant, exactly as the paper measures it (§9.3.1).
//!     [`Engine::new`] runs over clean links, [`Engine::lossy`] over
//!     the faulty management network below — one type either way.
//!   - [`ThreadedEngine`] — one OS thread per on-device verifier with
//!     in-order channels (the deployment shape of the paper's
//!     prototype).
//! * [`models`] — the four commodity switch models of §9.4 as CPU speed
//!   factors.
//! * [`central`] — the harness for centralized baselines: data planes
//!   travel to a verifier device over lowest-latency paths (the
//!   runtime's [`runtime::CollectionClock`]), then the baseline's
//!   measured compute time is added.
//! * [`localsim`] — `equal`-operator local contracts (communication-
//!   free; time = slowest device), instrumented through the same
//!   runtime clock and stats.
//! * [`faults`] — the lossy-management-network decorator
//!   ([`faults::FaultyTransport`]): seeded drops, duplicates, reorders
//!   and delays per a `FaultProfile`, recovered by the at-least-once
//!   reliability layer (`tulkun_core::dvm::reliable`) so Reports stay
//!   byte-identical under loss; both engines recover injected device
//!   crash/restarts (`RuntimeEvent::CrashRestart`).
//!
//! * [`service`] — only the configuration of the always-on service,
//!   [`ServiceConfig`] and [`AdmissionPolicy`]: the service itself is
//!   one type in the facade crate, `tulkun::daemon::DaemonSession`,
//!   which drives one [`Engine`] of this crate.
//!
//! Live topology churn (`tulkun_core::churn::TopologyEvent`) and
//! runtime intent install/remove are decided once, by the
//! `tulkun_core::control::ControlPlane` each engine embeds; an engine
//! only delivers the resulting per-device fences (epoch-fencing
//! in-flight traffic, applying the task diff, re-announcing durable
//! state) and drives to quiescence, converging to the same report
//! as a fresh plan of the post-churn topology. The threaded substrate
//! adds a convergence watchdog ([`runtime::WatchdogConfig`]) that
//! distinguishes "still converging" from a wedged or partitioned
//! device and degrades the report (`Stale`/`Unreachable` freshness
//! markers) instead of hanging.
//!
//! [`Transport`]: runtime::Transport
//! [`Engine`]: runtime::Engine
//! [`ThreadedEngine`]: runtime::ThreadedEngine
//! [`RuntimeStats`]: runtime::RuntimeStats

pub mod central;
pub mod faults;
pub mod localsim;
pub mod models;
pub mod runtime;
pub mod service;

pub use central::{central_burst, central_update, CentralRun};
pub use faults::FaultyTransport;
pub use models::SwitchModel;
pub use runtime::{
    DeviceStats, Engine, EngineConfig, RuntimeStats, ThreadedEngine, WatchdogConfig,
    WatchdogVerdict,
};
pub use service::{AdmissionPolicy, ServiceConfig};
pub use tulkun_predicate::{network_ip_only, BackendKind};
pub use tulkun_telemetry::{Telemetry, TelemetryConfig};

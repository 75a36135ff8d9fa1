//! # Tulkun — distributed, on-device data plane verification
//!
//! This is the facade crate for the Tulkun workspace, a Rust reproduction of
//! *"Network can check itself: scaling data plane checking via distributed,
//! on-device verification"* (HotNets '22) and its extended SIGCOMM '23
//! version.
//!
//! Tulkun transforms data plane verification (DPV) into a counting problem
//! on a DAG — **DPVNet** — that compactly represents all valid paths of an
//! invariant, decomposes the count into lightweight per-device tasks, and
//! runs those tasks on the devices themselves, connected by the **DVM**
//! (distributed verification messaging) protocol.
//!
//! ## Crate map
//!
//! * [`bdd`] — binary decision diagrams used to encode packet-set predicates.
//! * [`netmodel`] — topologies, FIBs (match-action tables), routing.
//! * [`automata`] — regular expressions over device names, compiled to DFAs.
//! * [`predicate`] — the pluggable [`predicate::PredicateBackend`] trait
//!   with the BDD, Delta-net and interval-set LEC encodings, all
//!   exporting byte-identical wire predicates.
//! * [`core`] — the paper's contribution: specification language, planner,
//!   DPVNet, counting, the DVM protocol, on-device verifiers, and
//!   fault-tolerance support.
//! * [`sim`] — the shared device-runtime layer (`Engine`, `Transport`,
//!   `Clock`, `RuntimeStats`) with its substrates: a discrete-event
//!   simulator and a threaded distributed runner that execute the
//!   verifiers at scale.
//! * [`telemetry`] — span tracing, the metrics registry, and
//!   the Chrome-trace / Prometheus exporters shared by every substrate.
//! * [`json`] — the vendored, dependency-free JSON (de)serialization
//!   layer the workspace uses for all wire and sidecar formats.
//! * [`baselines`] — centralized DPV baselines (AP, APKeep, Delta-net,
//!   VeriFlow, Flash) used by the evaluation harness.
//! * [`datasets`] — generators for the thirteen evaluation datasets.
//!
//! ## Quickstart
//!
//! ```
//! use tulkun::prelude::*;
//!
//! // Build the 5-device example network of the paper's Figure 2a.
//! let net = tulkun::datasets::fig2a_network();
//!
//! // "Every packet to 10.0.0.0/23 entering at S reaches D via a simple
//! //  path through the waypoint W."
//! let inv = Invariant::builder()
//!     .packet_space(PacketSpace::dst_prefix("10.0.0.0/23"))
//!     .ingress(["S"])
//!     .behavior(Behavior::exist(
//!         CountExpr::ge(1),
//!         PathExpr::parse("S .* W .* D").unwrap().loop_free(),
//!     ))
//!     .build()
//!     .unwrap();
//!
//! // Plan: invariant × topology → DPVNet → on-device tasks.
//! let plan = Planner::new(&net.topology).plan(&inv).unwrap();
//!
//! // Verify in-process (the simulator and threaded runner exercise the
//! // same verifier code distributed across devices).
//! let report = verify_snapshot(&net, &plan);
//! assert!(!report.holds()); // Fig. 2a's data plane violates the invariant.
//! ```

pub mod daemon;

pub use tulkun_automata as automata;
pub use tulkun_baselines as baselines;
pub use tulkun_bdd as bdd;
pub use tulkun_core as core;
pub use tulkun_datasets as datasets;
pub use tulkun_json as json;
pub use tulkun_netmodel as netmodel;
pub use tulkun_predicate as predicate;
pub use tulkun_sim as sim;
pub use tulkun_telemetry as telemetry;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use tulkun_core::count::{CountExpr, Counts};
    pub use tulkun_core::dpvnet::DpvNet;
    pub use tulkun_core::planner::{Plan, Planner};
    pub use tulkun_core::spec::{Behavior, Invariant, PacketSpace, PathExpr};
    pub use tulkun_core::verify::{verify_snapshot, Report};
    pub use tulkun_netmodel::fib::{Action, ActionType, Fib, Rule};
    pub use tulkun_netmodel::network::Network;
    pub use tulkun_netmodel::topology::{DeviceId, Topology};
}

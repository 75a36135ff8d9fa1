#![warn(missing_docs)]
//! Network substrate for Tulkun: topologies, data planes and routing.
//!
//! This crate models everything the verifier observes about a network:
//!
//! * [`topology`] — devices, links (with propagation latency), and the
//!   `(device, IP prefix)` external-port mapping of §3's convenience
//!   features.
//! * [`prefix`] — IPv4 prefixes and parsing.
//! * [`fib`] — prioritized match-action tables (the paper's data plane
//!   model of §2.1) with `ALL`/`ANY` forwarding groups, drops, external
//!   delivery and header-rewriting actions, plus the **LEC builder** that
//!   compresses a FIB into local equivalence classes (§5.1/§8).
//! * [`routing`] — shortest-path/ECMP FIB generation and error injection,
//!   used to synthesize data planes for the evaluation datasets.
//! * [`network`] — a topology plus one FIB per device.

pub mod fib;
pub mod network;
pub mod prefix;
pub mod routing;
pub mod topology;

pub use fib::{Action, ActionType, Fib, MatchSpec, NextHop, Rule};
pub use network::{coalesce, Network, RuleUpdate};
pub use prefix::IpPrefix;
pub use topology::{DeviceId, LinkId, Topology};

#![warn(missing_docs)]
//! Centralized data plane verification baselines.
//!
//! From-scratch reimplementations of the five tools the paper compares
//! against (§9.3.1), each exercising its published core algorithm:
//!
//! * [`ap::Ap`] — atomic predicates computed with BDDs (Yang & Lam);
//!   rule updates re-derive the affected device's atom actions and
//!   re-verify every atom of the touched packet space.
//! * [`ap::ApKeep`] — incremental atomic-predicate maintenance (APKeep):
//!   updates refine the atom set in place and re-verify only affected
//!   atoms.
//! * [`deltanet::DeltaNet`] — IP-interval *atoms* over the destination
//!   space with a persistent per-atom forwarding-edge table — fast
//!   incremental updates, heavy memory (the paper's memory-out on NGDC).
//! * [`veriflow::VeriFlow`] — per-update equivalence classes computed
//!   from the overlapping rules (trie-style), with per-EC forwarding
//!   graph traversal.
//! * [`flash::Flash`] — batch EC computation (fast bursts), plus the
//!   *early detection* mode that verifies with incomplete information,
//!   reproducing the §1 experiment where missing devices hide errors.
//!
//! All baselines verify the same workload: for every announced
//! `(destination device, prefix)` pair, every other device must reach
//! the destination (no blackholes, no loops). The common verdict
//! machinery lives in [`common`]; the interval baselines (Delta-net,
//! VeriFlow, Flash) share the atom partition of
//! [`tulkun_predicate::atoms`] with the on-device Delta-net backend.

pub mod ap;
pub mod common;
pub mod deltanet;
pub mod flash;
pub mod veriflow;

pub use common::{BaselineReport, CentralizedDpv, Workload};

/// Instantiates every baseline (convenience for the bench harness).
pub fn all_baselines() -> Vec<Box<dyn CentralizedDpv>> {
    vec![
        Box::new(ap::Ap::new()),
        Box::new(ap::ApKeep::new()),
        Box::new(deltanet::DeltaNet::new()),
        Box::new(veriflow::VeriFlow::new()),
        Box::new(flash::Flash::new()),
    ]
}

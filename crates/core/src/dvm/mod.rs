//! The Distributed Verification Messaging protocol (§5).
//!
//! * [`message`] — `UPDATE` and `SUBSCRIBE` payloads and device-to-device
//!   envelopes.
//! * [`verifier`] — the event-driven on-device verifier holding the LEC
//!   table and the three counting information bases.
//!
//! DVM needs no loop-prevention mechanism: messages flow against the
//! edges of the acyclic DPVNet, so no message loop can form.

pub mod message;
pub mod reliable;
pub mod verifier;

pub use message::{EdgeRef, Envelope, Payload};
pub use reliable::{Accepted, ReceiverLedger, SenderWindow};
pub use verifier::{DeviceVerifier, NodeResult, VerifierConfig};

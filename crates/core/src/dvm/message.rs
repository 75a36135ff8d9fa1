//! DVM message formats (§5.2).
//!
//! Messages travel between the verifiers of neighboring devices over
//! reliable, in-order channels (TCP in the paper's deployment; channels
//! in the simulator and the threaded runner). Predicates cross device
//! boundaries as [`PortablePred`]s because every device owns a private
//! BDD manager.
//!
//! When the underlying channel is best-effort instead (a lossy
//! management network), the reliability layer in [`crate::dvm::reliable`]
//! rebuilds the TCP guarantees on top of these formats: every data
//! envelope carries a per-`(from, to)` channel sequence number
//! ([`Envelope::seq`], assigned by the sender window — verifiers always
//! emit `seq == 0`), receivers acknowledge with [`Payload::Ack`], and
//! unacknowledged envelopes are retransmitted with exponential backoff.

use crate::count::Counts;
use crate::dpvnet::NodeId;
use tulkun_bdd::serial::PortablePred;
use tulkun_json::{FromJson, Json, JsonError, ToJson};
use tulkun_netmodel::DeviceId;

/// A directed DPVNet edge `(upstream node, downstream node)` — the
/// *intended link* of an UPDATE message. Counting results flow from
/// `down`'s device to `up`'s device, against the edge direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// Upstream node (receiver of counting results).
    pub up: NodeId,
    /// Downstream node (sender of counting results).
    pub down: NodeId,
}

/// DVM message payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Counting results from a downstream node (§5.2). Invariant (the
    /// *UPDATE message principle*): the union of `withdrawn` equals the
    /// union of the predicates in `results`.
    Update {
        /// The intended link.
        edge: EdgeRef,
        /// Predicates whose previous results are obsolete.
        withdrawn: Vec<PortablePred>,
        /// The incoming counting results.
        results: Vec<(PortablePred, Counts)>,
    },
    /// Ask the downstream device to extend its counting scope for this
    /// edge (packet transformation support, §5.2).
    Subscribe {
        /// The edge whose downstream node must grow its scope.
        edge: EdgeRef,
        /// The additional packet space to count.
        space: PortablePred,
    },
    /// Acknowledges receipt of the data envelope with sequence number
    /// `of` on the reverse channel. Generated and consumed entirely by
    /// the reliability layer — verifiers never see acks.
    Ack {
        /// The acknowledged sequence number.
        of: u64,
    },
}

impl Payload {
    /// The DPVNet edge the payload concerns (`None` for acks, which
    /// concern a channel, not an edge).
    pub fn edge(&self) -> Option<EdgeRef> {
        match self {
            Payload::Update { edge, .. } | Payload::Subscribe { edge, .. } => Some(*edge),
            Payload::Ack { .. } => None,
        }
    }

    /// Is this a reliability-layer ack (as opposed to verifier data)?
    pub fn is_ack(&self) -> bool {
        matches!(self, Payload::Ack { .. })
    }

    /// Approximate serialized size in bytes (for overhead accounting).
    pub fn wire_bytes(&self) -> usize {
        match self {
            Payload::Update {
                withdrawn, results, ..
            } => {
                8 + withdrawn
                    .iter()
                    .map(PortablePred::wire_bytes)
                    .sum::<usize>()
                    + results
                        .iter()
                        .map(|(p, c)| p.wire_bytes() + 4 * c.len() * c.dim().max(1))
                        .sum::<usize>()
            }
            Payload::Subscribe { space, .. } => 8 + space.wire_bytes(),
            Payload::Ack { .. } => 8,
        }
    }
}

/// A device-to-device message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sending device.
    pub from: DeviceId,
    /// Receiving device.
    pub to: DeviceId,
    /// Channel sequence number, per directed `(from, to)` pair. `0`
    /// means "unsequenced": verifiers always emit 0 and the reliability
    /// layer assigns 1, 2, … at send time. Acks carry 0 themselves and
    /// name the acknowledged data seq in [`Payload::Ack`].
    pub seq: u64,
    /// Causal trace id: every envelope emitted while processing a
    /// given FIB update (or while relaying its consequences) carries
    /// the same id, so telemetry can reconstruct the whole UPDATE wave
    /// across devices. `0` means "untraced". Observability metadata
    /// only — excluded from [`Envelope::wire_bytes`] and never read by
    /// the protocol itself.
    pub trace: u64,
    /// Epoch fence: the topology generation the sender was planned
    /// against when it emitted this envelope. Unlike [`Envelope::trace`]
    /// this *is* protocol-relevant — after a topology churn bumps the
    /// generation, verifiers discard in-flight envelopes stamped with a
    /// superseded epoch instead of letting them corrupt the new round,
    /// and the reliability layer drops superseded retransmission
    /// entries. `0` is the pre-churn epoch every run starts in.
    pub epoch: u64,
    /// The DVM payload.
    pub payload: Payload,
}

impl Envelope {
    /// A fresh, unsequenced data envelope (the form verifiers emit).
    pub fn data(from: DeviceId, to: DeviceId, payload: Payload) -> Envelope {
        Envelope {
            from,
            to,
            seq: 0,
            trace: 0,
            epoch: 0,
            payload,
        }
    }

    /// Approximate serialized size in bytes.
    pub fn wire_bytes(&self) -> usize {
        8 + self.payload.wire_bytes()
    }
}

tulkun_json::impl_json_object!(EdgeRef { up, down });

impl ToJson for Payload {
    fn to_json(&self) -> Json {
        match self {
            Payload::Update {
                edge,
                withdrawn,
                results,
            } => Json::Object(vec![(
                "Update".to_string(),
                Json::Object(vec![
                    ("edge".to_string(), edge.to_json()),
                    ("withdrawn".to_string(), withdrawn.to_json()),
                    ("results".to_string(), results.to_json()),
                ]),
            )]),
            Payload::Subscribe { edge, space } => Json::Object(vec![(
                "Subscribe".to_string(),
                Json::Object(vec![
                    ("edge".to_string(), edge.to_json()),
                    ("space".to_string(), space.to_json()),
                ]),
            )]),
            Payload::Ack { of } => Json::Object(vec![(
                "Ack".to_string(),
                Json::Object(vec![("of".to_string(), of.to_json())]),
            )]),
        }
    }
}

impl FromJson for Payload {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Some(u) = v.get("Update") {
            let field = |name: &str| u.get(name).ok_or_else(|| JsonError::missing_field(name));
            return Ok(Payload::Update {
                edge: FromJson::from_json(field("edge")?)?,
                withdrawn: FromJson::from_json(field("withdrawn")?)?,
                results: FromJson::from_json(field("results")?)?,
            });
        }
        if let Some(s) = v.get("Subscribe") {
            let field = |name: &str| s.get(name).ok_or_else(|| JsonError::missing_field(name));
            return Ok(Payload::Subscribe {
                edge: FromJson::from_json(field("edge")?)?,
                space: FromJson::from_json(field("space")?)?,
            });
        }
        if let Some(a) = v.get("Ack") {
            let of = a.get("of").ok_or_else(|| JsonError::missing_field("of"))?;
            return Ok(Payload::Ack {
                of: FromJson::from_json(of)?,
            });
        }
        Err(JsonError::expected("DVM payload", v))
    }
}

tulkun_json::impl_json_object!(Envelope {
    from,
    to,
    seq,
    trace,
    epoch,
    payload
});

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun_bdd::{serial, BddManager};

    #[test]
    fn payload_round_trips_through_json() {
        let mut m = BddManager::new(8);
        let x = m.var(2);
        let enc = serial::export(&m, x);
        let env = Envelope {
            from: DeviceId(1),
            to: DeviceId(2),
            seq: 7,
            trace: 11,
            epoch: 3,
            payload: Payload::Update {
                edge: EdgeRef {
                    up: NodeId(0),
                    down: NodeId(3),
                },
                withdrawn: vec![enc.clone()],
                results: vec![(enc, Counts::scalars([0, 1]))],
            },
        };
        let json = tulkun_json::to_string(&env);
        let back: Envelope = tulkun_json::from_str(&json).unwrap();
        assert_eq!(back, env);
        assert!(env.wire_bytes() > 0);
    }

    #[test]
    fn ack_round_trips_and_is_small() {
        let env = Envelope::data(DeviceId(2), DeviceId(1), Payload::Ack { of: 42 });
        assert!(env.payload.is_ack());
        assert!(env.payload.edge().is_none());
        let json = tulkun_json::to_string(&env);
        let back: Envelope = tulkun_json::from_str(&json).unwrap();
        assert_eq!(back, env);
        // Acks must stay tiny: they are pure protocol overhead.
        assert!(env.wire_bytes() <= 16);
    }
}

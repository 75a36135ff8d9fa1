//! Prioritized match-action tables (the paper's data plane model, §2.1).
//! Compiling a table into LECs (§5.1) is `tulkun_predicate::lecs`.

use crate::prefix::IpPrefix;
use crate::topology::DeviceId;
use tulkun_bdd::{BddManager, HeaderLayout, Pred};
use tulkun_json::{FromJson, Json, JsonError, ToJson};

/// How a forwarding group treats its next hops (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ActionType {
    /// The packet is replicated to **all** next hops in the group
    /// (multicast / 1+1 protection): one universe, several traces.
    All,
    /// The packet is sent to **one** next hop chosen by an unknown,
    /// vendor-specific algorithm (ECMP): several universes.
    Any,
}

/// A member of a forwarding group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NextHop {
    /// Forward to a neighboring device.
    Device(DeviceId),
    /// Deliver out an external port (the packet leaves the network
    /// correctly at this device).
    External,
}

/// An optional header rewrite applied before forwarding (packet
/// transformation, §5.2). The destination IP is replaced so that the
/// packet subsequently matches `to` instead of its original space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rewrite {
    /// New destination prefix; all matched packets are mapped into it.
    pub to: IpPrefix,
}

/// A data plane action.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Drop the packet (the empty forwarding group of §2.1).
    Drop,
    /// Forward to a group of next hops.
    Forward {
        /// `ALL` (replicate) or `ANY` (pick one).
        mode: ActionType,
        /// The forwarding group.
        next_hops: Vec<NextHop>,
        /// Optional packet transformation applied before forwarding.
        rewrite: Option<Rewrite>,
    },
}

impl Action {
    /// Convenience: forward to a single device (ALL and ANY coincide).
    pub fn fwd(dev: DeviceId) -> Action {
        Action::Forward {
            mode: ActionType::All,
            next_hops: vec![NextHop::Device(dev)],
            rewrite: None,
        }
    }

    /// Convenience: forward to all of the given devices.
    pub fn fwd_all(devs: impl IntoIterator<Item = DeviceId>) -> Action {
        Action::Forward {
            mode: ActionType::All,
            next_hops: devs.into_iter().map(NextHop::Device).collect(),
            rewrite: None,
        }
    }

    /// Convenience: forward to any one of the given devices.
    pub fn fwd_any(devs: impl IntoIterator<Item = DeviceId>) -> Action {
        Action::Forward {
            mode: ActionType::Any,
            next_hops: devs.into_iter().map(NextHop::Device).collect(),
            rewrite: None,
        }
    }

    /// Convenience: deliver out an external port.
    pub fn deliver() -> Action {
        Action::Forward {
            mode: ActionType::All,
            next_hops: vec![NextHop::External],
            rewrite: None,
        }
    }

    /// Device next hops of the action (empty for drop/deliver-only).
    pub fn device_next_hops(&self) -> Vec<DeviceId> {
        match self {
            Action::Drop => Vec::new(),
            Action::Forward { next_hops, .. } => next_hops
                .iter()
                .filter_map(|nh| match nh {
                    NextHop::Device(d) => Some(*d),
                    NextHop::External => None,
                })
                .collect(),
        }
    }

    /// Does the action deliver out an external port?
    pub fn delivers_external(&self) -> bool {
        matches!(self, Action::Forward { next_hops, .. } if next_hops.contains(&NextHop::External))
    }
}

/// What packets a rule matches: a destination prefix plus optional
/// destination-port range and protocol constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatchSpec {
    /// Destination prefix to match.
    pub dst: IpPrefix,
    /// Inclusive destination-port range, if constrained.
    pub dst_port: Option<(u16, u16)>,
    /// Exact protocol number, if constrained.
    pub proto: Option<u8>,
}

impl MatchSpec {
    /// Match on a destination prefix only.
    pub fn dst(prefix: IpPrefix) -> Self {
        MatchSpec {
            dst: prefix,
            dst_port: None,
            proto: None,
        }
    }

    /// Adds an exact destination port.
    pub fn with_port(mut self, port: u16) -> Self {
        self.dst_port = Some((port, port));
        self
    }

    /// Compiles the match into a predicate.
    pub fn to_pred(&self, m: &mut BddManager, layout: &HeaderLayout) -> Pred {
        let mut p = self.dst.to_pred(m, layout);
        if let Some((lo, hi)) = self.dst_port {
            let r = layout.dst_port.range(m, lo as u64, hi as u64);
            p = m.and(p, r);
        }
        if let Some(proto) = self.proto {
            let q = layout.proto.eq(m, proto as u64);
            p = m.and(p, q);
        }
        p
    }
}

/// One prioritized rule. Higher `priority` wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Higher priorities win.
    pub priority: u32,
    /// What the rule matches.
    pub matches: MatchSpec,
    /// What it does.
    pub action: Action,
}

/// A device's forwarding table: rules ordered by descending priority.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fib {
    rules: Vec<Rule>,
}

impl Fib {
    /// Empty table (drops everything).
    pub fn new() -> Self {
        Fib::default()
    }

    /// Inserts a rule, keeping descending-priority order. Within equal
    /// priority, later insertions sort after earlier ones.
    pub fn insert(&mut self, rule: Rule) {
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
    }

    /// Removes all rules matching the given priority and match spec;
    /// returns how many were removed.
    pub fn remove(&mut self, priority: u32, matches: &MatchSpec) -> usize {
        let before = self.rules.len();
        self.rules
            .retain(|r| !(r.priority == priority && r.matches == *matches));
        before - self.rules.len()
    }

    /// Rules in descending priority order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Looks up the effective action for a single concrete packet given as
    /// a full variable assignment (testing aid).
    pub fn lookup(&self, m: &mut BddManager, layout: &HeaderLayout, assignment: &[bool]) -> Action {
        for rule in &self.rules {
            let p = rule.matches.to_pred(m, layout);
            if m.eval(p, assignment) {
                return rule.action.clone();
            }
        }
        Action::Drop
    }
}

impl ToJson for ActionType {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                ActionType::All => "All",
                ActionType::Any => "Any",
            }
            .to_string(),
        )
    }
}

impl FromJson for ActionType {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("All") => Ok(ActionType::All),
            Some("Any") => Ok(ActionType::Any),
            _ => Err(JsonError::expected("\"All\" or \"Any\"", v)),
        }
    }
}

impl ToJson for NextHop {
    fn to_json(&self) -> Json {
        match self {
            NextHop::Device(d) => Json::Object(vec![("Device".to_string(), d.to_json())]),
            NextHop::External => Json::Str("External".to_string()),
        }
    }
}

impl FromJson for NextHop {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.as_str() == Some("External") {
            return Ok(NextHop::External);
        }
        if let Some(d) = v.get("Device") {
            return Ok(NextHop::Device(FromJson::from_json(d)?));
        }
        Err(JsonError::expected("next hop", v))
    }
}

tulkun_json::impl_json_object!(Rewrite { to });

impl ToJson for Action {
    fn to_json(&self) -> Json {
        match self {
            Action::Drop => Json::Str("Drop".to_string()),
            Action::Forward {
                mode,
                next_hops,
                rewrite,
            } => Json::Object(vec![(
                "Forward".to_string(),
                Json::Object(vec![
                    ("mode".to_string(), mode.to_json()),
                    ("next_hops".to_string(), next_hops.to_json()),
                    ("rewrite".to_string(), rewrite.to_json()),
                ]),
            )]),
        }
    }
}

impl FromJson for Action {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if v.as_str() == Some("Drop") {
            return Ok(Action::Drop);
        }
        if let Some(f) = v.get("Forward") {
            let field = |name: &str| f.get(name).ok_or_else(|| JsonError::missing_field(name));
            return Ok(Action::Forward {
                mode: FromJson::from_json(field("mode")?)?,
                next_hops: FromJson::from_json(field("next_hops")?)?,
                rewrite: FromJson::from_json(field("rewrite")?)?,
            });
        }
        Err(JsonError::expected("action", v))
    }
}

tulkun_json::impl_json_object!(MatchSpec {
    dst,
    dst_port,
    proto
});
tulkun_json::impl_json_object!(Rule {
    priority,
    matches,
    action
});

impl ToJson for Fib {
    fn to_json(&self) -> Json {
        Json::Object(vec![("rules".to_string(), self.rules.to_json())])
    }
}

impl FromJson for Fib {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let rules: Vec<Rule> = FromJson::from_json(
            v.get("rules")
                .ok_or_else(|| JsonError::missing_field("rules"))?,
        )?;
        let mut fib = Fib::new();
        // Re-inserting keeps the descending-priority invariant even if
        // the document was edited by hand.
        for rule in rules {
            fib.insert(rule);
        }
        Ok(fib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout_and_mgr() -> (HeaderLayout, BddManager) {
        let layout = HeaderLayout::ipv4_tcp();
        let m = BddManager::new(layout.num_vars());
        (layout, m)
    }

    fn pfx(s: &str) -> IpPrefix {
        s.parse().unwrap()
    }

    #[test]
    fn priority_order_is_maintained() {
        let mut fib = Fib::new();
        fib.insert(Rule {
            priority: 10,
            matches: MatchSpec::dst(pfx("10.0.0.0/8")),
            action: Action::Drop,
        });
        fib.insert(Rule {
            priority: 30,
            matches: MatchSpec::dst(pfx("10.0.0.0/24")),
            action: Action::deliver(),
        });
        fib.insert(Rule {
            priority: 20,
            matches: MatchSpec::dst(pfx("10.0.0.0/16")),
            action: Action::fwd(DeviceId(1)),
        });
        let prios: Vec<u32> = fib.rules().iter().map(|r| r.priority).collect();
        assert_eq!(prios, vec![30, 20, 10]);
    }

    #[test]
    fn remove_deletes_matching_rules() {
        let mut fib = Fib::new();
        let ms = MatchSpec::dst(pfx("10.0.0.0/24"));
        fib.insert(Rule {
            priority: 10,
            matches: ms,
            action: Action::Drop,
        });
        fib.insert(Rule {
            priority: 20,
            matches: ms,
            action: Action::deliver(),
        });
        assert_eq!(fib.remove(10, &ms), 1);
        assert_eq!(fib.len(), 1);
        assert_eq!(fib.remove(99, &ms), 0);
    }

    #[test]
    fn lookup_follows_priority() {
        let (layout, mut m) = layout_and_mgr();
        let mut fib = Fib::new();
        fib.insert(Rule {
            priority: 1,
            matches: MatchSpec::dst(pfx("0.0.0.0/0")),
            action: Action::Drop,
        });
        fib.insert(Rule {
            priority: 9,
            matches: MatchSpec::dst(pfx("10.0.0.0/8")),
            action: Action::deliver(),
        });
        let mut bits = vec![false; layout.num_vars() as usize];
        // dst = 10.0.0.1
        let addr = u32::from_be_bytes([10, 0, 0, 1]);
        for i in 0..32 {
            bits[i as usize] = (addr >> (31 - i)) & 1 == 1;
        }
        assert_eq!(fib.lookup(&mut m, &layout, &bits), Action::deliver());
        let bits0 = vec![false; layout.num_vars() as usize];
        assert_eq!(fib.lookup(&mut m, &layout, &bits0), Action::Drop);
    }
}

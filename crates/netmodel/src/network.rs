//! A network: topology plus one data plane (FIB) per device.

use crate::fib::{Fib, MatchSpec, Rule};
use crate::topology::{DeviceId, Topology};
use tulkun_bdd::HeaderLayout;

/// A complete network snapshot: topology, per-device FIBs, and the header
/// layout its predicates are expressed over.
#[derive(Debug, Clone)]
pub struct Network {
    /// Devices, links and external ports.
    pub topology: Topology,
    /// One FIB per device, indexed by `DeviceId`.
    pub fibs: Vec<Fib>,
    /// Header-bit layout of all predicates.
    pub layout: HeaderLayout,
}

/// One rule update: install or withdraw a rule at a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleUpdate {
    /// Install a rule.
    Insert {
        /// Device whose FIB changes.
        device: DeviceId,
        /// The new rule.
        rule: Rule,
    },
    /// Withdraw all rules with this priority and match.
    Remove {
        /// Device whose FIB changes.
        device: DeviceId,
        /// Priority of the rules to remove.
        priority: u32,
        /// Match of the rules to remove.
        matches: MatchSpec,
    },
}

impl RuleUpdate {
    /// The device whose FIB the update touches.
    pub fn device(&self) -> DeviceId {
        match self {
            RuleUpdate::Insert { device, .. } | RuleUpdate::Remove { device, .. } => *device,
        }
    }
}

/// Groups a burst of rule updates per device, in first-touch order,
/// keeping each device's relative order, and cancels churn before
/// verification: an `Insert` followed later in the burst by a `Remove`
/// with the same priority and match never reaches the verifier. The
/// `Remove` stays (a withdraw also clears any pre-existing rules with
/// the same priority and match, see `Fib::remove`), so applying the
/// coalesced groups leaves the FIB byte-identical to applying the
/// original sequence one update at a time.
pub fn coalesce(updates: &[RuleUpdate]) -> Vec<(DeviceId, Vec<RuleUpdate>)> {
    let mut groups: Vec<(DeviceId, Vec<RuleUpdate>)> = Vec::new();
    for u in updates {
        let dev = u.device();
        let group = match groups.iter_mut().find(|(d, _)| *d == dev) {
            Some((_, g)) => g,
            None => {
                groups.push((dev, Vec::new()));
                &mut groups.last_mut().unwrap().1
            }
        };
        if let RuleUpdate::Remove {
            priority, matches, ..
        } = u
        {
            group.retain(|kept| {
                !matches!(kept, RuleUpdate::Insert { rule, .. }
                    if rule.priority == *priority && rule.matches == *matches)
            });
        }
        group.push(u.clone());
    }
    groups
}

impl Network {
    /// A network over the given topology with empty (drop-all) FIBs.
    pub fn new(topology: Topology) -> Self {
        let n = topology.num_devices();
        Network {
            topology,
            fibs: vec![Fib::new(); n],
            layout: HeaderLayout::ipv4_tcp(),
        }
    }

    /// The FIB of a device.
    pub fn fib(&self, d: DeviceId) -> &Fib {
        &self.fibs[d.idx()]
    }

    /// Mutable FIB of a device.
    pub fn fib_mut(&mut self, d: DeviceId) -> &mut Fib {
        &mut self.fibs[d.idx()]
    }

    /// Total rules across all devices.
    pub fn total_rules(&self) -> usize {
        self.fibs.iter().map(Fib::len).sum()
    }

    /// Applies a rule update to the snapshot.
    pub fn apply(&mut self, update: &RuleUpdate) {
        match update {
            RuleUpdate::Insert { device, rule } => self.fib_mut(*device).insert(rule.clone()),
            RuleUpdate::Remove {
                device,
                priority,
                matches,
            } => {
                self.fib_mut(*device).remove(*priority, matches);
            }
        }
    }
}

tulkun_json::impl_json_object!(Network {
    topology,
    fibs,
    layout
});

impl tulkun_json::ToJson for RuleUpdate {
    fn to_json(&self) -> tulkun_json::Json {
        use tulkun_json::Json;
        match self {
            RuleUpdate::Insert { device, rule } => Json::Object(vec![(
                "Insert".to_string(),
                Json::Object(vec![
                    ("device".to_string(), device.to_json()),
                    ("rule".to_string(), rule.to_json()),
                ]),
            )]),
            RuleUpdate::Remove {
                device,
                priority,
                matches,
            } => Json::Object(vec![(
                "Remove".to_string(),
                Json::Object(vec![
                    ("device".to_string(), device.to_json()),
                    ("priority".to_string(), priority.to_json()),
                    ("matches".to_string(), matches.to_json()),
                ]),
            )]),
        }
    }
}

impl tulkun_json::FromJson for RuleUpdate {
    fn from_json(v: &tulkun_json::Json) -> Result<Self, tulkun_json::JsonError> {
        use tulkun_json::{FromJson, JsonError};
        let field = |obj: &tulkun_json::Json, name: &str| {
            obj.get(name)
                .ok_or_else(|| JsonError::missing_field(name))
                .cloned()
        };
        if let Some(ins) = v.get("Insert") {
            return Ok(RuleUpdate::Insert {
                device: FromJson::from_json(&field(ins, "device")?)?,
                rule: FromJson::from_json(&field(ins, "rule")?)?,
            });
        }
        if let Some(rem) = v.get("Remove") {
            return Ok(RuleUpdate::Remove {
                device: FromJson::from_json(&field(rem, "device")?)?,
                priority: FromJson::from_json(&field(rem, "priority")?)?,
                matches: FromJson::from_json(&field(rem, "matches")?)?,
            });
        }
        Err(JsonError::expected("rule update", v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fib::Action;
    use crate::prefix::IpPrefix;

    #[test]
    fn rule_update_json_roundtrip() {
        let p: IpPrefix = "10.1.0.0/16".parse().unwrap();
        let ups = vec![
            RuleUpdate::Insert {
                device: DeviceId(3),
                rule: Rule {
                    priority: 7,
                    matches: MatchSpec::dst(p),
                    action: Action::deliver(),
                },
            },
            RuleUpdate::Remove {
                device: DeviceId(1),
                priority: 7,
                matches: MatchSpec::dst(p),
            },
        ];
        let text = tulkun_json::to_string(&ups);
        let parsed: Vec<RuleUpdate> = tulkun_json::from_str(&text).expect("rule updates roundtrip");
        assert_eq!(parsed, ups);
        assert!(tulkun_json::from_str::<RuleUpdate>("{\"Bogus\":{}}").is_err());
    }

    #[test]
    fn apply_updates() {
        let mut t = Topology::new();
        let a = t.add_device("A");
        let _b = t.add_device("B");
        let mut net = Network::new(t);
        assert_eq!(net.total_rules(), 0);
        let p: IpPrefix = "10.0.0.0/24".parse().unwrap();
        let rule = Rule {
            priority: 10,
            matches: MatchSpec::dst(p),
            action: Action::deliver(),
        };
        net.apply(&RuleUpdate::Insert {
            device: a,
            rule: rule.clone(),
        });
        assert_eq!(net.total_rules(), 1);
        assert_eq!(net.fib(a).rules()[0], rule);
        net.apply(&RuleUpdate::Remove {
            device: a,
            priority: 10,
            matches: MatchSpec::dst(p),
        });
        assert_eq!(net.total_rules(), 0);
    }

    fn insert(device: DeviceId, priority: u32, prefix: &str) -> RuleUpdate {
        RuleUpdate::Insert {
            device,
            rule: Rule {
                priority,
                matches: MatchSpec::dst(prefix.parse().unwrap()),
                action: Action::deliver(),
            },
        }
    }

    fn remove(device: DeviceId, priority: u32, prefix: &str) -> RuleUpdate {
        RuleUpdate::Remove {
            device,
            priority,
            matches: MatchSpec::dst(prefix.parse().unwrap()),
        }
    }

    #[test]
    fn batch_coalesces_insert_then_remove() {
        let mut t = Topology::new();
        let a = t.add_device("A");
        let b = t.add_device("B");
        let groups = coalesce(&[
            insert(a, 10, "10.0.0.0/24"),
            insert(b, 20, "10.0.1.0/24"),
            remove(a, 10, "10.0.0.0/24"),
            insert(a, 30, "10.0.2.0/24"),
        ]);
        assert_eq!(groups.len(), 2);
        // Device A: the insert cancelled against the later remove; the
        // remove survives (it may clear pre-batch rules) and so does the
        // unrelated insert, in order.
        let (dev, ops) = &groups[0];
        assert_eq!(*dev, a);
        assert_eq!(
            ops,
            &vec![remove(a, 10, "10.0.0.0/24"), insert(a, 30, "10.0.2.0/24")]
        );
        let (dev, ops) = &groups[1];
        assert_eq!(*dev, b);
        assert_eq!(ops, &vec![insert(b, 20, "10.0.1.0/24")]);
    }

    #[test]
    fn coalesced_batch_yields_same_fib_as_sequential() {
        let mut t = Topology::new();
        let a = t.add_device("A");
        let mut seq = Network::new(t.clone());
        let mut coal = Network::new(t);
        // Pre-existing rule with the same key as the churned insert:
        // the surviving Remove must clear it on both paths.
        let pre = insert(a, 10, "10.0.0.0/24");
        seq.apply(&pre);
        coal.apply(&pre);
        let batch = [
            insert(a, 10, "10.0.0.0/24"),
            remove(a, 10, "10.0.0.0/24"),
            insert(a, 10, "10.0.0.0/24"),
        ];
        for u in &batch {
            seq.apply(u);
        }
        for (_, ops) in coalesce(&batch) {
            for u in &ops {
                coal.apply(u);
            }
        }
        assert_eq!(seq.fib(a).rules(), coal.fib(a).rules());
    }
}

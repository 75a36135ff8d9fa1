//! The canonical form Reports are compared in.
//!
//! `Report::canonical_bytes` sorts the violations but does not merge
//! them: the event-driven substrate behind the daemon can leave one
//! violation split across two disjoint predicates with equal counts
//! (which halves arrive first follows measured CPU time) where the
//! synchronous reference session holds their union. Both say the same
//! thing — the same packets violate, with the same counts, at the same
//! node — so the oracle unions the predicates of violations that agree
//! on everything else before it compares bytes.

use std::borrow::Cow;
use std::collections::BTreeMap;

use tulkun::bdd::serial::{self, PortablePred};
use tulkun::bdd::{BddManager, HeaderLayout, Pred};
use tulkun::json::{self, FromJson, Json, ToJson};

const VIOLATION_START: &str = "{\"device\":";
const PRED_FIELD: &str = ",\"pred\":";
const KIND_FIELD: &str = ",\"kind\":";

/// Whether two violations agree on everything but `pred`. The
/// violations are sorted as strings and start `{"device":D,"node":N,`,
/// so those of one node are neighbours; within such a group the text
/// after the predicate (`kind`, `intent`) is compared. A Report
/// without such a pair is already canonical and is not parsed at all;
/// anything this scan does not recognise counts as "may merge".
fn may_merge(report: &str) -> bool {
    let starts: Vec<usize> = report
        .match_indices(VIOLATION_START)
        .map(|(at, _)| at)
        .collect();
    let mut group = "";
    let mut tails: Vec<&str> = Vec::new();
    for (k, &at) in starts.iter().enumerate() {
        let v = &report[at..starts.get(k + 1).copied().unwrap_or(report.len())];
        let Some(pred_at) = v.find(PRED_FIELD) else {
            return true;
        };
        let Some(kind_at) = v[pred_at..].find(KIND_FIELD) else {
            return true;
        };
        let tail = v[pred_at + kind_at..].trim_end_matches([',', ']']);
        if &v[..pred_at] != group {
            group = &v[..pred_at];
            tails.clear();
        }
        if tails.contains(&tail) {
            return true;
        }
        tails.push(tail);
    }
    false
}

/// The canonical form of a `report` reply body (a JSON array of
/// violations): violations equal in everything but `pred` are merged
/// into one whose predicate is the union, then re-sorted.
pub fn canonical(report: &str) -> Cow<'_, str> {
    if !may_merge(report) {
        return Cow::Borrowed(report);
    }
    let Ok(Json::Array(violations)) = json::parse(report) else {
        return Cow::Borrowed(report);
    };
    let mut m = BddManager::new(HeaderLayout::ipv4_tcp().num_vars());
    let mut merged: BTreeMap<String, (Vec<(String, Json)>, Pred)> = BTreeMap::new();
    for v in violations {
        let Json::Object(fields) = v else {
            return Cow::Borrowed(report);
        };
        let Some(pred) = fields
            .iter()
            .find(|(k, _)| k == "pred")
            .and_then(|(_, p)| PortablePred::from_json(p).ok())
            .and_then(|p| serial::import(&mut m, &p).ok())
        else {
            return Cow::Borrowed(report);
        };
        let rest: Vec<(String, Json)> = fields.into_iter().filter(|(k, _)| k != "pred").collect();
        let key = json::to_string(&Json::Object(rest.clone()));
        let slot = merged.entry(key).or_insert((rest, m.falsum()));
        slot.1 = m.or(slot.1, pred);
    }
    let mut rendered: Vec<String> = merged
        .into_values()
        .map(|(mut fields, pred)| {
            // `pred` goes back where `Violation::to_json` puts it.
            fields.insert(2, ("pred".to_string(), serial::export(&m, pred).to_json()));
            json::to_string(&Json::Object(fields))
        })
        .collect();
    rendered.sort();
    Cow::Owned(format!("[{}]", rendered.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tulkun::core::count::Counts;
    use tulkun::core::dpvnet::NodeId;
    use tulkun::core::verify::{Report, Violation, ViolationKind};
    use tulkun::netmodel::topology::DeviceId;

    fn violation(m: &mut BddManager, dev: u32, node: u32, octets: [u8; 4], len: u32) -> Violation {
        let p = HeaderLayout::ipv4_tcp().dst_prefix(m, octets, len);
        Violation {
            device: DeviceId(dev),
            node: NodeId(node),
            pred: serial::export(m, p),
            kind: ViolationKind::Counting {
                counts: Counts::zero(2),
            },
            intent: 0,
        }
    }

    fn report(violations: Vec<Violation>) -> String {
        let r = Report {
            violations,
            ..Report::default()
        };
        String::from_utf8(r.canonical_bytes()).unwrap()
    }

    #[test]
    fn split_halves_merge_into_the_whole() {
        let mut m = BddManager::new(HeaderLayout::ipv4_tcp().num_vars());
        let other = violation(&mut m, 7, 3, [10, 0, 9, 0], 24);
        let whole = report(vec![
            violation(&mut m, 43, 201, [10, 0, 1, 0], 24),
            other.clone(),
        ]);
        let split = report(vec![
            violation(&mut m, 43, 201, [10, 0, 1, 128], 25),
            other,
            violation(&mut m, 43, 201, [10, 0, 1, 0], 25),
        ]);
        assert_ne!(whole, split);
        assert!(may_merge(&split) && !may_merge(&whole));
        assert_eq!(canonical(&split), whole);
        assert!(matches!(canonical(&whole), Cow::Borrowed(_)));
    }

    #[test]
    fn different_nodes_stay_apart() {
        let mut m = BddManager::new(HeaderLayout::ipv4_tcp().num_vars());
        let r = report(vec![
            violation(&mut m, 43, 201, [10, 0, 1, 0], 25),
            violation(&mut m, 43, 202, [10, 0, 1, 128], 25),
        ]);
        assert_eq!(canonical(&r), r);
        assert_eq!(canonical("[]"), "[]");
    }
}

//! The explain engine: turn a degraded verdict (`Stale`, `Unreachable`,
//! a fired violation) plus the causal flight recorder into a ranked
//! causal chain a human can read.
//!
//! The walk is a pure function of the journal: entries carry no wall
//! clock (only their global `seq`), relevance is decided by exact
//! device/intent matches, global kinds and trace-id closure, and
//! ranking is a fixed severity order of event kinds with `seq` (newest
//! first) as the tiebreak. A run whose journal is itself a function of
//! its seed (a clean one, or one under `SwitchModel::LOCKSTEP`)
//! therefore explains itself with byte-identical JSON every time.
//!
//! The algorithm, given a subject (a device or an intent) and its
//! verdict:
//!
//! 1. **Direct pass** — scan the journal backwards, keeping entries
//!    that name the subject (same device, or same intent id) and
//!    global entries (epoch fences, topology churn, SLO breaches).
//! 2. **Trace closure** — collect the causal trace ids of the direct
//!    hits and sweep once more, pulling in every entry that shares one
//!    of those trace ids (the rest of the wave the subject was hit
//!    by: the fence that superseded it, the retransmissions that
//!    exhausted toward it, the crash that wiped it).
//! 3. **Rank** — order by kind severity (topology churn outranks a
//!    crash outranks a watchdog stall outranks fault injections …),
//!    newest first within a kind, and keep the top
//!    [`MAX_CAUSES`] entries.

use tulkun_json::Json;
use tulkun_netmodel::topology::{DeviceId, Topology};
use tulkun_telemetry::{JournalEvent, JournalKind};

use crate::verify::Freshness;

/// What is being explained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// A device (every DPVNet node hosted on it).
    Device(DeviceId),
    /// A runtime intent by id.
    Intent(u64),
}

impl Subject {
    /// Render as the stable subject string used in the JSON output
    /// (`"device:3"` / `"intent:2"`).
    pub fn label(&self) -> String {
        match self {
            Subject::Device(d) => format!("device:{}", d.0),
            Subject::Intent(id) => format!("intent:{id}"),
        }
    }

    /// Parses the surface syntax the daemon and the CLI share:
    /// `intent:<id>`, or the name of a device of `topo`.
    pub fn parse(text: &str, topo: &Topology) -> Result<Subject, String> {
        match text.strip_prefix("intent:") {
            Some(id) => id
                .parse()
                .map(Subject::Intent)
                .map_err(|_| format!("bad intent id {id:?}")),
            None => topo
                .device(text)
                .map(Subject::Device)
                .ok_or_else(|| format!("unknown device {text:?}")),
        }
    }

    /// Does a record about `device` (and `intent`, where known) name
    /// this subject?
    pub fn names(&self, device: DeviceId, intent: Option<u64>) -> bool {
        match *self {
            Subject::Device(d) => device == d,
            Subject::Intent(id) => intent == Some(id),
        }
    }
}

/// The ranked causal chain is capped here; everything the walk found
/// beyond it is summarized by [`Explanation::considered`].
pub const MAX_CAUSES: usize = 8;

/// One ranked cause: a journal entry plus why it was kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cause {
    /// The journal entry.
    pub event: JournalEvent,
    /// Severity rank (lower = more likely the root cause).
    pub rank: u32,
    /// Why this entry is in the chain (`"names the device"`,
    /// `"shares trace 7"`, …).
    pub reason: &'static str,
}

/// A ranked causal chain for one subject/verdict pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// The subject label (`"device:3"` / `"intent:2"`).
    pub subject: String,
    /// The verdict being explained ([`verdict`]'s `"fresh"`,
    /// `"stale(epoch 7)"`, `"unreachable"`, `"violated, …"`, or an
    /// intent's `"parked(awaiting epoch 3)"` / `"removed"`).
    pub verdict: String,
    /// Ranked causes, most severe first; at most [`MAX_CAUSES`].
    pub causes: Vec<Cause>,
    /// How many journal entries the walk deemed relevant in total.
    pub considered: usize,
}

/// Severity order: lower outranks higher. Topology churn is the
/// canonical root cause; fences and admission decisions are usually
/// consequences.
fn severity(kind: JournalKind) -> u32 {
    use JournalKind as K;
    match kind {
        K::TopologyChurn => 0,
        // Parking/degradation are the per-intent face of a churn fence:
        // for an intent subject they ARE the root cause ("parked behind
        // fence @epoch N"), so they rank right behind the churn itself.
        K::CrashRestart | K::IntentParked | K::IntentDegraded => 1,
        K::WatchdogStall => 2,
        K::FaultInjected => 3,
        K::Retransmit => 4,
        K::AdmissionShed | K::AdmissionBlocked => 5,
        K::SloBreach => 6,
        K::EpochFence => 7,
        K::ChurnRejected | K::IntentRejected => 8,
        K::IntentInstalled | K::IntentRemoved | K::IntentReplanned | K::BackendSwap => 9,
        K::BatchApplied => 10,
    }
}

/// Does this entry speak about every subject (rather than one device)?
fn is_global(kind: JournalKind) -> bool {
    matches!(
        kind,
        JournalKind::EpochFence | JournalKind::TopologyChurn | JournalKind::SloBreach
    )
}

/// The one verdict vocabulary: the worst freshness among a subject's
/// judged nodes — `unreachable` outranks any `stale(epoch n)`, and of
/// several stale entries the last one (in node order) wins; `fresh`
/// when there is none — prefixed `violated, ` when a violation names
/// the subject. An intent with no slice to judge is `parked(…)` or
/// `removed` instead, which the caller answers from the intent store.
pub fn verdict<'a>(judged: impl IntoIterator<Item = &'a Freshness>, violated: bool) -> String {
    let mut worst = Freshness::Fresh;
    for f in judged {
        worst = match (worst, f) {
            (_, Freshness::Unreachable) | (Freshness::Unreachable, _) => Freshness::Unreachable,
            (_, Freshness::Stale(e)) => Freshness::Stale(*e),
            (w, Freshness::Fresh) => w,
        };
    }
    let fresh = match worst {
        Freshness::Fresh => "fresh".to_string(),
        Freshness::Stale(e) => format!("stale(epoch {e})"),
        Freshness::Unreachable => "unreachable".to_string(),
    };
    if violated {
        format!("violated, {fresh}")
    } else {
        fresh
    }
}

/// Walk the journal backwards and build the ranked causal chain for
/// `subject` under `verdict` (see the module docs for the algorithm).
pub fn explain(events: &[JournalEvent], subject: Subject, verdict: &str) -> Explanation {
    // Pass 1: direct hits.
    let mut kept: Vec<(&JournalEvent, &'static str)> = Vec::new();
    let mut traces: Vec<u64> = Vec::new();
    for e in events.iter().rev() {
        if subject.names(e.device, e.intent) {
            kept.push((e, "names the subject"));
            if e.trace != 0 && !traces.contains(&e.trace) {
                traces.push(e.trace);
            }
        } else if is_global(e.kind) {
            kept.push((e, "global event"));
            if e.trace != 0 && !traces.contains(&e.trace) {
                traces.push(e.trace);
            }
        }
    }
    // Pass 2: trace closure over the rest of the waves the subject
    // was part of.
    for e in events.iter().rev() {
        if kept.iter().any(|(k, _)| k.seq == e.seq) {
            continue;
        }
        if e.trace != 0 && traces.contains(&e.trace) {
            kept.push((e, "shares a causal trace"));
        }
    }
    let considered = kept.len();
    // Rank: severity, then newest first.
    kept.sort_by(|(a, _), (b, _)| {
        (severity(a.kind), std::cmp::Reverse(a.seq))
            .cmp(&(severity(b.kind), std::cmp::Reverse(b.seq)))
    });
    let causes = kept
        .into_iter()
        .take(MAX_CAUSES)
        .map(|(e, reason)| Cause {
            event: e.clone(),
            rank: severity(e.kind),
            reason,
        })
        .collect();
    Explanation {
        subject: subject.label(),
        verdict: verdict.to_string(),
        causes,
        considered,
    }
}

impl Explanation {
    /// Deterministic JSON rendering (stable key order; causes carry
    /// the full journal entry plus rank and reason).
    pub fn to_json(&self) -> String {
        let causes: Vec<Json> = self
            .causes
            .iter()
            .map(|c| {
                Json::Object(vec![
                    ("rank".into(), Json::Int(c.rank as i64)),
                    ("reason".into(), Json::Str(c.reason.into())),
                    ("event".into(), c.event.to_json()),
                ])
            })
            .collect();
        let doc = Json::Object(vec![
            ("schema".into(), Json::Str("tulkun-explain-v1".into())),
            ("subject".into(), Json::Str(self.subject.clone())),
            ("verdict".into(), Json::Str(self.verdict.clone())),
            ("considered".into(), Json::Int(self.considered as i64)),
            ("causes".into(), Json::Array(causes)),
        ]);
        tulkun_json::to_string(&doc)
    }

    /// Human-readable rendering: one line per cause, most severe
    /// first.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} is {}", self.subject, self.verdict);
        if self.causes.is_empty() {
            let _ = writeln!(out, "  no journaled cause found (journal off or empty)");
            return out;
        }
        for (i, c) in self.causes.iter().enumerate() {
            let e = &c.event;
            let mut line = format!(
                "  {}. [{}] {} on device {} at epoch {}",
                i + 1,
                e.kind.as_str(),
                e.detail,
                e.device.0,
                e.epoch
            );
            if let Some(id) = e.intent {
                let _ = write!(line, " (intent {id})");
            }
            if e.trace != 0 {
                let _ = write!(line, " [trace {}]", e.trace);
            }
            let _ = write!(line, " (seq {}, {})", e.seq, c.reason);
            let _ = writeln!(out, "{line}");
        }
        if self.considered > self.causes.len() {
            let _ = writeln!(
                out,
                "  … {} more related journal entries",
                self.considered - self.causes.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: JournalKind, dev: u32, epoch: u64, trace: u64) -> JournalEvent {
        JournalEvent {
            seq,
            kind,
            device: DeviceId(dev),
            epoch,
            trace,
            intent: None,
            detail: format!("{} #{seq}", kind.as_str()),
            source: None,
        }
    }

    #[test]
    fn churn_outranks_faults_and_fences() {
        let events = vec![
            ev(1, JournalKind::EpochFence, 0, 1, 5),
            ev(2, JournalKind::TopologyChurn, 2, 1, 5),
            ev(3, JournalKind::FaultInjected, 2, 1, 6),
            ev(4, JournalKind::FaultInjected, 2, 1, 6),
            ev(5, JournalKind::Retransmit, 2, 1, 6),
        ];
        let x = explain(&events, Subject::Device(DeviceId(2)), "stale(epoch 1)");
        assert_eq!(x.causes[0].event.kind, JournalKind::TopologyChurn);
        assert_eq!(x.causes[0].event.device, DeviceId(2));
        assert_eq!(x.considered, 5);
        // Newest fault first within the kind.
        assert_eq!(x.causes[1].event.seq, 4);
    }

    #[test]
    fn trace_closure_pulls_in_the_wave() {
        // Device 9 only appears via a retransmit, but the fence and the
        // churn that share its trace must be pulled in.
        let events = vec![
            ev(1, JournalKind::IntentInstalled, 0, 1, 7),
            ev(2, JournalKind::Retransmit, 9, 1, 7),
            ev(3, JournalKind::BatchApplied, 4, 1, 8),
        ];
        let x = explain(&events, Subject::Device(DeviceId(9)), "stale(epoch 1)");
        assert_eq!(x.considered, 2, "trace 8 is unrelated");
        assert!(x
            .causes
            .iter()
            .any(|c| c.event.kind == JournalKind::IntentInstalled));
    }

    #[test]
    fn intent_subject_matches_by_id_and_json_is_deterministic() {
        let mut e = ev(1, JournalKind::IntentInstalled, 0, 1, 7);
        e.intent = Some(3);
        let events = vec![e, ev(2, JournalKind::TopologyChurn, 1, 2, 8)];
        let a = explain(&events, Subject::Intent(3), "stale(epoch 2)");
        let b = explain(&events, Subject::Intent(3), "stale(epoch 2)");
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"subject\":\"intent:3\""));
        assert!(a.causes.iter().any(|c| c.event.intent == Some(3)));
    }

    #[test]
    fn parked_intent_ranks_behind_only_the_churn() {
        // "parked behind fence @epoch N" must outrank the fence itself
        // and everything downstream of it — only the churn event that
        // caused the fence ranks higher.
        let mut parked = ev(3, JournalKind::IntentParked, 0, 2, 9);
        parked.intent = Some(5);
        let events = vec![
            ev(1, JournalKind::TopologyChurn, 1, 2, 9),
            ev(2, JournalKind::EpochFence, 1, 2, 9),
            parked,
            ev(4, JournalKind::Retransmit, 1, 2, 9),
        ];
        let x = explain(&events, Subject::Intent(5), "parked(epoch 2)");
        assert_eq!(x.causes[0].event.kind, JournalKind::TopologyChurn);
        assert_eq!(x.causes[1].event.kind, JournalKind::IntentParked);
        assert_eq!(x.causes[1].event.intent, Some(5));
    }

    #[test]
    fn one_verdict_vocabulary() {
        use Freshness::{Fresh, Stale, Unreachable};
        assert_eq!(verdict(&[], false), "fresh");
        assert_eq!(verdict(&[Fresh, Stale(2), Fresh], false), "stale(epoch 2)");
        assert_eq!(verdict(&[Stale(3), Stale(2)], false), "stale(epoch 2)");
        assert_eq!(verdict(&[Unreachable, Stale(2)], false), "unreachable");
        assert_eq!(verdict(&[Fresh], true), "violated, fresh");
    }

    #[test]
    fn a_subject_parses_from_the_shared_syntax() {
        let mut topo = Topology::new();
        topo.add_device("A");
        topo.add_device("B");
        assert_eq!(Subject::parse("intent:7", &topo), Ok(Subject::Intent(7)));
        assert_eq!(Subject::parse("B", &topo), Ok(Subject::Device(DeviceId(1))));
        assert_eq!(
            Subject::parse("intent:x", &topo),
            Err("bad intent id \"x\"".into())
        );
        assert_eq!(
            Subject::parse("C", &topo),
            Err("unknown device \"C\"".into())
        );
    }

    #[test]
    fn empty_journal_yields_empty_chain() {
        let x = explain(&[], Subject::Device(DeviceId(0)), "unreachable");
        assert!(x.causes.is_empty());
        assert!(x.to_text().contains("no journaled cause"));
    }
}

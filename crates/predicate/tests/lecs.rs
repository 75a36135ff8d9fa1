#![allow(clippy::needless_range_loop)] // bit-packing loops read clearer indexed
//! The LEC builder (§5.1): tables must partition the packet space,
//! respect priorities, merge identical actions and agree with
//! priority-ordered rule lookup. Destination-only cases run on every
//! backend; port matches need the BDD backend.

use proptest::prelude::*;
use tulkun_bdd::serial::PortablePred;
use tulkun_bdd::HeaderLayout;
use tulkun_netmodel::fib::Rewrite;
use tulkun_netmodel::fib::{Action, Fib, MatchSpec, Rule};
use tulkun_netmodel::topology::DeviceId;
use tulkun_netmodel::IpPrefix;
use tulkun_predicate::{lecs, lecs_in, BackendKind, BddBackend, DynBackend, PredicateBackend};

fn pfx(s: &str) -> IpPrefix {
    s.parse().unwrap()
}

fn fib_of(rules: impl IntoIterator<Item = (u32, MatchSpec, Action)>) -> Fib {
    let mut fib = Fib::new();
    for (priority, matches, action) in rules {
        fib.insert(Rule {
            priority,
            matches,
            action,
        });
    }
    fib
}

/// Runs `check` against a fresh backend of every kind.
fn on_every_backend(check: impl Fn(&mut DynBackend)) {
    for kind in BackendKind::CONCRETE {
        check(&mut DynBackend::new(kind, HeaderLayout::ipv4_tcp()));
    }
}

/// Classes must be disjoint and cover everything.
fn assert_partition<B: PredicateBackend>(be: &mut B, classes: &[(B::Pred, Action)]) {
    let mut union = be.falsum();
    for (i, (a, _)) in classes.iter().enumerate() {
        for (b, _) in &classes[i + 1..] {
            assert!(!be.intersects(*a, *b), "LECs overlap on {}", be.name());
        }
        union = be.or(union, *a);
    }
    assert_eq!(
        union,
        be.verum(),
        "LECs do not cover the packet space on {}",
        be.name()
    );
}

#[test]
fn lec_partitions_full_space() {
    let fib = fib_of([
        (
            20,
            MatchSpec::dst(pfx("10.0.0.0/24")),
            Action::fwd(DeviceId(1)),
        ),
        (
            10,
            MatchSpec::dst(pfx("10.0.0.0/16")),
            Action::fwd(DeviceId(2)),
        ),
    ]);
    on_every_backend(|be| {
        let classes = lecs(&fib, be);
        assert_partition(be, &classes);
        assert_eq!(classes.len(), 3); // /24 → dev1, /16 minus /24 → dev2, rest → drop
    });
}

#[test]
fn lec_respects_priority_shadowing() {
    // Low priority broad rule fully shadowed on the /24.
    let fib = fib_of([
        (
            5,
            MatchSpec::dst(pfx("10.0.0.0/24")),
            Action::fwd(DeviceId(9)),
        ),
        (50, MatchSpec::dst(pfx("10.0.0.0/24")), Action::Drop),
    ]);
    on_every_backend(|be| {
        // The /24 must be dropped; device 9 never appears.
        assert!(lecs(&fib, be)
            .iter()
            .all(|(_, a)| a.device_next_hops() != vec![DeviceId(9)]));
    });
}

#[test]
fn lec_merges_identical_actions() {
    let fib = fib_of([
        (
            10,
            MatchSpec::dst(pfx("10.0.0.0/24")),
            Action::fwd(DeviceId(1)),
        ),
        (
            10,
            MatchSpec::dst(pfx("10.0.1.0/24")),
            Action::fwd(DeviceId(1)),
        ),
    ]);
    on_every_backend(|be| {
        let classes = lecs(&fib, be);
        assert_eq!(classes.len(), 2); // merged class + default drop
        let got = classes.iter().find(|(_, a)| *a != Action::Drop).unwrap().0;
        // Handles are canonical: the merged class *is* the /23.
        assert_eq!(got, be.match_pred(&MatchSpec::dst(pfx("10.0.0.0/23"))));
    });
}

#[test]
fn empty_fib_drops_everything() {
    on_every_backend(|be| {
        let classes = lecs(&Fib::new(), be);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].1, Action::Drop);
        assert_eq!(classes[0].0, be.verum());
    });
}

#[test]
fn port_match_refines_classes() {
    let mut be = BddBackend::new(HeaderLayout::ipv4_tcp());
    let fib = fib_of([
        (
            20,
            MatchSpec::dst(pfx("10.0.1.0/24")).with_port(80),
            Action::fwd(DeviceId(1)),
        ),
        (
            10,
            MatchSpec::dst(pfx("10.0.1.0/24")),
            Action::fwd(DeviceId(2)),
        ),
    ]);
    let classes = lecs(&fib, &mut be);
    assert_eq!(classes.len(), 3);
    // Port-80 class is a strict subset of the /24 predicate.
    let p24 = be.match_pred(&MatchSpec::dst(pfx("10.0.1.0/24")));
    let c80 = classes
        .iter()
        .find(|(_, a)| *a == Action::fwd(DeviceId(1)))
        .unwrap()
        .0;
    assert!(be.manager_mut().implies(c80, p24));
    assert_ne!(c80, p24);
}

/// Counts the rules a builder compiles (`match_pred` calls) on the way
/// to the wrapped backend — work done, whatever the host's clock says.
struct Counting<B> {
    inner: B,
    compiled: usize,
}

impl<B: PredicateBackend> PredicateBackend for Counting<B> {
    type Pred = B::Pred;

    fn falsum(&self) -> B::Pred {
        self.inner.falsum()
    }
    fn verum(&self) -> B::Pred {
        self.inner.verum()
    }
    fn and(&mut self, a: B::Pred, b: B::Pred) -> B::Pred {
        self.inner.and(a, b)
    }
    fn or(&mut self, a: B::Pred, b: B::Pred) -> B::Pred {
        self.inner.or(a, b)
    }
    fn diff(&mut self, a: B::Pred, b: B::Pred) -> B::Pred {
        self.inner.diff(a, b)
    }
    fn is_false(&self, p: B::Pred) -> bool {
        self.inner.is_false(p)
    }
    fn intersects(&mut self, a: B::Pred, b: B::Pred) -> bool {
        self.inner.intersects(a, b)
    }
    fn match_pred(&mut self, m: &MatchSpec) -> B::Pred {
        self.compiled += 1;
        self.inner.match_pred(m)
    }
    fn rewrite_image(&mut self, p: B::Pred, rw: &Rewrite) -> B::Pred {
        self.inner.rewrite_image(p, rw)
    }
    fn rewrite_preimage(&mut self, q: B::Pred, rw: &Rewrite) -> B::Pred {
        self.inner.rewrite_preimage(q, rw)
    }
    fn import(&mut self, p: &PortablePred) -> B::Pred {
        self.inner.import(p)
    }
    fn export(&self, p: B::Pred) -> PortablePred {
        self.inner.export(p)
    }
    fn mem_units(&self) -> usize {
        self.inner.mem_units()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A FIB burst costs the rules it overlaps, not the table: on a
/// 1 000-rule FIB the LEC delta of a 1–16 update burst compiles at most
/// the burst itself plus the rules whose prefix overlaps it — and what
/// it derives is the from-scratch table restricted to the region. This
/// is the deterministic gate for the write path (`handle_fib_batch`
/// compiles rules nowhere else; `ci.sh lint` holds that).
#[test]
fn lec_delta_compiles_only_overlapping_rules() {
    // 1 000 /24s under 10.0.0.0/8, four of them under every /22, over a
    // default route and a few aggregates.
    let mut rules: Vec<(u32, MatchSpec, Action)> = (0..1000u32)
        .map(|i| {
            let prefix = IpPrefix::new(0x0A00_0000 | (i << 8), 24);
            (24, MatchSpec::dst(prefix), Action::fwd(DeviceId(i % 7)))
        })
        .collect();
    rules.push((0, MatchSpec::dst(pfx("0.0.0.0/0")), Action::deliver()));
    rules.push((8, MatchSpec::dst(pfx("10.0.0.0/8")), Action::Drop));
    rules.push((
        16,
        MatchSpec::dst(pfx("10.1.0.0/16")),
        Action::fwd(DeviceId(9)),
    ));
    let fib = fib_of(rules);
    for kind in BackendKind::CONCRETE {
        let mut be = Counting {
            inner: DynBackend::new(kind, HeaderLayout::ipv4_tcp()),
            compiled: 0,
        };
        let table = lecs(&fib, &mut be);
        assert_eq!(
            be.compiled,
            fib.len() + 1,
            "{kind}: a full build compiles the table"
        );
        for burst in [1usize, 4, 16] {
            // Touch every 61st /24 (spread over the table) and one /22.
            let mut touched: Vec<MatchSpec> = (0..burst as u32 - 1)
                .map(|k| MatchSpec::dst(IpPrefix::new(0x0A00_0000 | ((k * 61 + 5) << 8), 24)))
                .collect();
            touched.push(MatchSpec::dst(pfx("10.2.4.0/22")));
            let overlapping = fib
                .rules()
                .iter()
                .filter(|r| touched.iter().any(|m| m.dst.overlaps(&r.matches.dst)))
                .count();
            assert!(
                overlapping <= 3 * burst + 6,
                "{kind}: test FIB is not sparse"
            );
            be.compiled = 0;
            let (region, fresh) = lecs_in(&fib, &touched, &mut be);
            assert!(
                be.compiled <= overlapping + burst,
                "{kind}: burst of {burst} compiled {} rules, {overlapping} overlap it",
                be.compiled
            );
            // Bit-identical to the full table inside the region.
            for (class, action) in &table {
                let expect = be.and(*class, region);
                let got = fresh.iter().find(|(_, a)| a == action).map(|(p, _)| *p);
                assert_eq!(got.unwrap_or(be.falsum()), expect, "{kind}: {action:?}");
            }
        }
    }
}

fn random_fib() -> impl Strategy<Value = Fib> {
    proptest::collection::vec(
        (
            0u32..4,
            16u8..28,
            0u32..40,
            0u32..5,
            proptest::option::of(0u16..100),
        ),
        1..12,
    )
    .prop_map(|rules| {
        fib_of(rules.into_iter().map(|(prio, plen, net, act, port)| {
            // Prefixes inside 10.0.0.0/8 with varying length.
            let addr = 0x0A00_0000u32 | (net << 12);
            let mut matches = MatchSpec::dst(IpPrefix::new(addr, plen));
            if let Some(p) = port {
                matches = matches.with_port(p);
            }
            let action = match act {
                0 => Action::Drop,
                1 => Action::deliver(),
                2 => Action::fwd(DeviceId(1)),
                3 => Action::fwd_all([DeviceId(1), DeviceId(2)]),
                _ => Action::fwd_any([DeviceId(2), DeviceId(3)]),
            };
            (prio, matches, action)
        }))
    })
}

proptest! {
    #[test]
    fn lecs_partition_and_agree_with_lookup(fib in random_fib(), probes in proptest::collection::vec((any::<u32>(), any::<u16>()), 16)) {
        let layout = HeaderLayout::ipv4_tcp();
        let mut be = BddBackend::new(layout);
        let classes = lecs(&fib, &mut be);
        assert_partition(&mut be, &classes);

        // Each probe packet's LEC action equals priority-ordered lookup.
        let m = be.manager_mut();
        for (ip, port) in probes {
            let ip = 0x0A00_0000 | (ip & 0x00FF_FFFF); // inside 10/8
            let mut bits = vec![false; layout.num_vars() as usize];
            for i in 0..32 {
                bits[i] = (ip >> (31 - i)) & 1 == 1;
            }
            for i in 0..16 {
                bits[32 + i] = (port >> (15 - i)) & 1 == 1;
            }
            let expected = fib.lookup(m, &layout, &bits);
            let via_lec = classes
                .iter()
                .find(|(p, _)| m.eval(*p, &bits))
                .map(|(_, a)| a.clone())
                .unwrap();
            prop_assert_eq!(expected, via_lec);
        }
    }
}

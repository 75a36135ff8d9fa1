//! Ready-made constructors for every invariant family in the paper's
//! Table 1.
//!
//! Each constructor returns a complete [`Invariant`] given a packet space
//! and the device names it mentions. Names are validated against the
//! topology when the invariant is planned.

use super::{Behavior, Invariant, PacketSpace, PathExpr, SpecError};
use crate::count::CountExpr;
use tulkun_netmodel::{DeviceId, Topology};

fn pe(src: &str) -> Result<PathExpr, SpecError> {
    PathExpr::parse(src)
}

/// Reachability: `(P, [S], (exist >= 1, S .* D))`.
pub fn reachability(ps: PacketSpace, src: &str, dst: &str) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("reachability {src}->{dst}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            pe(&format!("{src} .* {dst}"))?.loop_free(),
        ))
        .build()
}

/// Isolation: `(P, [S], (exist == 0, S .* D))`.
pub fn isolation(ps: PacketSpace, src: &str, dst: &str) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("isolation {src}-x->{dst}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::exist(
            CountExpr::eq(0),
            pe(&format!("{src} .* {dst}"))?.loop_free(),
        ))
        .build()
}

/// Loop-freeness: every trace is a simple path. Expressed as coverage of
/// the loop-free path set (equivalent to Table 1's `exist == 0` over the
/// looping-path expression, which is exponential as a regex).
pub fn loop_freeness(ps: PacketSpace, src: &str) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("loop-freeness from {src}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::covered(pe(&format!("{src} .*"))?.loop_free()))
        .build()
}

/// Blackhole-freeness: `(P, [S], (exist == 0, .* and not S.*D))` — every
/// trace reaches `dst`, i.e. coverage of `S .* D`.
pub fn blackhole_freeness(ps: PacketSpace, src: &str, dst: &str) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("blackhole-freeness {src}->{dst}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::covered(
            pe(&format!("{src} .* {dst}"))?.loop_free(),
        ))
        .build()
}

/// Waypoint reachability: `(P, [S], (exist >= 1, S .* W .* D))`.
pub fn waypoint(ps: PacketSpace, src: &str, wp: &str, dst: &str) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("waypoint {src}->{wp}->{dst}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            pe(&format!("{src} .* {wp} .* {dst}"))?.loop_free(),
        ))
        .build()
}

/// Reachability with limited path length:
/// `(P, [S], (exist >= 1, SD | S.D | S..D))`.
pub fn limited_length_reachability(
    ps: PacketSpace,
    src: &str,
    dst: &str,
    max_hops: u32,
) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("reachability {src}->{dst} within {max_hops} hops"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::exist(
            CountExpr::ge(1),
            pe(&format!("{src} .* {dst}"))?
                .loop_free()
                .max_hops(max_hops),
        ))
        .build()
}

/// Different-ingress same reachability:
/// `(P, [X, Y], (exist >= 1, X.*D | Y.*D))`.
pub fn different_ingress_reachability(
    ps: PacketSpace,
    ingresses: &[&str],
    dst: &str,
) -> Result<Invariant, SpecError> {
    let alts = ingresses
        .iter()
        .map(|i| format!("{i} .* {dst}"))
        .collect::<Vec<_>>()
        .join(" | ");
    Invariant::builder()
        .name(format!("different-ingress reachability ->{dst}"))
        .packet_space(ps)
        .ingress(ingresses.iter().copied())
        .behavior(Behavior::exist(CountExpr::ge(1), pe(&alts)?.loop_free()))
        .build()
}

/// All-shortest-path availability (Azure RCDC):
/// `(P, [S], (equal, (S.*D, == shortest)))`.
pub fn all_shortest_path(ps: PacketSpace, src: &str, dst: &str) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("all-shortest-path {src}->{dst}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::equal(
            pe(&format!("{src} .* {dst}"))?.shortest_only(),
        ))
        .build()
}

/// Non-redundant reachability: `(P, [S], (exist == 1, S .* D))` —
/// exactly one copy delivered in every universe.
pub fn non_redundant_reachability(
    ps: PacketSpace,
    src: &str,
    dst: &str,
) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("non-redundant reachability {src}->{dst}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::exist(
            CountExpr::eq(1),
            pe(&format!("{src} .* {dst}"))?.loop_free(),
        ))
        .build()
}

/// 1+1 protection routing (§10 lists it among the invariants
/// centralized tools lack): at least two copies of every packet are
/// delivered in every universe.
pub fn one_plus_one(ps: PacketSpace, src: &str, dst: &str) -> Result<Invariant, SpecError> {
    Invariant::builder()
        .name(format!("1+1 routing {src}->{dst}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(Behavior::exist(
            CountExpr::ge(2),
            pe(&format!("{src} .* {dst}"))?.loop_free(),
        ))
        .build()
}

/// Multicast: `(P, [S], (exist >= 1, S.*D) and (exist >= 1, S.*E))`.
pub fn multicast(ps: PacketSpace, src: &str, dsts: &[&str]) -> Result<Invariant, SpecError> {
    let mut parts = dsts.iter().map(|d| {
        pe(&format!("{src} .* {d}")).map(|p| Behavior::exist(CountExpr::ge(1), p.loop_free()))
    });
    let first = parts
        .next()
        .ok_or_else(|| SpecError("multicast needs a destination".into()))??;
    let behavior = parts.try_fold(first, |acc, b| b.map(|b| acc.and(b)))?;
    Invariant::builder()
        .name(format!("multicast {src}->{dsts:?}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(behavior)
        .build()
}

/// Anycast to exactly one of two destinations:
/// `((exist >= 1, S.*D) and (exist == 0, S.*E)) or
///  ((exist == 0, S.*D) and (exist == 1, S.*E))`.
pub fn anycast(ps: PacketSpace, src: &str, d1: &str, d2: &str) -> Result<Invariant, SpecError> {
    let pd = pe(&format!("{src} .* {d1}"))?.loop_free();
    let qd = pe(&format!("{src} .* {d2}"))?.loop_free();
    let case1 = Behavior::exist(CountExpr::ge(1), pd.clone())
        .and(Behavior::exist(CountExpr::eq(0), qd.clone()));
    let case2 = Behavior::exist(CountExpr::eq(0), pd).and(Behavior::exist(CountExpr::eq(1), qd));
    Invariant::builder()
        .name(format!("anycast {src}->{d1}|{d2}"))
        .packet_space(ps)
        .ingress([src])
        .behavior(case1.or(case2))
        .build()
}

/// The per-destination invariant of the §9.3.1 WAN/LAN workload: every
/// device but `dst` delivers the prefixes `dst` announces — at least
/// one copy, and no trace escaping — along loop-free paths at most two
/// hops longer than the shortest. All-pair reachability is one per
/// announcing device; the daemon's session is the first one's.
pub fn subset_reachability_to(topo: &Topology, dst: DeviceId) -> Result<Invariant, SpecError> {
    let dst_name = topo.name(dst);
    let prefixes = topo.external_prefixes(dst).iter();
    let ps = prefixes
        .map(|p| PacketSpace::DstPrefix(*p))
        .reduce(PacketSpace::or)
        .ok_or_else(|| SpecError(format!("{dst_name} announces no prefix")))?;
    let path = pe(&format!(". * {dst_name}"))?.loop_free().shortest_plus(2);
    Invariant::builder()
        .name(format!("subset reachability -> {dst_name}"))
        .packet_space(ps)
        .ingress(topo.devices().filter(|d| *d != dst).map(|d| topo.name(d)))
        .behavior(Behavior::exist(CountExpr::ge(1), path.clone()).and(Behavior::covered(path)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultSpec;

    fn ps() -> PacketSpace {
        PacketSpace::dst_prefix("10.0.0.0/23")
    }

    #[test]
    fn all_constructors_build() {
        reachability(ps(), "S", "D").unwrap();
        isolation(ps(), "S", "D").unwrap();
        loop_freeness(ps(), "S").unwrap();
        blackhole_freeness(ps(), "S", "D").unwrap();
        waypoint(ps(), "S", "W", "D").unwrap();
        limited_length_reachability(ps(), "S", "D", 3).unwrap();
        different_ingress_reachability(ps(), &["X", "Y"], "D").unwrap();
        all_shortest_path(ps(), "S", "D").unwrap();
        non_redundant_reachability(ps(), "S", "D").unwrap();
        multicast(ps(), "S", &["D", "E"]).unwrap();
        anycast(ps(), "S", "D", "E").unwrap();
    }

    #[test]
    fn one_plus_one_builds() {
        let inv = one_plus_one(ps(), "S", "D").unwrap();
        let Behavior::Exist { count, .. } = &inv.behavior else {
            panic!()
        };
        assert_eq!(*count, CountExpr::Ge(2));
    }

    #[test]
    fn anycast_has_two_path_exprs() {
        let inv = anycast(ps(), "S", "D", "E").unwrap();
        assert_eq!(inv.behavior.path_exprs().len(), 2);
        assert!(!inv.behavior.has_equal());
    }

    #[test]
    fn all_shortest_path_is_equal_behavior() {
        let inv = all_shortest_path(ps(), "S", "D").unwrap();
        assert!(inv.behavior.has_equal());
        assert_eq!(inv.fault_scenes, FaultSpec::None);
    }

    #[test]
    fn multicast_requires_destinations() {
        assert!(multicast(ps(), "S", &[]).is_err());
    }
}

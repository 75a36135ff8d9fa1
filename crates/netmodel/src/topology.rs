//! Devices, links and the external-port prefix mapping.

use crate::prefix::IpPrefix;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use tulkun_json::{FromJson, Json, JsonError, ToJson};

/// A network device (switch/router), identified by a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Index as usize, for direct indexing into per-device vectors.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An undirected link between two devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub u32);

/// Link record: endpoints and propagation latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// One endpoint.
    pub a: DeviceId,
    /// The other endpoint.
    pub b: DeviceId,
    /// One-way propagation latency in nanoseconds.
    pub latency_ns: u64,
}

impl Link {
    /// The endpoint opposite `d` (panics if `d` is not an endpoint).
    pub fn other(&self, d: DeviceId) -> DeviceId {
        if self.a == d {
            self.b
        } else {
            assert_eq!(self.b, d, "device not on link");
            self.a
        }
    }
}

/// The network topology: devices, named; links with latencies; and the
/// `(device, IP prefix)` mapping for external ports (§3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    names: Vec<String>,
    by_name: HashMap<String, DeviceId>,
    links: Vec<Link>,
    adj: Vec<Vec<(DeviceId, LinkId)>>,
    /// Ordered so `external_map()` iterates deterministically — callers
    /// pick "the first destination" and must get the same one each run.
    external: BTreeMap<DeviceId, Vec<IpPrefix>>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a device; returns its id. Panics on duplicate names.
    pub fn add_device(&mut self, name: impl Into<String>) -> DeviceId {
        let name = name.into();
        assert!(!self.by_name.contains_key(&name), "duplicate device {name}");
        let id = DeviceId(self.names.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected link with the given propagation latency.
    pub fn add_link(&mut self, a: DeviceId, b: DeviceId, latency_ns: u64) -> LinkId {
        assert_ne!(a, b, "self links not allowed");
        assert!(
            self.link_between(a, b).is_none(),
            "duplicate link {} - {}",
            self.name(a),
            self.name(b)
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { a, b, latency_ns });
        self.adj[a.idx()].push((b, id));
        self.adj[b.idx()].push((a, id));
        id
    }

    /// Declares that `prefix` is reachable via an external port of `dev`.
    pub fn add_external_prefix(&mut self, dev: DeviceId, prefix: IpPrefix) {
        self.external.entry(dev).or_default().push(prefix);
    }

    /// Device count.
    pub fn num_devices(&self) -> usize {
        self.names.len()
    }

    /// Link count.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// All device ids.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.names.len() as u32).map(DeviceId)
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link record by id.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Device name.
    pub fn name(&self, d: DeviceId) -> &str {
        &self.names[d.idx()]
    }

    /// Device id by name.
    pub fn device(&self, name: &str) -> Option<DeviceId> {
        self.by_name.get(name).copied()
    }

    /// Device id by name, panicking with a useful message if absent.
    pub fn expect_device(&self, name: &str) -> DeviceId {
        self.device(name)
            .unwrap_or_else(|| panic!("no device named {name:?} in topology"))
    }

    /// Neighbors of a device with the connecting link.
    pub fn neighbors(&self, d: DeviceId) -> &[(DeviceId, LinkId)] {
        &self.adj[d.idx()]
    }

    /// The link between two devices, if any.
    pub fn link_between(&self, a: DeviceId, b: DeviceId) -> Option<LinkId> {
        self.adj[a.idx()]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, l)| *l)
    }

    /// External prefixes announced at a device.
    pub fn external_prefixes(&self, d: DeviceId) -> &[IpPrefix] {
        self.external.get(&d).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(device, prefix)` external-port pairs.
    pub fn external_map(&self) -> impl Iterator<Item = (DeviceId, IpPrefix)> + '_ {
        self.external
            .iter()
            .flat_map(|(d, ps)| ps.iter().map(move |p| (*d, *p)))
    }

    /// Devices that announce a prefix covering `prefix`.
    pub fn devices_covering(&self, prefix: &IpPrefix) -> Vec<DeviceId> {
        let mut out: Vec<DeviceId> = self
            .external
            .iter()
            .filter(|(_, ps)| ps.iter().any(|p| p.overlaps(prefix)))
            .map(|(d, _)| *d)
            .collect();
        out.sort();
        out
    }

    /// Hop distances from `src` by BFS, ignoring links in `down`.
    /// Unreachable devices get `u32::MAX`.
    pub fn bfs_hops(&self, src: DeviceId, down: &[LinkId]) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_devices()];
        let mut queue = std::collections::VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src);
        while let Some(d) = queue.pop_front() {
            for &(n, l) in &self.adj[d.idx()] {
                if down.contains(&l) || dist[n.idx()] != u32::MAX {
                    continue;
                }
                dist[n.idx()] = dist[d.idx()] + 1;
                queue.push_back(n);
            }
        }
        dist
    }

    /// Latency distances (ns) from `src` by Dijkstra over link latencies,
    /// ignoring links in `down`.
    pub fn dijkstra_latency(&self, src: DeviceId, down: &[LinkId]) -> Vec<u64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![u64::MAX; self.num_devices()];
        let mut heap = BinaryHeap::new();
        dist[src.idx()] = 0;
        heap.push(Reverse((0u64, src)));
        while let Some(Reverse((cost, d))) = heap.pop() {
            if cost > dist[d.idx()] {
                continue;
            }
            for &(n, l) in &self.adj[d.idx()] {
                if down.contains(&l) {
                    continue;
                }
                let next = cost + self.link(l).latency_ns;
                if next < dist[n.idx()] {
                    dist[n.idx()] = next;
                    heap.push(Reverse((next, n)));
                }
            }
        }
        dist
    }

    /// Network diameter in hops (max finite BFS distance over all pairs).
    pub fn diameter_hops(&self) -> u32 {
        self.devices()
            .map(|d| {
                self.bfs_hops(d, &[])
                    .into_iter()
                    .filter(|&h| h != u32::MAX)
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// Is the graph connected when the given links are removed?
    pub fn connected_without(&self, down: &[LinkId]) -> bool {
        if self.num_devices() == 0 {
            return true;
        }
        let dist = self.bfs_hops(DeviceId(0), down);
        dist.iter().all(|&d| d != u32::MAX)
    }
}

impl ToJson for DeviceId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for DeviceId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(DeviceId)
    }
}

impl ToJson for LinkId {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for LinkId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(LinkId)
    }
}

tulkun_json::impl_json_object!(Link { a, b, latency_ns });

impl ToJson for Topology {
    fn to_json(&self) -> Json {
        // The by-name index and adjacency lists are derived state and
        // rebuilt on load; external ports iterate sorted by device, so
        // the serialized output is deterministic.
        let external: Vec<(DeviceId, Vec<IpPrefix>)> = self
            .external
            .iter()
            .map(|(d, ps)| (*d, ps.clone()))
            .collect();
        Json::Object(vec![
            ("names".to_string(), self.names.to_json()),
            ("links".to_string(), self.links.to_json()),
            ("external".to_string(), external.to_json()),
        ])
    }
}

impl FromJson for Topology {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| v.get(name).ok_or_else(|| JsonError::missing_field(name));
        let names: Vec<String> = FromJson::from_json(field("names")?)?;
        let links: Vec<Link> = FromJson::from_json(field("links")?)?;
        let external: Vec<(DeviceId, Vec<IpPrefix>)> = FromJson::from_json(field("external")?)?;
        let mut t = Topology::new();
        for name in names {
            t.add_device(name);
        }
        for l in &links {
            if l.a.idx() >= t.num_devices() || l.b.idx() >= t.num_devices() {
                return Err(JsonError::new("link endpoint out of range"));
            }
            t.add_link(l.a, l.b, l.latency_ns);
        }
        for (d, ps) in external {
            if d.idx() >= t.num_devices() {
                return Err(JsonError::new("external device out of range"));
            }
            for p in ps {
                t.add_external_prefix(d, p);
            }
        }
        Ok(t)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology({} devices, {} links, {} external prefixes)",
            self.num_devices(),
            self.num_links(),
            self.external.values().map(Vec::len).sum::<usize>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Topology, [DeviceId; 4]) {
        // s - a - d and s - b - d
        let mut t = Topology::new();
        let s = t.add_device("S");
        let a = t.add_device("A");
        let b = t.add_device("B");
        let d = t.add_device("D");
        t.add_link(s, a, 10);
        t.add_link(s, b, 10);
        t.add_link(a, d, 10);
        t.add_link(b, d, 30);
        (t, [s, a, b, d])
    }

    #[test]
    fn names_and_lookup() {
        let (t, [s, ..]) = diamond();
        assert_eq!(t.name(s), "S");
        assert_eq!(t.device("S"), Some(s));
        assert_eq!(t.device("Z"), None);
        assert_eq!(t.num_devices(), 4);
        assert_eq!(t.num_links(), 4);
    }

    #[test]
    fn neighbors_and_links() {
        let (t, [s, a, b, d]) = diamond();
        let ns: Vec<DeviceId> = t.neighbors(s).iter().map(|(n, _)| *n).collect();
        assert_eq!(ns, vec![a, b]);
        assert!(t.link_between(s, a).is_some());
        assert!(t.link_between(s, d).is_none());
        let l = t.link_between(a, d).unwrap();
        assert_eq!(t.link(l).other(a), d);
    }

    #[test]
    fn bfs_and_dijkstra_disagree_when_latencies_do() {
        let (t, [s, _, _, d]) = diamond();
        let hops = t.bfs_hops(s, &[]);
        assert_eq!(hops[d.idx()], 2);
        let lat = t.dijkstra_latency(s, &[]);
        assert_eq!(lat[d.idx()], 20); // via a, not the 40ns path via b
    }

    #[test]
    fn bfs_respects_down_links() {
        let (t, [s, a, _, d]) = diamond();
        let l = t.link_between(a, d).unwrap();
        let hops = t.bfs_hops(s, &[l]);
        assert_eq!(hops[d.idx()], 2); // still reachable via b
        let l2 = t.link_between(s, a).unwrap();
        let l3 = t.link_between(s, t.device("B").unwrap()).unwrap();
        let hops = t.bfs_hops(s, &[l2, l3]);
        assert_eq!(hops[d.idx()], u32::MAX);
        assert!(!t.connected_without(&[l2, l3]));
        assert!(t.connected_without(&[l]));
    }

    #[test]
    fn external_prefix_mapping() {
        let (mut t, [_, _, _, d]) = diamond();
        let p: IpPrefix = "10.0.0.0/23".parse().unwrap();
        t.add_external_prefix(d, p);
        assert_eq!(t.external_prefixes(d), &[p]);
        let q: IpPrefix = "10.0.1.0/24".parse().unwrap();
        assert_eq!(t.devices_covering(&q), vec![d]);
        let r: IpPrefix = "10.9.0.0/16".parse().unwrap();
        assert!(t.devices_covering(&r).is_empty());
    }

    #[test]
    fn diameter() {
        let (t, _) = diamond();
        assert_eq!(t.diameter_hops(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate device")]
    fn duplicate_device_panics() {
        let mut t = Topology::new();
        t.add_device("X");
        t.add_device("X");
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_panics() {
        let mut t = Topology::new();
        let a = t.add_device("A");
        let b = t.add_device("B");
        t.add_link(a, b, 1);
        t.add_link(b, a, 1);
    }
}

//! Communication topologies for sparse message-passing systems.
//!
//! The postal model MPS(n, λ) of the paper assumes a *complete*
//! communication graph: any processor may send to any other. Real
//! fleets are sparse. This module introduces the [`Topology`] oracle —
//! a formula-backed graph over the processors `0..n` exposing
//! [`Topology::is_edge`], [`Topology::degree`], [`Topology::neighbors`]
//! and a BFS distance/eccentricity oracle — together with the compact
//! [`TopologySpec`] string codec used by `postal-cli --topology`:
//!
//! | spec          | graph                                             |
//! |---------------|---------------------------------------------------|
//! | `complete`    | the paper's MPS(n, λ): every pair is an edge      |
//! | `ring`        | bidirectional cycle `0 – 1 – … – (n−1) – 0`       |
//! | `torus:RxC`   | 2-D wraparound grid, `R·C = n`                    |
//! | `hypercube:D` | D-dimensional binary hypercube, `2^D = n`         |
//! | `mbg:N`       | bounded-degree broadcast graph (Knödel graph       |
//! |               | `W_{⌊log₂N⌋,N}`, even `N`), after arXiv:1312.1523 |
//!
//! Every topology is *formula-backed*: adjacency is decided
//! arithmetically from the spec, so a `Topology` is a few words of
//! `Copy` data with no adjacency lists — `is_edge` is O(1) on every
//! graph and the whole oracle is free to embed in the linter.
//!
//! The graph-theoretic broadcast lower bound used by lint code `P0018`
//! is `(m−1) + λ·ecc(originator)`: a message reaching a processor at
//! BFS distance `d` traverses `d` edges and each hop costs λ, the
//! sparse-graph analogue of the paper's Lemma 8 bound
//! `(m−1) + f_λ(n)`. See `docs/topology.md` for the derivation.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// BFS distance sentinel: the processor cannot be reached at all.
pub const UNREACHABLE: u32 = u32::MAX;

/// A parsed `--topology` spec — the codec half of the subsystem.
///
/// A spec is *shape* only; it is bound to a concrete processor count by
/// [`TopologySpec::instantiate`], which validates that the shape fits
/// (`torus:RxC` needs `R·C = n`, `hypercube:D` needs `2^D = n`,
/// `mbg:N` needs `N = n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TopologySpec {
    /// The paper's complete graph: every ordered pair is an edge.
    Complete,
    /// A bidirectional ring over however many processors are present.
    Ring,
    /// A 2-D torus with the given number of rows and columns.
    Torus {
        /// Grid rows (`R` in `torus:RxC`).
        rows: u32,
        /// Grid columns (`C` in `torus:RxC`).
        cols: u32,
    },
    /// A binary hypercube of the given dimension.
    Hypercube {
        /// Dimension (`D` in `hypercube:D`); the graph has `2^D` nodes.
        dim: u32,
    },
    /// A bounded-degree minimum-broadcast-graph construction: the
    /// Knödel graph `W_{⌊log₂N⌋,N}` on an even number of processors.
    Mbg {
        /// Processor count (`N` in `mbg:N`); must be even and ≥ 2.
        n: u32,
    },
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologySpec::Complete => write!(f, "complete"),
            TopologySpec::Ring => write!(f, "ring"),
            TopologySpec::Torus { rows, cols } => write!(f, "torus:{rows}x{cols}"),
            TopologySpec::Hypercube { dim } => write!(f, "hypercube:{dim}"),
            TopologySpec::Mbg { n } => write!(f, "mbg:{n}"),
        }
    }
}

/// A malformed spec string or a shape/processor-count mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    message: String,
}

impl TopologyError {
    fn new(message: String) -> TopologyError {
        TopologyError { message }
    }
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TopologyError {}

fn parse_dim(spec: &str, what: &str, text: &str) -> Result<u32, TopologyError> {
    text.parse::<u32>().map_err(|_| {
        TopologyError::new(format!(
            "topology '{spec}': {what} '{text}' is not a number"
        ))
    })
}

impl FromStr for TopologySpec {
    type Err = TopologyError;

    fn from_str(s: &str) -> Result<TopologySpec, TopologyError> {
        match s {
            "complete" => return Ok(TopologySpec::Complete),
            "ring" => return Ok(TopologySpec::Ring),
            _ => {}
        }
        if let Some(dims) = s.strip_prefix("torus:") {
            let Some((r, c)) = dims.split_once('x') else {
                return Err(TopologyError::new(format!(
                    "topology '{s}': expected torus:RxC (e.g. torus:4x8)"
                )));
            };
            let rows = parse_dim(s, "row count", r)?;
            let cols = parse_dim(s, "column count", c)?;
            if rows == 0 || cols == 0 {
                return Err(TopologyError::new(format!(
                    "topology '{s}': torus dimensions must be at least 1"
                )));
            }
            return Ok(TopologySpec::Torus { rows, cols });
        }
        if let Some(d) = s.strip_prefix("hypercube:") {
            let dim = parse_dim(s, "dimension", d)?;
            if dim > 30 {
                return Err(TopologyError::new(format!(
                    "topology '{s}': dimension {dim} exceeds the 2^30-processor cap"
                )));
            }
            return Ok(TopologySpec::Hypercube { dim });
        }
        if let Some(num) = s.strip_prefix("mbg:") {
            let n = parse_dim(s, "processor count", num)?;
            if n < 2 || n % 2 != 0 {
                return Err(TopologyError::new(format!(
                    "topology '{s}': the Knödel construction needs an even \
                     processor count of at least 2"
                )));
            }
            return Ok(TopologySpec::Mbg { n });
        }
        Err(TopologyError::new(format!(
            "unknown topology '{s}': expected complete, ring, torus:RxC, \
             hypercube:D, or mbg:N"
        )))
    }
}

impl TopologySpec {
    /// Binds the spec to `n` processors, validating the shape fits.
    ///
    /// # Errors
    /// Returns [`TopologyError`] when the spec's implied size disagrees
    /// with `n` (e.g. `torus:4x8` over anything but 32 processors) or
    /// `n == 0`.
    pub fn instantiate(&self, n: u32) -> Result<Topology, TopologyError> {
        if n == 0 {
            return Err(TopologyError::new(format!(
                "topology '{self}': a system needs at least 1 processor"
            )));
        }
        let implied = match *self {
            TopologySpec::Complete | TopologySpec::Ring => n,
            TopologySpec::Torus { rows, cols } => rows
                .checked_mul(cols)
                .ok_or_else(|| TopologyError::new(format!("topology '{self}': R*C overflows")))?,
            TopologySpec::Hypercube { dim } => 1u32 << dim,
            TopologySpec::Mbg { n } => n,
        };
        if implied != n {
            return Err(TopologyError::new(format!(
                "topology '{self}' describes {implied} processor(s) but the \
                 system has {n}"
            )));
        }
        Ok(Topology { spec: *self, n })
    }
}

/// A concrete communication graph over the processors `0..n`.
///
/// Built by [`TopologySpec::instantiate`]. All queries are answered
/// arithmetically from the spec — the oracle stores no adjacency and is
/// `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    spec: TopologySpec,
    n: u32,
}

/// Ring adjacency within one cyclic dimension of size `k`.
fn cycle_adjacent(a: u32, b: u32, k: u32) -> bool {
    if a == b {
        return false;
    }
    let diff = a.abs_diff(b);
    diff == 1 || diff == k - 1
}

impl Topology {
    /// The complete graph on `n` processors — the paper's MPS(n, λ).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn complete(n: u32) -> Topology {
        TopologySpec::Complete
            .instantiate(n)
            .expect("complete graph fits any n >= 1")
    }

    /// Number of processors.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The spec this topology was built from (for messages/rendering).
    pub fn spec(&self) -> TopologySpec {
        self.spec
    }

    /// `true` for the complete graph, where every lint falls back to
    /// the paper's complete-graph rules and the topology passes are
    /// vacuous by construction.
    pub fn is_complete(&self) -> bool {
        matches!(self.spec, TopologySpec::Complete)
    }

    /// Whether `{u, v}` is an edge. Out-of-range endpoints and
    /// self-loops are never edges.
    pub fn is_edge(&self, u: u32, v: u32) -> bool {
        if u >= self.n || v >= self.n || u == v {
            return false;
        }
        match self.spec {
            TopologySpec::Complete => true,
            TopologySpec::Ring => cycle_adjacent(u, v, self.n),
            TopologySpec::Torus { rows, cols } => {
                let (r1, c1) = (u / cols, u % cols);
                let (r2, c2) = (v / cols, v % cols);
                (r1 == r2 && cycle_adjacent(c1, c2, cols))
                    || (c1 == c2 && cycle_adjacent(r1, r2, rows))
            }
            TopologySpec::Hypercube { .. } => (u ^ v).count_ones() == 1,
            TopologySpec::Mbg { .. } => {
                // Knödel W_{Δ,n}: vertex 2j is (1, j), vertex 2j+1 is
                // (2, j); (1, j) – (2, (j + 2^k − 1) mod n/2) for
                // 0 ≤ k < Δ = ⌊log₂ n⌋. Every offset 2^k − 1 is below
                // 2^(Δ−1) ≤ n/2, so (1, j) – (2, j′) is an edge exactly
                // when d = (j′ − j) mod n/2 has d + 1 a power of two and
                // d < 2^(Δ−1).
                if u % 2 == v % 2 {
                    return false;
                }
                let (a, b) = if u.is_multiple_of(2) { (u, v) } else { (v, u) };
                let half = self.n / 2;
                let d = (b / 2 + half - a / 2) % half;
                let delta = 31 - self.n.leading_zeros();
                (d + 1).is_power_of_two() && d < 1 << (delta - 1)
            }
        }
    }

    /// The degree of processor `u` (0 when out of range).
    pub fn degree(&self, u: u32) -> u32 {
        self.neighbors(u).len() as u32
    }

    /// The neighbors of `u`, ascending and deduplicated (empty when out
    /// of range).
    pub fn neighbors(&self, u: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_neighbor(u, |v| out.push(v));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Calls `visit` on every neighbor of `u` (none when out of range),
    /// straight from the graph's adjacency formula, without allocating.
    /// The order is the formula's, and a neighbor may come twice (a
    /// ring of two, a torus side of two, coinciding Knödel partners);
    /// [`Topology::neighbors`] sorts and dedups.
    pub(crate) fn for_each_neighbor(&self, u: u32, mut visit: impl FnMut(u32)) {
        if u >= self.n {
            return;
        }
        let n = self.n;
        // A ring or torus step wraps onto `u` itself in a cycle of one.
        let mut other = |v: u32| {
            if v != u {
                visit(v);
            }
        };
        match self.spec {
            TopologySpec::Complete => (0..n).for_each(other),
            TopologySpec::Ring => {
                other((u + 1) % n);
                other((u + n - 1) % n);
            }
            TopologySpec::Torus { rows, cols } => {
                let (r, c) = (u / cols, u % cols);
                other(r * cols + (c + 1) % cols);
                other(r * cols + (c + cols - 1) % cols);
                other(((r + 1) % rows) * cols + c);
                other(((r + rows - 1) % rows) * cols + c);
            }
            TopologySpec::Hypercube { dim } => (0..dim).for_each(|k| other(u ^ (1u32 << k))),
            TopologySpec::Mbg { .. } => {
                let half = n / 2;
                let delta = 31 - n.leading_zeros();
                let j = u / 2;
                for k in 0..delta {
                    let step = ((1u32 << k) - 1) % half;
                    other(if u.is_multiple_of(2) {
                        // (1, j) — partners are (2, j + 2^k − 1).
                        ((j + step) % half) * 2 + 1
                    } else {
                        // (2, j) — partners are (1, j − (2^k − 1)).
                        ((j + half - step) % half) * 2
                    });
                }
            }
        }
    }

    /// BFS distances from `origin` to every processor; unreachable
    /// processors read [`UNREACHABLE`]. Returns an all-unreachable
    /// vector when `origin` is out of range.
    pub fn bfs_distances(&self, origin: u32) -> Vec<u32> {
        let mut dist = vec![UNREACHABLE; self.n as usize];
        if origin >= self.n {
            return dist;
        }
        dist[origin as usize] = 0;
        let mut queue = VecDeque::from([origin]);
        while let Some(u) = queue.pop_front() {
            let d = dist[u as usize];
            self.for_each_neighbor(u, |v| {
                if dist[v as usize] == UNREACHABLE {
                    dist[v as usize] = d + 1;
                    queue.push_back(v);
                }
            });
        }
        dist
    }

    /// The eccentricity of `origin`: the largest BFS distance to any
    /// *reachable* processor (0 when `origin` is out of range or
    /// isolated). Unreachable processors are the province of `P0019`
    /// and do not poison the bound.
    pub fn eccentricity(&self, origin: u32) -> u32 {
        eccentricity_of(&self.bfs_distances(origin))
    }
}

/// The largest reachable distance in a [`Topology::bfs_distances`]
/// vector (0 when nothing but the origin is reachable).
pub(crate) fn eccentricity_of(dist: &[u32]) -> u32 {
    dist.iter()
        .copied()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(spec: &str, n: u32) -> Topology {
        spec.parse::<TopologySpec>()
            .unwrap()
            .instantiate(n)
            .unwrap()
    }

    #[test]
    fn codec_round_trips() {
        for s in ["complete", "ring", "torus:4x8", "hypercube:5", "mbg:24"] {
            let spec: TopologySpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
    }

    #[test]
    fn codec_rejects_malformed_specs() {
        for s in [
            "mesh",
            "torus:4",
            "torus:0x8",
            "torus:4xq",
            "hypercube:x",
            "hypercube:31",
            "mbg:7",
            "mbg:0",
        ] {
            assert!(s.parse::<TopologySpec>().is_err(), "accepted {s}");
        }
    }

    #[test]
    fn instantiate_checks_sizes() {
        assert!("torus:4x8"
            .parse::<TopologySpec>()
            .unwrap()
            .instantiate(32)
            .is_ok());
        assert!("torus:4x8"
            .parse::<TopologySpec>()
            .unwrap()
            .instantiate(31)
            .is_err());
        assert!("hypercube:3"
            .parse::<TopologySpec>()
            .unwrap()
            .instantiate(8)
            .is_ok());
        assert!("hypercube:3"
            .parse::<TopologySpec>()
            .unwrap()
            .instantiate(9)
            .is_err());
        assert!("mbg:10"
            .parse::<TopologySpec>()
            .unwrap()
            .instantiate(10)
            .is_ok());
        assert!("mbg:10"
            .parse::<TopologySpec>()
            .unwrap()
            .instantiate(12)
            .is_err());
        assert!("ring"
            .parse::<TopologySpec>()
            .unwrap()
            .instantiate(0)
            .is_err());
    }

    /// `is_edge`, `neighbors` and `degree` must tell one story.
    fn assert_consistent(t: &Topology) {
        for u in 0..t.n() {
            let nb = t.neighbors(u);
            assert_eq!(nb.len() as u32, t.degree(u));
            for w in nb.windows(2) {
                assert!(w[0] < w[1], "neighbors not sorted/deduped");
            }
            for v in 0..t.n() {
                let listed = t.neighbors(u).contains(&v);
                assert_eq!(t.is_edge(u, v), listed, "u={u} v={v} on {}", t.spec());
                assert_eq!(t.is_edge(u, v), t.is_edge(v, u), "asymmetric edge");
            }
            assert!(!t.is_edge(u, u));
        }
    }

    #[test]
    fn all_topologies_are_self_consistent() {
        for t in [
            topo("complete", 7),
            topo("ring", 1),
            topo("ring", 2),
            topo("ring", 9),
            topo("torus:1x5", 5),
            topo("torus:2x2", 4),
            topo("torus:3x4", 12),
            topo("hypercube:0", 1),
            topo("hypercube:4", 16),
        ] {
            assert_consistent(&t);
        }
        // Every Knödel size up to 130, and both sides of 2^8: `is_edge`
        // decides by one difference, `for_each_neighbor` walks the Δ
        // offsets.
        for n in (2..=130).step_by(2).chain([254, 256, 258]) {
            assert_consistent(&topo(&format!("mbg:{n}"), n));
        }
    }

    #[test]
    fn degrees_match_the_constructions() {
        let ring = topo("ring", 8);
        assert!((0..8).all(|u| ring.degree(u) == 2));
        let torus = topo("torus:3x4", 12);
        assert!((0..12).all(|u| torus.degree(u) == 4));
        let cube = topo("hypercube:4", 16);
        assert!((0..16).all(|u| cube.degree(u) == 4));
        // Knödel degree is the bounded Δ = ⌊log₂ n⌋.
        let mbg = topo("mbg:24", 24);
        assert!((0..24).all(|u| mbg.degree(u) <= 4));
        assert!((0..24).any(|u| mbg.degree(u) == 4));
    }

    #[test]
    fn bfs_distances_and_eccentricity() {
        let ring = topo("ring", 8);
        let d = ring.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 3, 2, 1]);
        assert_eq!(ring.eccentricity(0), 4);

        let cube = topo("hypercube:3", 8);
        assert_eq!(cube.bfs_distances(0)[7], 3);
        assert_eq!(cube.eccentricity(0), 3);

        assert_eq!(topo("complete", 5).eccentricity(2), 1);
        // torus:RxC eccentricity is ⌊R/2⌋ + ⌊C/2⌋.
        assert_eq!(topo("torus:4x6", 24).eccentricity(0), 5);
    }

    #[test]
    fn every_construction_is_connected() {
        for t in [
            topo("ring", 17),
            topo("torus:5x7", 35),
            topo("hypercube:6", 64),
            topo("mbg:2", 2),
            topo("mbg:4", 4),
            topo("mbg:30", 30),
            topo("mbg:64", 64),
        ] {
            let d = t.bfs_distances(0);
            assert!(
                d.iter().all(|&x| x != UNREACHABLE),
                "{} is disconnected",
                t.spec()
            );
        }
    }

    #[test]
    fn knodel_diameter_is_logarithmic() {
        // The broadcast-graph construction must beat the ring's linear
        // diameter by a wide margin — that is its whole point.
        let t = topo("mbg:64", 64);
        assert!(t.eccentricity(0) <= 7, "ecc = {}", t.eccentricity(0));
    }
}

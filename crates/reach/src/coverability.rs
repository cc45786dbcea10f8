//! Coverability analysis (Karp–Miller tree).
//!
//! The reachability constructions in [`crate::graph`] abort on unbounded
//! nets with [`crate::graph::ReachError::StateLimit`]. The Karp–Miller
//! tree decides boundedness exactly: repeated token gain along a path is
//! *accelerated* to the symbolic count ω, so the tree is always finite
//! and a place is unbounded iff some node marks it ω.
//!
//! Like the reachability graph, the tree is stored flat: all node
//! markings live in one dense `Count` arena (node `i` owns the row
//! `i * places..(i + 1) * places`), parents are a `u32` column, and each
//! node's child edges are a contiguous span of one shared edge array —
//! no per-node heap allocations, and ancestor walks touch only two flat
//! arrays.
//!
//! Restrictions: acceleration relies on the monotonicity of the plain
//! firing rule, which inhibitor arcs and predicates break (coverability
//! with inhibitors is undecidable in general), and actions make the
//! state infinite-dimensional — such nets are rejected with a precise
//! error rather than analyzed unsoundly. The tree is also neither
//! parallelized nor paged to disk: acceleration walks each node's
//! ancestor chain, a sequential dependency with no segment-ordered
//! access pattern, so `cover` takes no `--jobs` or `--mem-budget`.

use crate::graph::ReachError;
use pnut_core::{Marking, Net, TransitionId};
use pnut_obs as obs;
use std::fmt;

/// A token count that may be the symbolic "arbitrarily many".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Count {
    /// A concrete token count.
    Finite(u32),
    /// Arbitrarily many tokens (ω).
    Omega,
}

impl Count {
    fn covers(self, w: u32) -> bool {
        match self {
            Count::Finite(v) => v >= w,
            Count::Omega => true,
        }
    }

    fn minus(self, w: u32) -> Count {
        match self {
            Count::Finite(v) => Count::Finite(v - w),
            Count::Omega => Count::Omega,
        }
    }

    fn plus(self, w: u32) -> Count {
        match self {
            Count::Finite(v) => Count::Finite(v.saturating_add(w)),
            Count::Omega => Count::Omega,
        }
    }
}

impl fmt::Display for Count {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Count::Finite(v) => write!(f, "{v}"),
            Count::Omega => write!(f, "ω"),
        }
    }
}

/// A borrowed view of one node's (possibly ω) marking — a row of the
/// tree's count arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmegaMarking<'a>(&'a [Count]);

impl OmegaMarking<'_> {
    /// The count of one place.
    ///
    /// # Panics
    ///
    /// Panics if the place is out of range.
    pub fn count(&self, place: pnut_core::PlaceId) -> Count {
        self.0[place.index()]
    }

    /// The raw counts in place order.
    pub fn as_slice(&self) -> &[Count] {
        self.0
    }

    /// Componentwise `self >= other`.
    pub fn covers(&self, other: OmegaMarking<'_>) -> bool {
        covers(self.0, other.0)
    }
}

fn covers(a: &[Count], b: &[Count]) -> bool {
    a.iter().zip(b).all(|(x, y)| match (x, y) {
        (Count::Omega, _) => true,
        (Count::Finite(_), Count::Omega) => false,
        (Count::Finite(x), Count::Finite(y)) => x >= y,
    })
}

impl fmt::Display for OmegaMarking<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "]")
    }
}

const NO_PARENT: u32 = u32::MAX;

/// The Karp–Miller coverability tree in arena form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverabilityTree {
    places: usize,
    /// Dense node-marking matrix; row `i` is node `i`.
    counts: Vec<Count>,
    /// Parent of each node (`NO_PARENT` for the root).
    parents: Vec<u32>,
    /// Child edges of all nodes, grouped per parent.
    child_edges: Vec<(TransitionId, u32)>,
    /// Span of `child_edges` owned by each node.
    child_spans: Vec<(u32, u32)>,
}

impl CoverabilityTree {
    /// Number of tree nodes (node 0 is the root / initial marking).
    pub fn node_count(&self) -> usize {
        self.parents.len()
    }

    /// The marking of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn marking(&self, i: usize) -> OmegaMarking<'_> {
        OmegaMarking(&self.counts[i * self.places..(i + 1) * self.places])
    }

    /// The parent of node `i` (`None` for the root).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn parent(&self, i: usize) -> Option<usize> {
        match self.parents[i] {
            NO_PARENT => None,
            p => Some(p as usize),
        }
    }

    /// The children of node `i` as `(transition fired, node)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn children(&self, i: usize) -> &[(TransitionId, u32)] {
        let (start, len) = self.child_spans[i];
        &self.child_edges[start as usize..(start + len) as usize]
    }

    /// Whether the net is unbounded (some node carries an ω).
    pub fn is_unbounded(&self) -> bool {
        self.counts.iter().any(|c| matches!(c, Count::Omega))
    }

    /// The bound of `place`: `None` if unbounded, otherwise the maximum
    /// count over all nodes.
    pub fn place_bound(&self, place: pnut_core::PlaceId) -> Option<u32> {
        let mut max = 0;
        for row in self.counts.chunks_exact(self.places.max(1)) {
            match row[place.index()] {
                Count::Omega => return None,
                Count::Finite(v) => max = max.max(v),
            }
        }
        Some(max)
    }

    /// Whether some reachable (ω-)marking covers `target` componentwise
    /// — the classical coverability question ("can this many tokens ever
    /// be present simultaneously?").
    pub fn covers(&self, target: &Marking) -> bool {
        let t: Vec<Count> = target
            .as_slice()
            .iter()
            .map(|&v| Count::Finite(v))
            .collect();
        (0..self.node_count()).any(|i| covers(self.marking(i).0, &t))
    }
}

/// Construction limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverOptions {
    /// Abort beyond this many tree nodes (the tree is finite in theory,
    /// but can be enormous).
    pub max_nodes: usize,
}

impl Default for CoverOptions {
    fn default() -> Self {
        CoverOptions { max_nodes: 100_000 }
    }
}

/// Build the Karp–Miller coverability tree of `net`.
///
/// # Errors
///
/// [`ReachError::UsesRandom`] / [`ReachError::Eval`]-free by
/// construction; instead rejects inhibitor arcs, predicates and actions
/// via [`ReachError::NotPlain`], and very large trees via
/// [`ReachError::StateLimit`].
///
/// # Example
///
/// ```
/// use pnut_core::NetBuilder;
/// use pnut_reach::coverability::{coverability_tree, CoverOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetBuilder::new("producer");
/// b.place("items", 0);
/// b.place("turn", 1);
/// b.transition("produce").input("turn").output("turn").output("items").add();
/// let net = b.build()?;
/// let tree = coverability_tree(&net, &CoverOptions::default())?;
/// assert!(tree.is_unbounded());
/// assert_eq!(tree.place_bound(net.place_id("items").unwrap()), None);
/// assert_eq!(tree.place_bound(net.place_id("turn").unwrap()), Some(1));
/// # Ok(())
/// # }
/// ```
pub fn coverability_tree(
    net: &Net,
    options: &CoverOptions,
) -> Result<CoverabilityTree, ReachError> {
    let _span = obs::span("cover.build");
    for (_, t) in net.transitions() {
        if !t.inhibitors().is_empty() || t.predicate().is_some() || t.action().is_some() {
            return Err(ReachError::NotPlain {
                transition: t.name().to_string(),
            });
        }
    }

    let places = net.place_count();
    let mut tree = CoverabilityTree {
        places,
        counts: net
            .initial_marking()
            .as_slice()
            .iter()
            .map(|&t| Count::Finite(t))
            .collect(),
        parents: vec![NO_PARENT],
        child_edges: Vec::new(),
        child_spans: vec![(0, 0)],
    };
    let mut work = vec![0u32];
    // Scratch rows, reused across iterations.
    let mut marking: Vec<Count> = Vec::with_capacity(places);
    let mut next: Vec<Count> = Vec::with_capacity(places);

    while let Some(cur) = work.pop() {
        let cur = cur as usize;
        marking.clear();
        marking.extend_from_slice(tree.marking(cur).0);
        // A node whose marking repeats an ancestor's is a leaf.
        let mut ancestor = tree.parent(cur);
        let mut repeats = false;
        while let Some(a) = ancestor {
            if tree.marking(a).0 == &marking[..] {
                repeats = true;
                break;
            }
            ancestor = tree.parent(a);
        }
        if repeats {
            continue;
        }
        obs::metrics::COVER_NODES.inc();
        obs::heartbeat(obs::metrics::COVER_NODES.get(), || {
            format!(
                "cover: {} nodes expanded, {} in tree",
                obs::metrics::COVER_NODES.get(),
                tree.parents.len()
            )
        });

        let span_start = tree.child_edges.len() as u32;
        for (tid, t) in net.transitions() {
            let enabled = t
                .inputs()
                .iter()
                .all(|&(p, w)| marking[p.index()].covers(w));
            if !enabled {
                continue;
            }
            next.clear();
            next.extend_from_slice(&marking);
            for &(p, w) in t.inputs() {
                next[p.index()] = next[p.index()].minus(w);
            }
            for &(p, w) in t.outputs() {
                next[p.index()] = next[p.index()].plus(w);
            }
            // Accelerate: if an ancestor is strictly covered, set ω on
            // the strictly-increased places.
            let mut a = Some(cur);
            while let Some(idx) = a {
                let anc = tree.marking(idx).0;
                if covers(&next, anc) && next != anc {
                    for i in 0..places {
                        if let (Count::Finite(x), Count::Finite(y)) = (next[i], anc[i]) {
                            if x > y {
                                next[i] = Count::Omega;
                            }
                        }
                    }
                }
                a = tree.parent(idx);
            }

            let child = tree.parents.len();
            if child >= options.max_nodes {
                return Err(ReachError::StateLimit {
                    limit: options.max_nodes,
                });
            }
            tree.counts.extend_from_slice(&next);
            tree.parents.push(cur as u32);
            tree.child_spans.push((0, 0));
            tree.child_edges.push((tid, child as u32));
            work.push(child as u32);
        }
        tree.child_spans[cur] = (span_start, tree.child_edges.len() as u32 - span_start);
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnut_core::NetBuilder;

    #[test]
    fn bounded_ring_has_no_omega() {
        let mut b = NetBuilder::new("ring");
        b.place("a", 2);
        b.place("bp", 0);
        b.transition("ab").input("a").output("bp").add();
        b.transition("ba").input("bp").output("a").add();
        let net = b.build().unwrap();
        let tree = coverability_tree(&net, &CoverOptions::default()).unwrap();
        assert!(!tree.is_unbounded());
        assert_eq!(tree.place_bound(net.place_id("a").unwrap()), Some(2));
        assert_eq!(tree.place_bound(net.place_id("bp").unwrap()), Some(2));
        assert!(tree.covers(&Marking::from_counts(vec![1, 1])));
        assert!(!tree.covers(&Marking::from_counts(vec![3, 0])));
    }

    #[test]
    fn producer_is_unbounded_and_detected_finitely() {
        let mut b = NetBuilder::new("producer");
        b.place("items", 0);
        b.place("turn", 1);
        b.transition("produce")
            .input("turn")
            .output("turn")
            .output("items")
            .add();
        b.transition("consume").input("items").add();
        let net = b.build().unwrap();
        let tree = coverability_tree(&net, &CoverOptions::default()).unwrap();
        assert!(tree.is_unbounded());
        assert_eq!(tree.place_bound(net.place_id("items").unwrap()), None);
        // ω covers any finite demand.
        assert!(tree.covers(&Marking::from_counts(vec![1000, 1])));
        assert!(tree.node_count() < 100, "acceleration keeps it small");
    }

    #[test]
    fn weighted_gain_accelerates() {
        // Each cycle nets +1 token on p (consumes 1, produces 2).
        let mut b = NetBuilder::new("gain");
        b.place("p", 1);
        b.transition("t").input("p").output_weighted("p", 2).add();
        let net = b.build().unwrap();
        let tree = coverability_tree(&net, &CoverOptions::default()).unwrap();
        assert!(tree.is_unbounded());
    }

    #[test]
    fn rejects_non_plain_nets() {
        let mut b = NetBuilder::new("inh");
        b.place("p", 1);
        b.place("q", 0);
        b.transition("t").input("p").inhibitor("q").add();
        let net = b.build().unwrap();
        assert!(matches!(
            coverability_tree(&net, &CoverOptions::default()),
            Err(ReachError::NotPlain { .. })
        ));

        let mut b = NetBuilder::new("pred");
        b.place("p", 1);
        b.var("x", 0);
        b.transition("t")
            .input("p")
            .predicate_str("x == 0")
            .unwrap()
            .add();
        let net = b.build().unwrap();
        assert!(matches!(
            coverability_tree(&net, &CoverOptions::default()),
            Err(ReachError::NotPlain { .. })
        ));
    }

    #[test]
    fn omega_display() {
        assert_eq!(Count::Omega.to_string(), "ω");
        assert_eq!(Count::Finite(3).to_string(), "3");
        let m = OmegaMarking(&[Count::Finite(1), Count::Omega]);
        assert_eq!(m.to_string(), "[1 ω]");
    }

    #[test]
    fn deadlocked_root_yields_single_node() {
        let mut b = NetBuilder::new("dead");
        b.place("p", 0);
        b.transition("t").input("p").add();
        let net = b.build().unwrap();
        let tree = coverability_tree(&net, &CoverOptions::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert!(!tree.is_unbounded());
        assert_eq!(tree.parent(0), None);
        assert!(tree.children(0).is_empty());
    }

    #[test]
    fn tree_structure_is_consistent() {
        let mut b = NetBuilder::new("ring");
        b.place("a", 1);
        b.place("bp", 0);
        b.transition("ab").input("a").output("bp").add();
        b.transition("ba").input("bp").output("a").add();
        let net = b.build().unwrap();
        let tree = coverability_tree(&net, &CoverOptions::default()).unwrap();
        for i in 0..tree.node_count() {
            for &(_, child) in tree.children(i) {
                assert_eq!(tree.parent(child as usize), Some(i));
            }
        }
    }
}

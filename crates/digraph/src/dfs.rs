//! Depth-first reachability and cycle queries.
//!
//! This is the strategy the paper's Velodrome implementation effectively
//! uses: every edge insertion triggers a reachability query whose cost is
//! proportional to the (potentially quadratic) number of edges, yielding
//! the overall cubic bound the paper motivates against.

use crate::graph::{DiGraph, NodeId};

/// Whether `to` is reachable from `from` (reflexively: `reaches(g, n, n)`
/// is `true` for any live `n`).
///
/// # Examples
///
/// ```
/// let mut g = digraph::DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let c = g.add_node(());
/// g.add_edge(a, b);
/// g.add_edge(b, c);
/// assert!(digraph::dfs::reaches(&g, a, c));
/// assert!(!digraph::dfs::reaches(&g, c, a));
/// ```
#[must_use]
pub fn reaches<N>(g: &DiGraph<N>, from: NodeId, to: NodeId) -> bool {
    reaches_counting(g, from, to).0
}

/// Like [`reaches`], additionally returning the number of nodes visited —
/// the work metric behind Velodrome's super-linear behaviour.
#[must_use]
pub fn reaches_counting<N>(g: &DiGraph<N>, from: NodeId, to: NodeId) -> (bool, u64) {
    Searcher::new().reaches_counting(g, from, to)
}

/// Reusable DFS scratch state.
///
/// Velodrome runs one reachability query per candidate edge — allocating
/// a fresh visited bitmap per query (as the free functions here do) puts
/// two heap allocations on every conflict edge. A `Searcher` owns the
/// visited marks and the stack and reuses them across queries: marks are
/// *stamped* with a per-query token instead of being cleared, so a query
/// costs zero allocations once the scratch has grown to the graph size.
///
/// # Examples
///
/// ```
/// let mut g = digraph::DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// g.add_edge(a, b);
/// let mut searcher = digraph::dfs::Searcher::new();
/// assert!(searcher.reaches_counting(&g, a, b).0);
/// assert!(!searcher.reaches_counting(&g, b, a).0);
/// ```
#[derive(Debug, Default)]
pub struct Searcher {
    /// `visited[i] == stamp` marks slot `i` visited in the current query.
    visited: Vec<u64>,
    stamp: u64,
    stack: Vec<NodeId>,
}

impl Searcher {
    /// Creates an empty searcher; scratch grows to the graph size on
    /// first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `to` is reachable from `from`, plus the number of nodes
    /// visited. Allocation-free once warm.
    pub fn reaches_counting<N>(&mut self, g: &DiGraph<N>, from: NodeId, to: NodeId) -> (bool, u64) {
        if from == to {
            return (true, 0);
        }
        if self.visited.len() < g.slot_bound() {
            self.visited.resize(g.slot_bound(), 0);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let mut visits = 0u64;
        self.stack.clear();
        self.stack.push(from);
        self.visited[from.index()] = stamp;
        while let Some(n) = self.stack.pop() {
            visits += 1;
            for &s in g.successors(n) {
                if s == to {
                    self.stack.clear();
                    return (true, visits);
                }
                if self.visited[s.index()] != stamp {
                    self.visited[s.index()] = stamp;
                    self.stack.push(s);
                }
            }
        }
        (false, visits)
    }
}

/// Whether inserting edge `from → to` would close a cycle, i.e. whether
/// `from` is already reachable from `to`. A self-edge (`from == to`)
/// always creates a cycle.
#[must_use]
pub fn creates_cycle<N>(g: &DiGraph<N>, from: NodeId, to: NodeId) -> bool {
    reaches(g, to, from)
}

/// Finds a path `from ⇝ to` (inclusive of both endpoints), if any.
///
/// Used to report the witness sequence `T0, …, Tk−1` of Definition 1 when
/// a violation is found: the cycle closed by edge `u → v` is
/// `find_path(g, v, u)` followed by the new edge.
#[must_use]
pub fn find_path<N>(g: &DiGraph<N>, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; g.slot_bound()];
    let mut visited = vec![false; g.slot_bound()];
    let mut stack = vec![from];
    visited[from.index()] = true;
    while let Some(n) = stack.pop() {
        for &s in g.successors(n) {
            if !visited[s.index()] {
                visited[s.index()] = true;
                parent[s.index()] = Some(n);
                if s == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while let Some(p) = parent[cur.index()] {
                        path.push(p);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                stack.push(s);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<()>, [NodeId; 4]) {
        let mut g = DiGraph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, d);
        g.add_edge(c, d);
        (g, [a, b, c, d])
    }

    #[test]
    fn reachability_in_diamond() {
        let (g, [a, b, c, d]) = diamond();
        assert!(reaches(&g, a, d));
        assert!(reaches(&g, b, d));
        assert!(!reaches(&g, b, c));
        assert!(!reaches(&g, d, a));
        assert!(reaches(&g, a, a));
    }

    #[test]
    fn cycle_detection_on_insertion() {
        let (g, [a, b, _c, d]) = diamond();
        assert!(creates_cycle(&g, d, a));
        assert!(creates_cycle(&g, d, b));
        assert!(!creates_cycle(&g, a, d));
        assert!(creates_cycle(&g, a, a)); // self edge
    }

    #[test]
    fn find_path_returns_endpoints_inclusive() {
        let (g, [a, _b, _c, d]) = diamond();
        let p = find_path(&g, a, d).unwrap();
        assert_eq!(p.first(), Some(&a));
        assert_eq!(p.last(), Some(&d));
        assert_eq!(p.len(), 3);
        // Consecutive path nodes are connected.
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
        assert!(find_path(&g, d, a).is_none());
        assert_eq!(find_path(&g, a, a).unwrap(), vec![a]);
    }

    #[test]
    fn reachability_ignores_removed_nodes() {
        let (mut g, [a, b, c, d]) = diamond();
        g.remove_node(b);
        assert!(reaches(&g, a, d)); // via c
        g.remove_node(c);
        assert!(!reaches(&g, a, d));
    }
}

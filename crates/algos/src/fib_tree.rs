//! Generalized Fibonacci broadcast trees (Figure 1 of the paper).
//!
//! The BCAST recursion induces a *broadcast tree*: an edge `p → q` with
//! send time `s` means `p` transmits the message to `q` during `[s, s+1]`
//! and `q` receives it during `[s+λ−1, s+λ]`. Nodes close to the root have
//! higher degree than nodes further away, and the tree's shape depends on
//! λ: for λ = 1 it is the binomial tree, for λ = 2 the Fibonacci tree.
//!
//! [`BroadcastTree::build`] constructs the exact tree for MPS(n, λ) and
//! [`BroadcastTree::render`] draws it with per-node receive times — a
//! regeneration of the paper's Figure 1.

use crate::cascade::{cascade, FibTable, Orientation};
use postal_model::{Latency, Time};
use postal_sim::ProcId;
use std::fmt::Write as _;

/// One node of a broadcast tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// The processor at this node.
    pub proc: ProcId,
    /// When this processor knows the message: time 0 for the root, the
    /// receive-finish time (`send + λ`) otherwise.
    pub ready: Time,
    /// Children in send order (first child receives the earliest send).
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// Number of nodes in this subtree (including self).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(TreeNode::size).sum::<usize>()
    }

    /// Latest `ready` time in this subtree.
    pub fn completion(&self) -> Time {
        self.children
            .iter()
            .map(TreeNode::completion)
            .max()
            .unwrap_or(self.ready)
            .max(self.ready)
    }

    /// Depth (edges) of the deepest node.
    pub fn depth(&self) -> usize {
        self.children
            .iter()
            .map(|c| 1 + c.depth())
            .max()
            .unwrap_or(0)
    }
}

/// The complete broadcast tree for MPS(n, λ).
///
/// ```
/// use postal_algos::BroadcastTree;
/// use postal_model::{Latency, Time};
///
/// // The paper's Figure 1.
/// let tree = BroadcastTree::build(14, Latency::from_ratio(5, 2));
/// assert_eq!(tree.completion(), Time::new(15, 2));
/// assert_eq!(tree.root.children[0].proc.0, 9); // first delegate is p9
/// ```
#[derive(Debug, Clone)]
pub struct BroadcastTree {
    /// Number of processors.
    pub n: u64,
    /// The latency the tree is optimal for.
    pub latency: Latency,
    /// The root node (`p_0`, ready at time 0).
    pub root: TreeNode,
}

impl BroadcastTree {
    /// Builds the optimal broadcast tree for `n` processors at latency λ.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn build(n: u64, latency: Latency) -> BroadcastTree {
        assert!(n >= 1, "a broadcast tree needs at least one processor");
        let table = FibTable::new(latency, n);
        let root = build_node(&table, latency, 0, n, Time::ZERO);
        BroadcastTree { n, latency, root }
    }

    /// The completion time of the tree; equals `f_λ(n)` (Theorem 6).
    pub fn completion(&self) -> Time {
        self.root.completion()
    }

    /// Renders the tree as indented ASCII with receive times, e.g. for
    /// Figure 1 (n = 14, λ = 5/2):
    ///
    /// ```text
    /// p0 (t=0)
    /// ├── p9 (t=5/2)
    /// │   ├── p12 (t=5)
    /// ...
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{} (t={})", self.root.proc, self.root.ready);
        render_children(&mut out, &self.root, "");
        out
    }
}

fn build_node(table: &FibTable, latency: Latency, lo: u64, size: u64, ready: Time) -> TreeNode {
    let mut children = Vec::new();
    let mut send_time = ready;
    for send in cascade(table, size, Orientation::Standard) {
        let child_ready = send_time + latency.as_time();
        children.push(build_node(
            table,
            latency,
            lo + send.offset,
            send.size,
            child_ready,
        ));
        send_time += Time::ONE;
    }
    TreeNode {
        proc: ProcId::from(lo as usize),
        ready,
        children,
    }
}

fn render_children(out: &mut String, node: &TreeNode, prefix: &str) {
    let count = node.children.len();
    for (i, child) in node.children.iter().enumerate() {
        let last = i + 1 == count;
        let branch = if last { "└── " } else { "├── " };
        let _ = writeln!(out, "{prefix}{branch}{} (t={})", child.proc, child.ready);
        let child_prefix = format!("{prefix}{}", if last { "    " } else { "│   " });
        render_children(out, child, &child_prefix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::runtimes;

    #[test]
    fn figure1_tree_shape() {
        let tree = BroadcastTree::build(14, Latency::from_ratio(5, 2));
        assert_eq!(tree.root.size(), 14);
        assert_eq!(tree.completion(), Time::new(15, 2));
        // Root's first delegate is p9, ready at λ = 5/2 (Figure 1).
        assert_eq!(tree.root.children[0].proc, ProcId(9));
        assert_eq!(tree.root.children[0].ready, Time::new(5, 2));
        // Root sends 6 messages: to p9, p6, p4, p3, p2, p1.
        let child_ids: Vec<u32> = tree.root.children.iter().map(|c| c.proc.0).collect();
        assert_eq!(child_ids, vec![9, 6, 4, 3, 2, 1]);
    }

    #[test]
    fn tree_completion_equals_theorem6_for_sweep() {
        for lam in [
            Latency::TELEPHONE,
            Latency::from_ratio(3, 2),
            Latency::from_int(2),
            Latency::from_ratio(5, 2),
            Latency::from_int(6),
        ] {
            for n in 1..200u64 {
                let tree = BroadcastTree::build(n, lam);
                assert_eq!(tree.root.size(), n as usize, "λ={lam} n={n}");
                assert_eq!(
                    tree.completion(),
                    runtimes::bcast_time(n as u128, lam),
                    "λ={lam} n={n}"
                );
            }
        }
    }

    #[test]
    fn tree_matches_simulation_receive_times() {
        // The static tree and the event-driven simulation must agree on
        // every processor's first-receipt time.
        let lam = Latency::from_ratio(5, 2);
        let n = 33;
        let tree = BroadcastTree::build(n as u64, lam);
        let report = crate::bcast::run_bcast(n, lam);
        let sim_times = report.trace.first_receipt_times(n);
        let mut tree_times = vec![None; n];
        collect(&tree.root, &mut tree_times);
        // Root: tree says ready at 0; sim says never received.
        assert_eq!(tree_times[0], Some(Time::ZERO));
        for i in 1..n {
            assert_eq!(tree_times[i], sim_times[i], "p{i}");
        }

        fn collect(node: &TreeNode, out: &mut Vec<Option<Time>>) {
            out[node.proc.index()] = Some(node.ready);
            for c in &node.children {
                collect(c, out);
            }
        }
    }

    #[test]
    fn binomial_tree_for_telephone() {
        // λ = 1, n = 8: binomial tree of depth 3, root degree 3.
        let tree = BroadcastTree::build(8, Latency::TELEPHONE);
        assert_eq!(tree.root.children.len(), 3);
        assert_eq!(tree.root.depth(), 3);
        assert_eq!(tree.completion(), Time::from_int(3));
    }

    #[test]
    fn render_contains_every_processor() {
        let tree = BroadcastTree::build(14, Latency::from_ratio(5, 2));
        let art = tree.render();
        for i in 0..14 {
            assert!(art.contains(&format!("p{i} ")), "missing p{i} in:\n{art}");
        }
        assert!(art.contains("p9 (t=5/2)"));
        // Deepest receive at 15/2.
        assert!(art.contains("t=15/2"));
    }

    #[test]
    fn singleton_tree() {
        let tree = BroadcastTree::build(1, Latency::from_int(2));
        assert_eq!(tree.root.size(), 1);
        assert_eq!(tree.completion(), Time::ZERO);
        assert_eq!(tree.render().trim(), "p0 (t=0)");
    }
}

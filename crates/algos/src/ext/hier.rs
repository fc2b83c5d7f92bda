//! Broadcasting in a two-level latency hierarchy (Section 5 extension).
//!
//! The paper proposes "hierarchies of latency parameters ... to model
//! subsystems within a larger system": think racks in a cluster, with a
//! fast intra-cluster latency `λ_local` and a slow inter-cluster latency
//! `λ_remote`.
//!
//! [`run_hierarchical`] broadcasts in two overlapping phases:
//!
//! 1. **Leader phase** — BCAST over the cluster leaders (the first
//!    processor of each cluster) using the λ_remote-optimal Fibonacci
//!    cascade;
//! 2. **Local phase** — each leader, as soon as its leader-phase sends
//!    are issued, broadcasts within its own cluster using the
//!    λ_local-optimal cascade (its output port naturally serializes the
//!    two phases).
//!
//! The baseline [`run_flat_under_hierarchy`] runs a single flat BCAST
//! whose tree assumes λ_remote everywhere — correct but blind to
//! locality. For clusters with strong locality the hierarchical algorithm
//! wins clearly (the experiment binary `exp_extensions` quantifies this).

use crate::cascade::{cascade, FibTable, Orientation};
use postal_model::Latency;
use postal_sim::prelude::*;
use std::sync::Arc;

/// Payload for hierarchical broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierPacket {
    /// Leader-phase packet: the receiver leads `leader_range` clusters
    /// (its own included).
    Leader {
        /// Number of clusters delegated (receiver's included).
        leader_range: u64,
    },
    /// Local-phase packet: the receiver is responsible for `range_size`
    /// processors within its cluster.
    Local {
        /// Number of processors delegated (receiver's included).
        range_size: u64,
    },
}

/// Per-processor hierarchical broadcast program.
pub struct HierProgram {
    cluster_size: u64,
    n: u64,
    /// The run's `F_λ_remote` table over cluster counts.
    remote: Arc<FibTable>,
    /// The run's `F_λ_local` table over one cluster.
    local: Arc<FibTable>,
    is_root: bool,
}

impl HierProgram {
    /// Creates the program for one processor of a block-clustered
    /// system. `local` and `remote` are the run's tables: `F_λ_local`
    /// built for `cluster_size` processors and `F_λ_remote` built for
    /// the `⌈n / cluster_size⌉` clusters.
    pub fn new(
        n: u64,
        cluster_size: u64,
        local: Arc<FibTable>,
        remote: Arc<FibTable>,
        is_root: bool,
    ) -> HierProgram {
        assert!(cluster_size >= 1);
        HierProgram {
            cluster_size,
            n,
            remote,
            local,
            is_root,
        }
    }

    /// Size of the cluster this processor belongs to (the last block can
    /// be short).
    fn my_cluster_len(&self, me: u64) -> u64 {
        let cluster_start = (me / self.cluster_size) * self.cluster_size;
        self.cluster_size.min(self.n - cluster_start)
    }

    /// Leader-phase sends: delegate sub-ranges of clusters to other
    /// leaders, then start the local phase.
    fn lead(&self, ctx: &mut dyn Context<HierPacket>, leader_range: u64) {
        let me = ctx.me().index() as u64;
        debug_assert_eq!(me % self.cluster_size, 0, "only leaders lead");
        for send in cascade(&self.remote, leader_range, Orientation::Standard) {
            let target_leader = me + send.offset * self.cluster_size;
            ctx.send(
                ProcId::from(target_leader as usize),
                HierPacket::Leader {
                    leader_range: send.size,
                },
            );
        }
        // Local phase within my own cluster, queued behind the leader
        // sends on the same output port.
        self.broadcast_local(ctx, self.my_cluster_len(me));
    }

    fn broadcast_local(&self, ctx: &mut dyn Context<HierPacket>, range_size: u64) {
        let me = ctx.me().index() as u64;
        for send in cascade(&self.local, range_size, Orientation::Standard) {
            ctx.send(
                ProcId::from((me + send.offset) as usize),
                HierPacket::Local {
                    range_size: send.size,
                },
            );
        }
    }
}

impl Program<HierPacket> for HierProgram {
    fn on_start(&mut self, ctx: &mut dyn Context<HierPacket>) {
        if self.is_root {
            let clusters = self.n.div_ceil(self.cluster_size);
            self.lead(ctx, clusters);
        }
    }

    fn on_receive(&mut self, ctx: &mut dyn Context<HierPacket>, _from: ProcId, packet: HierPacket) {
        match packet {
            HierPacket::Leader { leader_range } => self.lead(ctx, leader_range),
            HierPacket::Local { range_size } => self.broadcast_local(ctx, range_size),
        }
    }
}

/// Runs the two-phase hierarchical broadcast over block clusters of size
/// `cluster_size` and returns the report.
///
/// # Panics
/// Panics if `cluster_size == 0`.
pub fn run_hierarchical(
    n: usize,
    cluster_size: usize,
    local: Latency,
    remote: Latency,
) -> RunReport<HierPacket> {
    let model = Hierarchical::blocks(n, cluster_size, local, remote);
    let local = Arc::new(FibTable::new(local, cluster_size as u64));
    let remote = Arc::new(FibTable::new(remote, n.div_ceil(cluster_size) as u64));
    let programs = programs_from(n, |id| {
        Box::new(HierProgram::new(
            n as u64,
            cluster_size as u64,
            Arc::clone(&local),
            Arc::clone(&remote),
            id == ProcId::ROOT,
        )) as Box<dyn Program<HierPacket>>
    });
    Simulation::new(n, &model)
        .run(programs)
        .expect("hierarchical broadcast cannot diverge")
}

/// Baseline: a flat BCAST tree computed for λ_remote, executed over the
/// hierarchy (queued mode: local messages arriving early can contend).
pub fn run_flat_under_hierarchy(
    n: usize,
    cluster_size: usize,
    local: Latency,
    remote: Latency,
) -> RunReport<crate::bcast::BcastPayload> {
    let model = Hierarchical::blocks(n, cluster_size, local, remote);
    Simulation::new(n, &model)
        .port_mode(PortMode::Queued)
        .run(crate::bcast::bcast_programs(n, remote))
        .expect("flat broadcast cannot diverge")
}

/// True if every non-root processor received the message at least once.
pub fn delivered_everywhere<P>(report: &RunReport<P>, n: usize) -> bool {
    (1..n).all(|i| report.trace.received_by(ProcId::from(i)).count() >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use postal_model::{runtimes, Time};

    #[test]
    fn delivers_to_everyone_exactly_once() {
        for (n, cs) in [(16usize, 4usize), (20, 4), (30, 7), (9, 3), (5, 8), (12, 1)] {
            let r = run_hierarchical(n, cs, Latency::TELEPHONE, Latency::from_int(6));
            assert!(delivered_everywhere(&r, n), "n={n} cs={cs}");
            for i in 1..n {
                assert_eq!(
                    r.trace.received_by(ProcId::from(i)).count(),
                    1,
                    "n={n} cs={cs} p{i}"
                );
            }
        }
    }

    #[test]
    fn degenerate_single_cluster_is_local_bcast() {
        let local = Latency::from_ratio(5, 2);
        let r = run_hierarchical(14, 14, local, Latency::from_int(6));
        r.assert_model_clean();
        assert_eq!(r.completion, runtimes::bcast_time(14, local));
    }

    #[test]
    fn degenerate_unit_clusters_is_remote_bcast() {
        let remote = Latency::from_int(4);
        let r = run_hierarchical(20, 1, Latency::TELEPHONE, remote);
        r.assert_model_clean();
        assert_eq!(r.completion, runtimes::bcast_time(20, remote));
    }

    #[test]
    fn hierarchy_beats_flat_for_strong_locality() {
        // 8 clusters of 8, local λ = 1, remote λ = 8.
        let (n, cs) = (64usize, 8usize);
        let local = Latency::TELEPHONE;
        let remote = Latency::from_int(8);
        let hier = run_hierarchical(n, cs, local, remote);
        let flat = run_flat_under_hierarchy(n, cs, local, remote);
        assert!(delivered_everywhere(&hier, n));
        assert!(delivered_everywhere(&flat, n));
        assert!(
            hier.completion < flat.completion,
            "hier {} vs flat {}",
            hier.completion,
            flat.completion
        );
    }

    #[test]
    fn hierarchical_run_is_model_clean() {
        // Leader and local phases must not collide on any input port.
        for (n, cs) in [(64usize, 8usize), (40, 5), (50, 9)] {
            let r = run_hierarchical(n, cs, Latency::from_ratio(3, 2), Latency::from_int(5));
            r.assert_model_clean();
        }
    }

    #[test]
    fn singleton() {
        let r = run_hierarchical(1, 4, Latency::TELEPHONE, Latency::from_int(2));
        assert_eq!(r.completion, Time::ZERO);
    }
}

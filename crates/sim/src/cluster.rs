//! Cluster model and operator placement.
//!
//! The paper's testbed: 32 DS12-v2 server VMs (4 vCPUs each) plus
//! separate client machines generating load. Here a node is `workers`
//! abstract cores; ingest instances live off-cluster (client side), so
//! source→operator messages and their acknowledgements always pay the
//! network delay.

use cameo_core::time::Micros;
use cameo_dataflow::expand::ExpandedJob;

/// Placement sentinel: instance lives off-cluster (ingest).
pub const OFF_CLUSTER: u16 = u16::MAX;

/// How operator instances map to nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Round-robin every instance across all nodes (maximal spreading;
    /// one job's load diffuses over the whole cluster).
    #[default]
    Spread,
    /// Pack each job onto one node (`job index % nodes`), collocating
    /// whole jobs — a spiking job hammers its machine and everything
    /// collocated there (the Fig 9/10 hotspot regime).
    Pack,
}

#[derive(Clone, Copy, Debug)]
pub struct ClusterSpec {
    pub nodes: u16,
    pub workers_per_node: u16,
    /// One-way cross-node message delay.
    pub net_delay: Micros,
    /// Fault injection: additional uniform random delay in
    /// `[0, net_jitter]` per cross-node message. Per-channel FIFO order
    /// is preserved (deliveries are clamped to be monotone per channel),
    /// matching the runtime's in-order channel guarantee.
    pub net_jitter: Micros,
}

impl ClusterSpec {
    pub fn new(nodes: u16, workers_per_node: u16) -> Self {
        assert!(nodes > 0 && workers_per_node > 0);
        ClusterSpec {
            nodes,
            workers_per_node,
            net_delay: Micros(200),
            net_jitter: Micros::ZERO,
        }
    }

    pub fn with_net_jitter(mut self, j: Micros) -> Self {
        self.net_jitter = j;
        self
    }

    /// A single server machine (the paper's single-tenant setup: one
    /// DS12-v2 with 4 vCPUs).
    pub fn single_node(workers: u16) -> Self {
        ClusterSpec::new(1, workers)
    }
}

/// Placement of every job's computing instances on nodes; ingest
/// instances are marked off-cluster. `Spread` deals instances
/// round-robin from one counter shared across jobs, collocating
/// different jobs' operators on the same nodes as in the paper's
/// multi-tenant deployments; `Pack` puts job `j` on node `j % nodes`.
pub fn place_jobs(
    jobs: &[&ExpandedJob],
    cluster: &ClusterSpec,
    policy: Placement,
) -> Vec<Vec<u16>> {
    let mut next = 0u16;
    let mut placement = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let home = (j as u16) % cluster.nodes;
        let mut per_op = Vec::with_capacity(job.instances.len());
        for inst in &job.instances {
            if inst.is_ingest() {
                per_op.push(OFF_CLUSTER);
            } else {
                match policy {
                    Placement::Spread => {
                        per_op.push(next % cluster.nodes);
                        next = next.wrapping_add(1);
                    }
                    Placement::Pack => per_op.push(home),
                }
            }
        }
        placement.push(per_op);
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_core::ids::JobId;
    use cameo_core::time::Micros;
    use cameo_dataflow::expand::ExpandOptions;
    use cameo_dataflow::queries::{ipq1, AggQueryParams};

    #[test]
    fn ingests_are_off_cluster() {
        let spec = ipq1(1_000_000, Micros(800_000));
        let job = ExpandedJob::expand(&spec, JobId(0), &ExpandOptions::default()).unwrap();
        let placement = place_jobs(&[&job], &ClusterSpec::new(4, 4), Placement::Spread);
        let job_p = &placement[0];
        // First 8 instances are sources.
        for &p in &job_p[..8] {
            assert_eq!(p, OFF_CLUSTER);
        }
        for &p in &job_p[8..] {
            assert!(p < 4);
        }
    }

    #[test]
    fn placement_spreads_round_robin() {
        let spec = cameo_dataflow::queries::agg_query(
            &AggQueryParams::new("j", 1_000, Micros(1_000)).with_parallelism(4),
        );
        let a = ExpandedJob::expand(&spec, JobId(0), &ExpandOptions::default()).unwrap();
        let b = ExpandedJob::expand(&spec, JobId(1), &ExpandOptions::default()).unwrap();
        let placement = place_jobs(&[&a, &b], &ClusterSpec::new(3, 2), Placement::Spread);
        let mut counts = [0u32; 3];
        for job_p in &placement {
            for &p in job_p.iter().filter(|&&p| p != OFF_CLUSTER) {
                counts[p as usize] += 1;
            }
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "round robin balances: {counts:?}");
        // Pack puts each job's computing instances on its own node.
        let packed = place_jobs(&[&a, &b], &ClusterSpec::new(3, 2), Placement::Pack);
        for (j, job_p) in packed.iter().enumerate() {
            assert!(job_p.iter().all(|&p| p == OFF_CLUSTER || p == j as u16));
        }
    }
}

//! The `BTreeMap` snapshot and diff the intra-cluster layer ran before its
//! flat CSR snapshot, kept as a test oracle: both are driven in lockstep
//! over seeded mobility and hand-built corner cases and must agree on every
//! pass's outcome, re-sync backlog and channel draws.

use super::tests::{black_hole, ideal, lossy, m, topo};
use super::*;
use manet_cluster::{Clustering, LowestId};
use manet_geom::{Metric, SquareRegion};
use manet_sim::{FaultPlan, QuietCtx, STREAM_ROUTE};
use std::collections::{BTreeMap, BTreeSet};

/// One cluster's nodes and intra-cluster links, both sorted.
type ClusterSnapshot = (Vec<NodeId>, Vec<(NodeId, NodeId)>);

/// The `BTreeMap` snapshot and diff the layer ran before its CSR
/// snapshot, kept as the oracle for it. Telemetry is left out: the
/// two are compared on outcomes, re-sync backlog and channel draws.
#[derive(Default)]
struct Reference {
    prev: BTreeMap<NodeId, ClusterSnapshot>,
    initialized: bool,
    policy: UpdatePolicy,
    dirty: BTreeSet<NodeId>,
    accum: f64,
    resync_pending: BTreeSet<NodeId>,
}

impl Reference {
    fn update<C: ClusterAssignment + ?Sized>(
        &mut self,
        dt: f64,
        topology: &Topology,
        clustering: &C,
        channel: &mut Channel,
    ) -> RouteUpdateOutcome {
        let head = |u| clustering.cluster_head_of(u);
        let mut current: BTreeMap<NodeId, ClusterSnapshot> = BTreeMap::new();
        for u in 0..topology.len() as NodeId {
            current.entry(head(u)).or_default().0.push(u);
        }
        for (a, b) in topology.links() {
            if head(a) == head(b) {
                current.get_mut(&head(a)).unwrap().1.push((a, b));
            }
        }
        let mut outcome = RouteUpdateOutcome::default();
        // Draws `count` deliveries; whether any was lost.
        let mut send = |count: u64, outcome: &mut RouteUpdateOutcome| {
            let lost = (0..count).filter(|_| !channel.deliver()).count() as u64;
            outcome.lost_messages += lost;
            lost > 0
        };
        for h in std::mem::take(&mut self.resync_pending) {
            let Some((nodes, _)) = current.get(&h) else {
                continue;
            };
            let m = nodes.len() as u64;
            outcome.resync_rounds += 1;
            outcome.resync_messages += m;
            outcome.route_entries += m * m;
            if send(m, &mut outcome) {
                self.resync_pending.insert(h);
            }
        }
        let mut charges = Vec::new();
        match self.policy {
            _ if !self.initialized => {}
            UpdatePolicy::PerChange => {
                for (h, snap) in &current {
                    let rounds = match self.prev.get(h) {
                        Some(prev) if prev == snap => 0,
                        Some(prev) => {
                            sorted_symmetric_difference_len(&prev.1, &snap.1).max(1) as u64
                        }
                        None => 1,
                    };
                    if rounds > 0 {
                        charges.push((*h, rounds, snap.0.len() as u64));
                    }
                }
            }
            UpdatePolicy::Coalesced { interval } => {
                for (h, snap) in &current {
                    if self.prev.get(h) != Some(snap) {
                        self.dirty.insert(*h);
                    }
                }
                self.accum += dt;
                while self.accum >= interval {
                    self.accum -= interval;
                    for h in std::mem::take(&mut self.dirty) {
                        if let Some(snap) = current.get(&h) {
                            charges.push((h, 1, snap.0.len() as u64));
                        }
                    }
                }
            }
        }
        for (h, rounds, m) in charges {
            outcome.clusters_updated += 1;
            outcome.update_rounds += rounds;
            outcome.route_messages += rounds * m;
            outcome.route_entries += rounds * m * m;
            if send(rounds * m, &mut outcome) {
                self.resync_pending.insert(h);
            }
        }
        self.prev = current;
        self.initialized = true;
        outcome
    }
}

/// The CSR layer and the reference, updated in lockstep on twin
/// channels and compared after every pass.
struct Lockstep {
    csr: IntraClusterRouting,
    reference: Reference,
    channels: (Channel, Channel),
}

impl Lockstep {
    fn new(policy: UpdatePolicy, channel: impl Fn() -> Channel) -> Self {
        Lockstep {
            csr: IntraClusterRouting::with_policy(policy),
            reference: Reference {
                policy,
                ..Reference::default()
            },
            channels: (channel(), channel()),
        }
    }

    fn update(&mut self, dt: f64, t: &Topology, c: &Clustering<LowestId>) -> RouteUpdateOutcome {
        let mut quiet = QuietCtx::new();
        let got = self
            .csr
            .update(dt, t, c, &mut self.channels.0, &mut quiet.ctx());
        let want = self.reference.update(dt, t, c, &mut self.channels.1);
        assert_eq!(got, want, "outcome diverged from the reference");
        assert_eq!(
            self.csr.resync_backlog(),
            self.reference.resync_pending.len(),
            "re-sync backlog diverged from the reference"
        );
        got
    }
}

/// Runs N = 200 RandomWaypoint nodes for 250 ticks under maintained
/// LID, comparing the CSR layer with the reference on every pass;
/// returns the summed outcome.
fn run_against_reference(
    policy: UpdatePolicy,
    channel: impl Fn() -> Channel,
) -> RouteUpdateOutcome {
    use manet_mobility::{Mobility, RandomWaypoint};
    use manet_util::Rng;
    let region = SquareRegion::new(600.0);
    let mut rng = Rng::seed_from_u64(23);
    let mut mob = RandomWaypoint::new(region, 200, 1.0, 15.0, 0.0, &mut rng);
    let mut t = Topology::compute(mob.positions(), region, 80.0, Metric::Euclidean);
    let mut c = Clustering::form(LowestId, &t);
    let mut both = Lockstep::new(policy, channel);
    let mut total = RouteUpdateOutcome::default();
    for _ in 0..250 {
        total.absorb(both.update(0.5, &t, &c));
        mob.step(0.5, &mut rng);
        t = Topology::compute(mob.positions(), region, 80.0, Metric::Euclidean);
        m(&mut c, &t);
    }
    total
}

#[test]
fn csr_diff_matches_the_reference_per_change() {
    // The fault plane's ideal channel: no draws lost, no re-syncs.
    let ideal_plan = || FaultPlan::ideal().channel(STREAM_ROUTE);
    let total = run_against_reference(UpdatePolicy::PerChange, ideal_plan);
    assert!(total.clusters_updated > 0 && total.update_rounds > total.clusters_updated);
    assert_eq!((total.lost_messages, total.resync_rounds), (0, 0));
}

#[test]
fn csr_diff_matches_the_reference_coalesced() {
    let total = run_against_reference(UpdatePolicy::Coalesced { interval: 2.0 }, ideal);
    assert!(total.clusters_updated > 0);
    assert_eq!(total.update_rounds, total.clusters_updated);
}

#[test]
fn csr_diff_matches_the_reference_on_a_lossy_channel() {
    let total = run_against_reference(UpdatePolicy::PerChange, || lossy(0.3));
    assert!(total.lost_messages > 0 && total.resync_rounds > 0);
}

#[test]
fn dissolved_cluster_and_promoted_member_match_the_reference() {
    // Clusters {0} and {1, 2}. Head 1 then meets head 0 and resigns
    // into it; its member 2, left without a head in range, promotes
    // itself. Head id 1's bucket empties; id 2, a member last tick,
    // leads a new cluster.
    let t0 = topo(&[(0.0, 0.0), (100.0, 0.0), (101.0, 0.0)], 1.2);
    let t1 = topo(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], 1.2);
    let mut c = Clustering::form(LowestId, &t0);
    assert_eq!(c.head_of(2), 1);
    let mut both = Lockstep::new(UpdatePolicy::PerChange, ideal);
    both.update(0.0, &t0, &c);
    m(&mut c, &t1);
    assert!(!c.is_head(1) && c.is_head(2));
    let o = both.update(0.0, &t1, &c);
    // Cluster 0 gains link (0, 1): one round of 2; new cluster 2: one
    // round of 1; the dissolved cluster 1 is not charged.
    assert_eq!(o.clusters_updated, 2);
    assert_eq!(o.update_rounds, 2);
    assert_eq!(o.route_messages, 3);
}

#[test]
fn pending_resync_on_a_dissolving_head_matches_the_reference() {
    // Cluster {1, 2, 3} loses its 2–3 link over a black hole, so head
    // 1 is pending a re-sync; next tick head 1 resigns into head 0 and
    // its members promote themselves.
    let t0 = topo(&[(0.0, 9.0), (50.0, 9.0), (50.9, 9.3), (50.9, 8.7)], 1.0);
    let t1 = topo(&[(0.0, 9.0), (50.0, 9.0), (50.6, 9.7), (50.6, 8.3)], 1.0);
    let t2 = topo(&[(0.0, 9.0), (0.5, 9.0), (50.6, 9.7), (50.6, 8.3)], 1.0);
    let mut c = Clustering::form(LowestId, &t0);
    let mut both = Lockstep::new(UpdatePolicy::PerChange, black_hole);
    both.update(0.0, &t0, &c);
    m(&mut c, &t1);
    let o = both.update(0.0, &t1, &c);
    assert_eq!((o.route_messages, o.lost_messages), (3, 3));
    assert_eq!(both.csr.resync_backlog(), 1);
    m(&mut c, &t2);
    assert!(!c.is_head(1) && c.is_head(2) && c.is_head(3));
    let o = both.update(0.0, &t2, &c);
    assert_eq!(
        o.resync_rounds, 0,
        "the dissolved cluster's re-sync is dropped"
    );
    // Clusters 0 (gained 1), 2 and 3 (new) were charged and lost.
    assert_eq!(o.clusters_updated, 3);
    assert_eq!(both.csr.resync_backlog(), 3);
    both.channels = (ideal(), ideal());
    let o = both.update(0.0, &t2, &c);
    assert_eq!((o.resync_rounds, o.resync_messages), (3, 4));
    assert_eq!(both.csr.resync_backlog(), 0);
}

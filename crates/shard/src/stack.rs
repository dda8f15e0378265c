//! [`ShardedStack`]: the canonical protocol stack ticked over a shard
//! plane.
//!
//! A thin pairing of a [`ProtocolStack`] and a [`ShardPlane`]: every tick
//! runs the same canonical stage order
//! (Mobility → Topology → HELLO → Cluster → Route → Telemetry), with the
//! plane supplying every stage strategy (`StackStages`): plan/apply
//! mobility, the ghost-margin sharded topology rebuild, frame-scoped
//! HELLO/Cluster passes over the plane's ownership partition, and the
//! route diff run whole. The stack inherits the monolithic stack's
//! counters, reports, and traces bit-for-bit — the golden-parity tests in
//! the workspace root pin this — while the scoped stages' pure scan work
//! fans out across the worker pool.

use crate::interconnect::InterconnectConfig;
use crate::plane::{ShardPlane, ShardReport};
use manet_geom::{ShardDims, ShardLayout, ShardLayoutError};
use manet_sim::{FaultError, HelloProtocol, StepCtx, World};
use manet_stack::{ClusterLayer, ProtocolStack, RouteLayer, StackReport};
use manet_telemetry::ShardSnapshot;
use std::ops::{Deref, DerefMut};

/// A [`ProtocolStack`] whose every stage runs on a [`ShardPlane`].
///
/// Dereferences to the inner [`ProtocolStack`] for everything except
/// `tick`/`run`, which are shadowed to route through the plane. Calling
/// the inner stack's own `tick` (via [`ShardedStack::stack_mut`]) is
/// harmless — it produces the identical result on the monolithic path —
/// but wastes the sharding.
pub struct ShardedStack<C, R> {
    stack: ProtocolStack<C, R>,
    plane: ShardPlane,
}

impl<C: ClusterLayer, R: RouteLayer> ShardedStack<C, R> {
    /// Wraps an assembled stack with a shard plane of `dims`.
    ///
    /// # Errors
    ///
    /// Fails when the layout is too fine for the world's radio radius
    /// (see [`ShardPlane::new`]).
    pub fn new(stack: ProtocolStack<C, R>, dims: ShardDims) -> Result<Self, ShardLayoutError> {
        let plane = ShardPlane::for_world(stack.world(), dims)?;
        Ok(ShardedStack { stack, plane })
    }

    /// The sharded ideal stack (see [`ProtocolStack::ideal`]).
    pub fn ideal(
        world: World,
        cluster: C,
        route: R,
        dims: ShardDims,
    ) -> Result<Self, ShardLayoutError> {
        ShardedStack::new(ProtocolStack::ideal(world, cluster, route), dims)
    }

    /// The sharded fault-plane stack (see [`ProtocolStack::faulty`]).
    pub fn faulty(
        world: World,
        cluster: C,
        route: R,
        hello: HelloProtocol,
        dims: ShardDims,
    ) -> Result<Self, ShardLayoutError> {
        ShardedStack::new(ProtocolStack::faulty(world, cluster, route, hello), dims)
    }

    /// Caps the shard worker pool (see [`ShardPlane::with_workers`]).
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> Self {
        self.plane = self.plane.with_workers(n);
        self
    }

    /// Replaces the plane's interconnect (see
    /// [`ShardPlane::with_interconnect`]).
    ///
    /// # Errors
    ///
    /// Fails when the config's loss model or stall schedule is invalid
    /// for this layout.
    pub fn with_interconnect(mut self, config: InterconnectConfig) -> Result<Self, FaultError> {
        self.plane = self.plane.with_interconnect(config)?;
        Ok(self)
    }

    /// A point-in-time shard + link-health view for the Prometheus
    /// exporter (see [`ShardPlane::snapshot`]).
    pub fn shard_snapshot(&self) -> ShardSnapshot {
        self.plane.snapshot()
    }

    /// Advances the stack by one tick, every stage on the shard plane:
    /// plan/apply mobility, sharded topology, frame-scoped HELLO/Cluster
    /// passes and the route diff.
    pub fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        self.stack.tick_staged(ctx, &mut self.plane)
    }

    /// Runs whole ticks until at least `seconds` more simulated time has
    /// elapsed, returning the aggregated report.
    pub fn run(&mut self, seconds: f64, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        self.stack.run_staged(seconds, ctx, &mut self.plane)
    }

    /// The shard plane.
    pub fn plane(&self) -> &ShardPlane {
        &self.plane
    }

    /// The shard layout geometry.
    pub fn layout(&self) -> &ShardLayout {
        self.plane.layout()
    }

    /// Aggregated shard statistics for the most recent tick.
    pub fn shard_report(&self) -> ShardReport {
        self.plane.report()
    }

    /// The inner monolithic stack.
    pub fn stack(&self) -> &ProtocolStack<C, R> {
        &self.stack
    }

    /// Mutable access to the inner stack.
    pub fn stack_mut(&mut self) -> &mut ProtocolStack<C, R> {
        &mut self.stack
    }

    /// Decomposes into the inner stack and the plane.
    pub fn into_parts(self) -> (ProtocolStack<C, R>, ShardPlane) {
        (self.stack, self.plane)
    }
}

impl<C, R> Deref for ShardedStack<C, R> {
    type Target = ProtocolStack<C, R>;
    fn deref(&self) -> &Self::Target {
        &self.stack
    }
}

impl<C, R> DerefMut for ShardedStack<C, R> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_cluster::{Clustering, LowestId};
    use manet_geom::ShardDims;
    use manet_routing::intra::IntraClusterRouting;
    use manet_sim::{HelloMode, QuietCtx, SimBuilder};

    fn world(seed: u64) -> World {
        SimBuilder::new()
            .nodes(120)
            .side(500.0)
            .radius(80.0)
            .speed(10.0)
            .dt(0.5)
            .seed(seed)
            .hello_mode(HelloMode::EventDriven)
            .build()
    }

    /// The sharded stack's aggregated report equals the monolithic
    /// stack's, tick by tick, for every layout.
    #[test]
    fn sharded_reports_match_monolithic() {
        for dims in ["1x1", "2x2", "4x1"] {
            let dims = ShardDims::parse(dims).unwrap();
            let w = world(42);
            let c = Clustering::form(LowestId, w.topology());
            let mut mono = ProtocolStack::ideal(w, c, IntraClusterRouting::new());
            let w = world(42);
            let c = Clustering::form(LowestId, w.topology());
            let mut sharded = ShardedStack::ideal(w, c, IntraClusterRouting::new(), dims).unwrap();
            let mut qa = QuietCtx::new();
            let mut qb = QuietCtx::new();
            mono.prime(&mut qa.ctx());
            sharded.prime(&mut qb.ctx());
            for tick in 0..60 {
                let a = mono.tick(&mut qa.ctx());
                let b = sharded.tick(&mut qb.ctx());
                assert_eq!(a, b, "{dims}: tick {tick} diverged");
            }
            assert_eq!(mono.world().counters(), sharded.world().counters());
            assert_eq!(mono.world().positions(), sharded.world().positions());
        }
    }

    /// Deref exposes the inner stack's accessors; the shard report sees
    /// the plane.
    #[test]
    fn accessors_reach_both_halves() {
        let w = world(7);
        let c = Clustering::form(LowestId, w.topology());
        let dims = ShardDims::parse("2x2").unwrap();
        let mut s = ShardedStack::ideal(w, c, IntraClusterRouting::new(), dims)
            .unwrap()
            .with_workers(1);
        let mut q = QuietCtx::new();
        s.prime(&mut q.ctx());
        s.tick(&mut q.ctx());
        assert_eq!(s.layout().count(), 4);
        assert_eq!(s.shard_report().shards, 4);
        assert!(s.world().time() > 0.0); // via Deref
        assert_eq!(s.plane().workers(), 1);
        let (stack, plane) = s.into_parts();
        assert!(stack.world().time() > 0.0);
        assert_eq!(plane.layout().count(), 4);
    }

    /// A layout too fine for the radius is a construction-time error.
    #[test]
    fn oversharded_world_is_rejected() {
        let w = world(1);
        let c = Clustering::form(LowestId, w.topology());
        let dims = ShardDims::parse("16x16").unwrap();
        assert!(ShardedStack::ideal(w, c, IntraClusterRouting::new(), dims).is_err());
    }
}

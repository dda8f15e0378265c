//! The traced run's stage bundle: a wrapper that delegates every stage of
//! the canonical tick to the workload's own bundle and times each call.
//!
//! `ProtocolStack::tick_staged` owns the stage order, the counters and the
//! telemetry; the bundle only supplies each stage's strategy. Wrapping the
//! bundle therefore times the calls into each layer from the benchmark's
//! side without touching the program, and the tick it drives is by
//! definition the tick of the untraced run.

use crate::alloc;
use manet_cluster::ClusterAssignment;
use manet_geom::{Metric, SpatialGrid, SquareRegion, Vec2};
use manet_mobility::Mobility;
use manet_routing::intra::RouteUpdateOutcome;
use manet_shard::{ShardPlane, ShardReport};
use manet_sim::{Channel, HelloProtocol, MobilityStage, StepCtx, Topology, TopologyBuilder};
use manet_stack::{
    ClusterFlow, ClusterLayer, ClusterStage, HelloStage, MonoStages, RouteLayer, RouteStage,
    StackStages,
};
use manet_telemetry::Probe;
use manet_util::Rng;
use std::time::Instant;

/// A workload's stage bundle, plus what the benchmark reads off it.
pub trait Bundle: StackStages {
    /// The shard plane's report for the last tick, when the bundle is one.
    fn shard_report(&self) -> Option<ShardReport>;
}

impl Bundle for MonoStages {
    fn shard_report(&self) -> Option<ShardReport> {
        None
    }
}

impl Bundle for ShardPlane {
    fn shard_report(&self) -> Option<ShardReport> {
        Some(self.report())
    }
}

/// Wall time and allocations of each stage within one tick, indexed in
/// [`crate::report::STAGES`] order.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSample {
    /// Nanoseconds spent in each stage.
    pub ns: [u64; 5],
    /// Allocations made in each stage.
    pub allocs: [u64; 5],
}

/// Times every delegated stage call of `inner`.
pub struct TimedStages<S> {
    /// The workload's own bundle.
    pub inner: S,
    /// The current tick's accumulated sample; the driver takes it after
    /// each tick.
    pub sample: StageSample,
}

impl<S: Bundle> TimedStages<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedStages {
            inner,
            sample: StageSample::default(),
        }
    }

    /// Returns and resets the current tick's sample.
    pub fn take(&mut self) -> StageSample {
        std::mem::take(&mut self.sample)
    }

    fn timed<T>(&mut self, stage: usize, call: impl FnOnce(&mut S) -> T) -> T {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let out = call(&mut self.inner);
        self.sample.ns[stage] += t0.elapsed().as_nanos() as u64;
        self.sample.allocs[stage] += alloc::count() - a0;
        out
    }
}

impl<S: Bundle> MobilityStage for TimedStages<S> {
    fn advance(&mut self, mobility: &mut dyn Mobility, dt: f64, rng: &mut Rng) {
        self.timed(0, |s| s.advance(mobility, dt, rng));
    }
}

impl<S: Bundle> TopologyBuilder for TimedStages<S> {
    fn build_into(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        grid: &mut Option<SpatialGrid>,
        out: &mut Topology,
        probe: &mut Probe<'_>,
        now: f64,
    ) {
        self.timed(1, |s| {
            s.build_into(positions, region, radius, metric, grid, out, probe, now)
        });
    }
}

impl<S: Bundle> HelloStage for TimedStages<S> {
    fn hello(
        &mut self,
        proto: &mut HelloProtocol,
        topology: &Topology,
        channel: &mut Channel,
        alive: &[bool],
        ctx: &mut StepCtx<'_, '_>,
    ) -> (u64, u64) {
        self.timed(2, |s| s.hello(proto, topology, channel, alive, ctx))
    }
}

impl<S: Bundle> ClusterStage for TimedStages<S> {
    fn cluster(
        &mut self,
        layer: &mut dyn ClusterLayer,
        topology: &Topology,
        alive: &[bool],
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> ClusterFlow {
        self.timed(3, |s| s.cluster(layer, topology, alive, channel, ctx))
    }
}

impl<S: Bundle> RouteStage for TimedStages<S> {
    fn route(
        &mut self,
        layer: &mut dyn RouteLayer,
        dt: f64,
        topology: &Topology,
        clusters: &dyn ClusterAssignment,
        channel: &mut Channel,
        ctx: &mut StepCtx<'_, '_>,
    ) -> RouteUpdateOutcome {
        self.timed(4, |s| s.route(layer, dt, topology, clusters, channel, ctx))
    }
}

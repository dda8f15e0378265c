//! The simulator workloads: the canonical tick at a stated N, driven
//! untraced through the public entry points (`ProtocolStack::tick`,
//! `ShardedStack::tick`) or traced through `ProtocolStack::tick_staged`
//! with the timing wrapper around the workload's stage bundle.

use crate::alloc;
use crate::report::{Report, STAGES};
use crate::stats::{median, peak_rss_mb, quantile, ratio, Digest};
use crate::timed::{Bundle, StageSample, TimedStages};
use manet_cluster::{Backoff, Clustering, LowestId, SelfHealing};
use manet_routing::intra::IntraClusterRouting;
use manet_shard::{ShardDims, ShardPlane, ShardReport, ShardedStack};
use manet_sim::{
    ChurnSchedule, FaultPlan, HelloMode, HelloProtocol, LossModel, MessageKind, QuietCtx,
    SimBuilder, StepCtx, World,
};
use manet_stack::{ClusterLayer, MonoStages, ProtocolStack, RouteLayer, StackReport};
use std::time::Instant;

const RADIUS: f64 = 150.0;
const DT: f64 = 0.5;
/// Nodes per m² (400 per km²), fixed across sizes.
const DENSITY: f64 = 400.0 / 1e6;
/// Ticks run before measuring, so clustering settles and buffers warm.
const WARMUP_TICKS: usize = 20;
/// Ideal workloads audit the cluster structure every this many ticks.
const AUDIT_EVERY: u64 = 64;
/// Safety cap on measured ticks per run.
const MAX_TICKS: u64 = 40_000;
/// Times the workload is set up per untraced run, spread over the run;
/// `setup_s` is the median.
const SETUP_REPEATS: usize = 9;
/// Churn schedule horizon, simulated seconds (covers `MAX_TICKS`).
const CHURN_HORIZON: f64 = 2.0 * MAX_TICKS as f64 * DT;

/// Which protocol stack a simulator workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    /// The ideal stack, single-threaded: `ProtocolStack::tick`.
    Ideal,
    /// The ideal stack on a shard plane of this layout and worker count:
    /// `ShardedStack::tick`.
    Sharded(&'static str, usize),
    /// The fault-plane stack (lossy channels, crash churn, explicit HELLO,
    /// self-healing LID): `ProtocolStack::tick`.
    Faulty,
}

/// One simulator workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Node count.
    pub nodes: usize,
    /// Node speed, m/s.
    pub speed: f64,
    /// The stack and its execution layout.
    pub stack: Stack,
}

impl SimSpec {
    fn side(&self) -> f64 {
        (self.nodes as f64 / DENSITY).sqrt()
    }

    fn world(&self, seed: u64) -> World {
        let builder = SimBuilder::new()
            .nodes(self.nodes)
            .side(self.side())
            .radius(RADIUS)
            .speed(self.speed)
            .dt(DT)
            .seed(seed);
        if self.stack != Stack::Faulty {
            return builder.hello_mode(HelloMode::EventDriven).build();
        }
        let churn =
            ChurnSchedule::poisson(self.nodes, 0.002, 20.0, CHURN_HORIZON, seed ^ 0xC0_FFEE)
                .expect("valid churn parameters");
        let plan = FaultPlan {
            loss: LossModel::Bernoulli { p: 0.1 },
            churn,
            seed: seed ^ 0xFA_017,
        }
        .validated()
        .expect("valid fault plan");
        builder.hello_mode(HelloMode::Disabled).fault(plan).build()
    }
}

type Ideal = ProtocolStack<Clustering<LowestId>, IntraClusterRouting>;
type Faulty = ProtocolStack<SelfHealing<LowestId>, IntraClusterRouting>;

/// The ideal stack with its routing baseline filled.
fn ideal_stack(spec: &SimSpec, seed: u64) -> Ideal {
    let world = spec.world(seed);
    let clustering = Clustering::form(LowestId, world.topology());
    let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
    stack.prime(&mut QuietCtx::new().ctx());
    stack
}

fn faulty_stack(spec: &SimSpec, seed: u64) -> Faulty {
    let world = spec.world(seed);
    let hello = HelloProtocol::new(spec.nodes, 1.0, 3.0);
    let healer = SelfHealing::new(
        Clustering::form(LowestId, world.topology()),
        Backoff::default(),
        8,
    );
    let mut stack = ProtocolStack::faulty(world, healer, IntraClusterRouting::new(), hello);
    stack.prime(&mut QuietCtx::new().ctx());
    stack
}

/// The ideal stack on a shard plane (priming touches no plane state, so
/// a primed stack wraps as is).
fn sharded_stack(
    spec: &SimSpec,
    seed: u64,
    layout: &str,
    workers: usize,
) -> ShardedStack<Clustering<LowestId>, IntraClusterRouting> {
    let dims = ShardDims::parse(layout).expect("layout literal");
    ShardedStack::new(ideal_stack(spec, seed), dims)
        .unwrap_or_else(|e| panic!("layout {dims}: {e}"))
        .with_workers(workers)
}

/// What the run loop needs from a driven stack.
trait Driver {
    /// One canonical tick.
    fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) -> StackReport;
    /// The stack being driven.
    fn world_mut(&mut self) -> &mut World;
    /// Post-maintenance structural violations: adjacent head pairs plus
    /// headless members.
    fn violations(&self) -> usize;
    /// The shard plane's last-tick report, for sharded drivers.
    fn shard_report(&self) -> Option<ShardReport>;
    /// The stage timings of the last tick, for traced drivers.
    fn take_sample(&mut self) -> Option<StageSample>;
}

fn violations<C: ClusterLayer, R: RouteLayer>(stack: &ProtocolStack<C, R>) -> usize {
    let sample = stack.audit_sample(stack.world().time());
    sample.adjacent_head_pairs.len() + sample.headless_members.len()
}

/// The untraced monolithic stack: `ProtocolStack::tick`.
impl<C: ClusterLayer, R: RouteLayer> Driver for ProtocolStack<C, R> {
    fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        ProtocolStack::tick(self, ctx)
    }
    fn world_mut(&mut self) -> &mut World {
        ProtocolStack::world_mut(self)
    }
    fn violations(&self) -> usize {
        violations(self)
    }
    fn shard_report(&self) -> Option<ShardReport> {
        None
    }
    fn take_sample(&mut self) -> Option<StageSample> {
        None
    }
}

/// The untraced sharded stack: `ShardedStack::tick`.
impl<C: ClusterLayer, R: RouteLayer> Driver for ShardedStack<C, R> {
    fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        ShardedStack::tick(self, ctx)
    }
    fn world_mut(&mut self) -> &mut World {
        self.stack_mut().world_mut()
    }
    fn violations(&self) -> usize {
        violations(self.stack())
    }
    fn shard_report(&self) -> Option<ShardReport> {
        Some(ShardedStack::shard_report(self))
    }
    fn take_sample(&mut self) -> Option<StageSample> {
        None
    }
}

/// The traced stack: `ProtocolStack::tick_staged` over the timing wrapper.
struct Traced<C, R, S> {
    stack: ProtocolStack<C, R>,
    stages: TimedStages<S>,
}

impl<C: ClusterLayer, R: RouteLayer, S: Bundle> Driver for Traced<C, R, S> {
    fn tick(&mut self, ctx: &mut StepCtx<'_, '_>) -> StackReport {
        self.stack.tick_staged(ctx, &mut self.stages)
    }
    fn world_mut(&mut self) -> &mut World {
        self.stack.world_mut()
    }
    fn violations(&self) -> usize {
        violations(&self.stack)
    }
    fn shard_report(&self) -> Option<ShardReport> {
        self.stages.inner.shard_report()
    }
    fn take_sample(&mut self) -> Option<StageSample> {
        Some(self.stages.take())
    }
}

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Tick until this much wall time has passed.
    Seconds(f64),
    /// Exactly this many measured ticks.
    Ticks(u64),
}

/// One measured run of a driven stack.
#[derive(Debug, Default)]
struct Run {
    /// Measured ticks.
    ticks: u64,
    /// Wall time of each measured tick, ms.
    tick_ms: Vec<f64>,
    /// Allocations inside measured ticks.
    tick_allocs: u64,
    /// Per-tick stage samples (traced runs only).
    stages: Vec<StageSample>,
    /// The measured window's aggregated report.
    agg: StackReport,
    /// HELLO messages the counters recorded over the measured window.
    hello_msgs: u64,
    /// Digest after the warmup ticks.
    prefix: Digest,
    /// Digest after the whole run.
    digest: Digest,
    /// Shard-report sums over measured ticks.
    ghosts: u64,
    migrations: u64,
    boundary_links: u64,
    owned_ratio_sum: f64,
    /// Set-up times sampled during the run, seconds.
    setups: Vec<f64>,
    /// Structural audits made and failed.
    audits: u64,
    audit_failures: u64,
}

impl Run {
    fn ms_total(&self) -> f64 {
        self.tick_ms.iter().sum()
    }

    /// Ticks per second of tick wall time.
    fn ticks_per_s(&self) -> f64 {
        ratio(self.ticks as f64 * 1e3, self.ms_total())
    }

    fn per_tick(&self, x: f64) -> f64 {
        ratio(x, self.ticks as f64)
    }
}

/// The digest of a run so far: every aggregated `StackReport` count plus
/// the tick count and the final head count.
fn digest(ticks: u64, all: &StackReport) -> Digest {
    let m = &all.cluster.maintenance;
    let r = &all.route;
    let mut d = Digest::default();
    d.word(ticks)
        .word(all.time.to_bits())
        .word(all.generated)
        .word(all.broken)
        .word(all.crashed)
        .word(all.recovered)
        .word(all.hello_sent)
        .word(all.hello_lost)
        .word(m.break_reaffiliations)
        .word(m.break_promotions)
        .word(m.contact_resignations)
        .word(m.contact_reaffiliations)
        .word(m.contact_promotions)
        .word(m.lost_sends)
        .word(m.deferred_sends)
        .word(all.cluster.retransmissions)
        .word(all.cluster.repairs)
        .word(all.cluster.violations_left)
        .word(r.clusters_updated)
        .word(r.update_rounds)
        .word(r.route_messages)
        .word(r.route_entries)
        .word(r.lost_messages)
        .word(r.resync_rounds)
        .word(r.resync_messages)
        .word(all.heads);
    d
}

/// Warms `d` up, then ticks it for `budget`. With `setup`, a fresh set-up
/// of that workload is timed at [`SETUP_REPEATS`] even points of a
/// seconds budget, between ticks, so `setup_s` samples the same stretch
/// of host time the ticks do.
fn drive<D: Driver>(d: &mut D, budget: Budget, audit: bool, setup: Option<(&SimSpec, u64)>) -> Run {
    let mut quiet = QuietCtx::new();
    let mut all = StackReport::default();
    for _ in 0..WARMUP_TICKS {
        all.absorb(d.tick(&mut quiet.ctx()));
        d.take_sample();
    }
    let mut run = Run {
        prefix: digest(WARMUP_TICKS as u64, &all),
        ..Run::default()
    };
    d.world_mut().begin_measurement();
    let (max_ticks, max_s) = match budget {
        Budget::Seconds(s) => (MAX_TICKS, s),
        Budget::Ticks(t) => (t, f64::INFINITY),
    };
    run.tick_ms.reserve(max_ticks.min(MAX_TICKS) as usize);
    let setup_every = max_s / SETUP_REPEATS as f64;
    let start = Instant::now();
    while run.ticks < max_ticks && start.elapsed().as_secs_f64() < max_s {
        if let Some((spec, seed)) = setup {
            if start.elapsed().as_secs_f64() >= setup_every * run.setups.len() as f64 {
                run.setups.push(setup_seconds(spec, seed));
            }
        }
        let a0 = alloc::count();
        let t0 = Instant::now();
        let r = d.tick(&mut quiet.ctx());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        run.tick_allocs += alloc::count() - a0;
        run.tick_ms.push(ms);
        run.ticks += 1;
        all.absorb(r);
        run.agg.absorb(r);
        if let Some(s) = d.take_sample() {
            run.stages.push(s);
        }
        if let Some(s) = d.shard_report() {
            run.ghosts += s.ghosts as u64;
            run.migrations += s.migrations as u64;
            run.boundary_links += s.boundary_links as u64;
            run.owned_ratio_sum += ratio(s.max_owned as f64, s.min_owned as f64);
        }
        if audit && run.ticks.is_multiple_of(AUDIT_EVERY) {
            run.audits += 1;
            if d.violations() > 0 {
                run.audit_failures += 1;
            }
        }
    }
    run.hello_msgs = d.world_mut().counters().messages(MessageKind::Hello);
    run.digest = digest(WARMUP_TICKS as u64 + run.ticks, &all);
    run
}

/// Builds the untraced driver for `spec` and runs it.
fn untraced(spec: &SimSpec, seed: u64, budget: Budget, sample_setup: bool) -> Run {
    let setup = sample_setup.then_some((spec, seed));
    match spec.stack {
        Stack::Ideal => drive(&mut ideal_stack(spec, seed), budget, true, setup),
        Stack::Sharded(layout, workers) => drive(
            &mut sharded_stack(spec, seed, layout, workers),
            budget,
            true,
            setup,
        ),
        Stack::Faulty => drive(&mut faulty_stack(spec, seed), budget, false, setup),
    }
}

/// Builds the traced driver for `spec` and runs it.
fn traced(spec: &SimSpec, seed: u64, budget: Budget) -> Run {
    let mono = || TimedStages::new(MonoStages::new());
    match spec.stack {
        Stack::Ideal => drive(
            &mut Traced {
                stack: ideal_stack(spec, seed),
                stages: mono(),
            },
            budget,
            true,
            None,
        ),
        Stack::Sharded(layout, workers) => {
            let stack = ideal_stack(spec, seed);
            let dims = ShardDims::parse(layout).expect("layout literal");
            let plane = ShardPlane::for_world(stack.world(), dims)
                .unwrap_or_else(|e| panic!("layout {dims}: {e}"))
                .with_workers(workers);
            drive(
                &mut Traced {
                    stack,
                    stages: TimedStages::new(plane),
                },
                budget,
                true,
                None,
            )
        }
        Stack::Faulty => drive(
            &mut Traced {
                stack: faulty_stack(spec, seed),
                stages: mono(),
            },
            budget,
            false,
            None,
        ),
    }
}

/// Wall time of setting the workload up to its first tick: world,
/// initial clustering, stack (and shard plane), routing baseline.
fn setup_seconds(spec: &SimSpec, seed: u64) -> f64 {
    let t0 = Instant::now();
    match spec.stack {
        Stack::Ideal => drop(ideal_stack(spec, seed)),
        Stack::Sharded(layout, workers) => drop(sharded_stack(spec, seed, layout, workers)),
        Stack::Faulty => drop(faulty_stack(spec, seed)),
    }
    t0.elapsed().as_secs_f64()
}

/// The determinism contract on sharded workloads: the warmup-prefix
/// digest equals the monolithic `ProtocolStack::tick` digest at the same
/// seed.
fn check_shard_parity(spec: &SimSpec, seed: u64, run: &Run, report: &mut Report) {
    if !matches!(spec.stack, Stack::Sharded(..)) {
        return;
    }
    let mono = SimSpec {
        stack: Stack::Ideal,
        ..*spec
    };
    let reference = untraced(&mono, seed, Budget::Ticks(0), false);
    report.check(
        reference.prefix == run.prefix,
        &format!(
            "sharded prefix digest {} != monolithic {}",
            run.prefix.hex(),
            reference.prefix.hex()
        ),
    );
}

fn check_audits(run: &Run, report: &mut Report) {
    for i in 0..run.audits {
        report.check(
            i >= run.audit_failures,
            "cluster audit found adjacent heads or headless members",
        );
    }
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(spec: &SimSpec, seed: u64, seconds: f64, report: &mut Report) -> String {
    let run = untraced(spec, seed, Budget::Seconds(seconds), true);
    report.set("peak_rss_mb", peak_rss_mb(None));
    report.check(run.ticks > 0, "at least one tick measured");
    check_audits(&run, report);
    check_shard_parity(spec, seed, &run, report);
    report.set("throughput_per_s", run.ticks_per_s());
    report.set("latency_p50_ms", quantile(&run.tick_ms, 0.5));
    report.set("latency_p90_ms", quantile(&run.tick_ms, 0.9));
    report.set("setup_s", median(&run.setups));
    format!(
        "ticks={} digest={} prefix_digest={}",
        run.ticks,
        run.digest.hex(),
        run.prefix.hex()
    )
}

/// The traced run: an untraced half, then the same ticks again from the
/// same seed through the timing wrapper; per-layer metrics.
pub fn per_layer(spec: &SimSpec, seed: u64, seconds: f64, report: &mut Report) -> String {
    let plain = untraced(spec, seed, Budget::Seconds(seconds / 2.0), false);
    let run = traced(spec, seed, Budget::Ticks(plain.ticks));
    report.check(run.ticks > 0, "at least one tick measured");
    report.check(
        plain.digest == run.digest,
        &format!(
            "traced digest {} != untraced digest {}",
            run.digest.hex(),
            plain.digest.hex()
        ),
    );
    check_audits(&plain, report);
    check_audits(&run, report);
    check_shard_parity(spec, seed, &run, report);

    let tick_total = run.ms_total();
    let mut stage_total = 0.0;
    let mut table = vec![format!(
        "{:<10} {:>12} {:>8} {:>10} {:>14}",
        "stage", "ms/tick", "share", "p99 us", "allocs/tick"
    )];
    for (i, name) in STAGES.iter().enumerate() {
        let per_tick_us: Vec<f64> = run.stages.iter().map(|s| s.ns[i] as f64 / 1e3).collect();
        let total_ms = per_tick_us.iter().sum::<f64>() / 1e3;
        let allocs: u64 = run.stages.iter().map(|s| s.allocs[i]).sum();
        stage_total += total_ms;
        let values = [
            run.per_tick(total_ms),
            ratio(total_ms, tick_total),
            quantile(&per_tick_us, 0.99),
            run.per_tick(allocs as f64),
        ];
        for (suffix, v) in ["ms_per_tick", "share", "p99_us", "allocs_per_tick"]
            .iter()
            .zip(values)
        {
            report.set(metric_name(name, suffix), v);
        }
        table.push(format!(
            "{name:<10} {:>12.4} {:>8.4} {:>10.1} {:>14.2}",
            values[0], values[1], values[2], values[3]
        ));
    }
    let residual = tick_total - stage_total;
    let overhead = ratio(plain.ticks_per_s(), run.ticks_per_s());
    table.push(format!(
        "{:<10} {:>12.4} {:>8.4}",
        "residual",
        run.per_tick(residual),
        ratio(residual, tick_total)
    ));
    table.push(format!(
        "{:<10} {:>12.4} {:>8.4} {:>10.1} {:>14.2}   trace.overhead_ratio={overhead:.4}",
        "tick",
        run.per_tick(tick_total),
        1.0,
        quantile(&run.tick_ms, 0.99) * 1e3,
        run.per_tick(run.tick_allocs as f64)
    ));
    report.set("stack.residual_ms_per_tick", run.per_tick(residual));
    report.set("stack.residual_share", ratio(residual, tick_total));
    report.set("latency_p99_ms", quantile(&plain.tick_ms, 0.99));
    report.set("tick.ms_per_tick", run.per_tick(tick_total));
    report.set("tick.p99_ms", quantile(&run.tick_ms, 0.99));
    report.set("tick.allocs_per_tick", run.per_tick(run.tick_allocs as f64));
    report.set("trace.overhead_ratio", overhead);

    let a = &run.agg;
    let link_events = (a.generated + a.broken) as f64;
    let cluster_msgs = a.cluster.maintenance.attempted_messages() as f64;
    let route_msgs = a.route.attempted_messages() as f64;
    report.set("sim.link_events_per_tick", run.per_tick(link_events));
    report.set("hello.sent_per_tick", run.per_tick(run.hello_msgs as f64));
    report.set(
        "hello.lost_ratio",
        ratio(a.hello_lost as f64, run.hello_msgs as f64),
    );
    report.set("cluster.msgs_per_tick", run.per_tick(cluster_msgs));
    report.set(
        "cluster.lost_ratio",
        ratio(a.cluster.maintenance.lost_sends as f64, cluster_msgs),
    );
    report.set(
        "cluster.retx_ratio",
        ratio(a.cluster.retransmissions as f64, cluster_msgs),
    );
    report.set("cluster.heads", a.heads as f64);
    report.set("route.msgs_per_tick", run.per_tick(route_msgs));
    report.set("route.msgs_per_link_event", ratio(route_msgs, link_events));
    report.set(
        "route.resync_ratio",
        ratio(a.route.resync_messages as f64, route_msgs),
    );
    let sharded = matches!(spec.stack, Stack::Sharded(..));
    report.set("shard.ghosts_per_tick", run.per_tick(run.ghosts as f64));
    report.set(
        "shard.migrations_per_tick",
        run.per_tick(run.migrations as f64),
    );
    report.set(
        "shard.boundary_links",
        run.per_tick(run.boundary_links as f64),
    );
    report.set(
        "shard.owned_max_over_min",
        if sharded {
            run.per_tick(run.owned_ratio_sum)
        } else {
            1.0
        },
    );
    format!(
        "ticks={} digest={}\n{}",
        run.ticks,
        run.digest.hex(),
        table.join("\n")
    )
}

/// `"<stage>.<suffix>"` as a static catalogue name.
fn metric_name(stage: &str, suffix: &str) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| n.strip_prefix(stage).and_then(|r| r.strip_prefix('.')) == Some(suffix))
        .unwrap_or_else(|| panic!("{stage}.{suffix} is not catalogued"))
}

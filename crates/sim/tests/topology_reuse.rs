//! Property tests for the allocation-reusing topology path (DESIGN.md §12):
//! `Topology::compute_into` over a reused buffer must equal a from-scratch
//! `Topology::compute`, whatever garbage the buffer held before — including
//! neighbor lists from a *larger* earlier network — and the tick diff must
//! stay a consistent, replayable stream after `retain_alive` edits both
//! endpoints of it.
//!
//! The cases are seeded (no external proptest dependency; the hermetic
//! build resolves zero crates). Larger sweeps ride behind the
//! `slow-proptests` feature like the rest of the property suites.

use manet_geom::{Metric, SpatialGrid, SquareRegion, Vec2};
use manet_sim::{LinkEventKind, Topology};
use manet_util::Rng;
use std::collections::BTreeSet;

fn random_positions(rng: &mut Rng, n: usize, side: f64) -> Vec<Vec2> {
    (0..n)
        .map(|_| Vec2::new(rng.f64() * side, rng.f64() * side))
        .collect()
}

fn assert_same(reused: &Topology, fresh: &Topology) {
    assert_eq!(reused.len(), fresh.len(), "node counts diverged");
    for i in 0..fresh.len() as u32 {
        assert_eq!(
            reused.neighbors(i),
            fresh.neighbors(i),
            "neighbor list of node {i} diverged"
        );
    }
}

/// Core property: recomputing into a dirty reused buffer gives exactly the
/// from-scratch topology, across changing node counts, radii, and metrics.
fn check_reuse(seed: u64, rounds: usize, max_nodes: usize) {
    let side = 500.0;
    let region = SquareRegion::new(side);
    let mut rng = Rng::seed_from_u64(seed);
    let mut reused = Topology::default();
    let mut grid: Option<SpatialGrid> = None;
    for round in 0..rounds {
        // Grow and shrink the network so truncate/resize paths both run.
        let n = 1 + rng.usize_below(max_nodes);
        let radius = rng.f64_range(10.0..side / 2.0);
        let metric = if rng.bernoulli(0.5) {
            Metric::toroidal(side)
        } else {
            Metric::Euclidean
        };
        let positions = random_positions(&mut rng, n, side);
        // Exercise both the cold build and the warm rebuild of the grid,
        // exactly as `World::step` does with its scratch buffers.
        match &mut grid {
            Some(g) => g.rebuild(&positions, region, radius, metric),
            None => grid = Some(SpatialGrid::build(&positions, region, radius, metric)),
        }
        let g = grid.as_ref().expect("grid built");
        reused.compute_into(g);
        let fresh = Topology::compute(&positions, region, radius, metric);
        assert_same(&reused, &fresh);
        // Symmetry + sortedness invariants hold on the reused buffer.
        for i in 0..n as u32 {
            let ns = reused.neighbors(i);
            assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "round {round}: unsorted"
            );
            for &j in ns {
                assert_ne!(i, j, "self-link");
                assert!(reused.are_linked(j, i), "asymmetric link {i}-{j}");
            }
        }
    }
}

/// Core property: after `retain_alive` rewrites both topologies, the diff
/// stream still transforms the old link set exactly into the new one, in
/// `a < b` order with no duplicate events.
fn check_diff_stability(seed: u64, rounds: usize, max_nodes: usize) {
    let side = 400.0;
    let region = SquareRegion::new(side);
    let metric = Metric::toroidal(side);
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..rounds {
        let n = 2 + rng.usize_below(max_nodes);
        let radius = rng.f64_range(20.0..side / 2.0);
        let p_dead = rng.f64() * 0.4;
        let alive: Vec<bool> = (0..n).map(|_| !rng.bernoulli(p_dead)).collect();

        let mut prev =
            Topology::compute(&random_positions(&mut rng, n, side), region, radius, metric);
        let mut next =
            Topology::compute(&random_positions(&mut rng, n, side), region, radius, metric);
        prev.retain_alive(&alive);
        next.retain_alive(&alive);

        let mut events = Vec::new();
        prev.diff_into(&next, &mut events);
        let mut links: BTreeSet<(u32, u32)> = prev.links().collect();
        let mut seen = BTreeSet::new();
        for e in &events {
            assert!(e.a < e.b, "event endpoints out of order: {e:?}");
            assert!(
                alive[e.a as usize] && alive[e.b as usize],
                "event touches a dead node: {e:?}"
            );
            let gen = matches!(e.kind, LinkEventKind::Generated);
            assert!(seen.insert((gen, e.a, e.b)), "duplicate event {e:?}");
            match e.kind {
                LinkEventKind::Generated => {
                    assert!(links.insert((e.a, e.b)), "generated existing link {e:?}")
                }
                LinkEventKind::Broken => {
                    assert!(links.remove(&(e.a, e.b)), "broke unknown link {e:?}")
                }
            };
        }
        let target: BTreeSet<(u32, u32)> = next.links().collect();
        assert_eq!(links, target, "replayed diff must land on the new topology");
    }
}

/// Seeded uniform points plus points on cell edges and on the torus seam,
/// and pairs `r` and `r ± 1 ulp` apart along each axis, inside the grid
/// (anchored on a cell edge) and across the seam.
fn probe_points(rng: &mut Rng, side: f64, radius: f64, k: usize) -> Vec<Vec2> {
    let mut pts = random_positions(rng, 150, side);
    let w = side / k as f64;
    let last = side.next_down();
    for m in 0..k {
        let (e, t) = (m as f64 * w, rng.f64() * side);
        pts.extend([Vec2::new(e, t), Vec2::new(t, e), Vec2::new(e, e)]);
    }
    let t = rng.f64() * side;
    pts.extend([Vec2::new(last, t), Vec2::new(t, last), Vec2::new(last, 0.0)]);
    let edge = if k > 1 { w } else { 0.0 };
    for d in [radius.next_down(), radius, radius.next_up()] {
        for (u, v) in [
            (0.0, d),
            (edge, edge + d),
            (side - d * 0.5, d * 0.5),
            (0.0, side - d),
        ] {
            let t = rng.f64() * side;
            pts.extend([
                Vec2::new(u, t),
                Vec2::new(v, t),
                Vec2::new(t, u),
                Vec2::new(t, v),
            ]);
        }
    }
    // Offsets past an edge (r = side) stay inside the region.
    for p in &mut pts {
        *p = Vec2::new(p.x.clamp(0.0, last), p.y.clamp(0.0, last));
    }
    pts
}

/// The link set of `Topology::compute` and of `compute_into` over one
/// reused buffer and grid equals `Metric::within` over all pairs, for both
/// metrics at 1, 2, 3, 4 and 13 grid cells per axis (cells a bit wider
/// than `r`, or exactly `r` wide before the grid's slack).
#[test]
fn compute_equals_all_pairs_at_every_cell_count() {
    let side = 300.0;
    let region = SquareRegion::new(side);
    let mut rng = Rng::seed_from_u64(0x5CA7);
    let mut reused = Topology::default();
    let mut grid: Option<SpatialGrid> = None;
    for k in [1usize, 2, 3, 4, 13] {
        for (radius, cells) in [
            (side / (k as f64 + 0.5), k),
            (side / k as f64, k.max(2) - 1),
        ] {
            for metric in [Metric::Euclidean, Metric::toroidal(side)] {
                let positions = probe_points(&mut rng, side, radius, cells);
                match &mut grid {
                    Some(g) => g.rebuild(&positions, region, radius, metric),
                    None => grid = Some(SpatialGrid::build(&positions, region, radius, metric)),
                }
                reused.compute_into(grid.as_ref().expect("grid built"));
                let fresh = Topology::compute(&positions, region, radius, metric);
                let n = positions.len() as u32;
                let expected: Vec<(u32, u32)> = (0..n)
                    .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                    .filter(|&(i, j)| {
                        metric.within(positions[i as usize], positions[j as usize], radius)
                    })
                    .collect();
                let case = format!("k {k} r {radius} {metric:?}");
                assert_eq!(fresh.links().collect::<Vec<_>>(), expected, "{case}");
                assert_same(&reused, &fresh);
            }
        }
    }
}

#[test]
fn reused_buffer_equals_from_scratch() {
    for seed in [1, 0xC0FFEE, 0x5EED_5EED] {
        check_reuse(seed, 20, 120);
    }
}

#[test]
fn diff_is_stable_after_retain_alive() {
    for seed in [2, 0xBEEF, 0xDEAD_10CC] {
        check_diff_stability(seed, 20, 100);
    }
}

/// Large sweeps (thousand-node networks, many rounds) behind the
/// `slow-proptests` gate, matching the convention of the other property
/// suites.
#[test]
#[cfg(feature = "slow-proptests")]
fn reused_buffer_equals_from_scratch_large() {
    for seed in 0..8u64 {
        check_reuse(0x1A46_E000 + seed, 12, 2000);
    }
}

#[test]
#[cfg(feature = "slow-proptests")]
fn diff_is_stable_after_retain_alive_large() {
    for seed in 0..8u64 {
        check_diff_stability(0xD1FF_0000 + seed, 12, 1500);
    }
}

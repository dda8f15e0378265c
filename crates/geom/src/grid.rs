//! Uniform CSR cell grid for the per-tick unit-disk link set.
//!
//! The simulator recomputes every link within radius `r` each tick. The
//! grid cuts its rectangle into `kx × ky` cells wider than `r` (by a
//! relative 1e-9, so rounding in the cell index cannot put a linked pair
//! two cells apart). Every linked pair therefore lies in the same or an
//! adjacent cell, and [`SpatialGrid::for_each_pair`] visits each such
//! cell pair exactly once through a forward half-stencil (in-cell, then
//! E, SW, S, SE). Each candidate pair is tested once, and the per-tick
//! cost is `O(N·d)`.
//!
//! **Two modes.** [`SpatialGrid::build`] indexes the deployment square
//! under either [`Metric`]. [`SpatialGrid::frame`] indexes a rectangular,
//! non-wrapping Euclidean frame `[0, w) × [0, h)` with its own cell count
//! per axis: a shard's local frame, which already holds every image of
//! every node it needs in plain coordinates. Both run the same scan.
//!
//! **Layout.** A rebuild is a counting sort. Per-cell counts become CSR
//! offsets (`starts`), node ids are scattered grouped by cell, and
//! positions are copied in the same cell order, so the scan walks
//! contiguous memory and tests the distance before it looks up an id.
//! Every buffer is reused across ticks.
//!
//! **Torus.** A neighbour cell across the seam is scanned through its
//! periodic image: the scan shifts the pair by `±side` once per cell
//! pair instead of folding every candidate into the minimum image. With
//! at least three cells per axis that image is the unique one within
//! `r`. A torus with fewer cells, where wrapped neighbour cells coincide,
//! hands every pair to the band hook (below).
//!
//! **Bit-exactness and the band hook.** The local (shifted or
//! frame-translated) `d²` can differ from the caller's reference distance
//! in the last bits. [`SpatialGrid::for_each_pair_banded`] decides a pair
//! on the local `d²` only when `|d² − r²| > r²·`[`BAND_REL`], far wider
//! than that rounding, and leaves every pair inside the band to the
//! caller's hook. [`SpatialGrid::for_each_pair`] passes
//! [`Metric::within`] on the unshifted positions, so its link set is
//! exactly the one `Metric::within` defines over all pairs; the shard
//! plane passes the global metric on global positions.
//!
//! [`SpatialGrid::neighbors_within`] and [`SpatialGrid::nodes_near`]
//! answer single-point queries over the same cells with
//! [`Metric::within`].

use crate::metric::Metric;
use crate::region::SquareRegion;
use crate::vec2::Vec2;
use std::ops::Range;

/// Relative width of the decision band around `r²` inside which a local
/// (translated or image-shifted) squared distance defers to the caller's
/// band hook.
pub const BAND_REL: f64 = 1e-9;

/// Cells are at least `r·(1 + CELL_SLACK)` wide, so rounding in the cell
/// index can never put two points within `r` two cells apart.
const CELL_SLACK: f64 = 1e-9;

/// Cap on cells per axis, so cell indices fit the `u32` slot buffer and the
/// offset table stays bounded; wider cells stay correct, only slower.
const MAX_CELLS_PER_AXIS: usize = 4096;

/// Forward half-stencil: E, SW, S, SE. With the in-cell pass and the
/// mirrored directions visited from the other cell, this covers each
/// same-or-adjacent cell pair once.
const STENCIL: [(isize, isize); 4] = [(1, 0), (-1, 1), (0, 1), (1, 1)];

/// A uniform CSR cell grid over a rectangle holding node indices,
/// specialized for fixed-radius pair scans and neighbor queries.
///
/// # Example
///
/// ```
/// use manet_geom::{Metric, SpatialGrid, SquareRegion, Vec2};
///
/// let region = SquareRegion::new(100.0);
/// let positions = vec![Vec2::new(1.0, 1.0), Vec2::new(3.0, 1.0), Vec2::new(60.0, 60.0)];
/// let grid = SpatialGrid::build(&positions, region, 5.0, Metric::Euclidean);
/// let mut out = Vec::new();
/// grid.neighbors_within(0, &mut out);
/// assert_eq!(out, vec![1]);
/// let mut pairs = Vec::new();
/// grid.for_each_pair(|i, j| pairs.push((i, j)));
/// assert_eq!(pairs, vec![(0, 1)]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    metric: Metric,
    radius: f64,
    /// Width and height of the indexed rectangle `[0, w) × [0, h)`.
    extent: Vec2,
    /// Cells along x and along y.
    kx: usize,
    ky: usize,
    /// Cells per unit length along each axis.
    inv_cell: Vec2,
    /// CSR cell boundaries: cell `c` holds slots `starts[c]..starts[c + 1]`.
    starts: Vec<u32>,
    /// Node id at each slot (ids grouped by cell).
    ids: Vec<u32>,
    /// Position at each slot, in cell order (the input values, unshifted).
    pts: Vec<Vec2>,
    /// Slot of each node id (its cell while a rebuild counts).
    slot: Vec<u32>,
}

impl SpatialGrid {
    /// Builds a grid over the deployment square for querying neighbors
    /// within `radius`.
    ///
    /// Positions must lie inside the region (wrap them first for a torus).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive/finite, if more than
    /// `u32::MAX` positions are given, or (debug builds) if a position lies
    /// outside the region.
    pub fn build(positions: &[Vec2], region: SquareRegion, radius: f64, metric: Metric) -> Self {
        let mut grid = SpatialGrid::empty(metric);
        grid.rebuild(positions, region, radius, metric);
        grid
    }

    /// Builds a grid over the non-wrapping Euclidean frame `[0, w) × [0, h)`.
    /// Positions slightly outside the frame (translation rounding) fall
    /// into the nearest edge cell.
    ///
    /// # Panics
    ///
    /// Panics unless `w` and `h` are positive and finite, and under the
    /// radius and population contract of [`SpatialGrid::build`].
    pub fn frame(positions: &[Vec2], w: f64, h: f64, radius: f64) -> Self {
        let mut grid = SpatialGrid::empty(Metric::Euclidean);
        grid.rebuild_frame(positions, w, h, radius);
        grid
    }

    fn empty(metric: Metric) -> Self {
        SpatialGrid {
            metric,
            radius: 0.0,
            extent: Vec2::ZERO,
            kx: 0,
            ky: 0,
            inv_cell: Vec2::ZERO,
            starts: Vec::new(),
            ids: Vec::new(),
            pts: Vec::new(),
            slot: Vec::new(),
        }
    }

    /// Re-indexes the grid in place for a new tick's positions, reusing
    /// every buffer of the previous build. Equivalent to replacing `self`
    /// with [`SpatialGrid::build`] on the same arguments, but
    /// allocation-free in the steady state (buffers only grow when the
    /// node or cell count does).
    ///
    /// # Panics
    ///
    /// Same contract as [`SpatialGrid::build`].
    pub fn rebuild(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
    ) {
        debug_assert!(
            positions.iter().all(|&p| region.contains(p)),
            "position outside region"
        );
        let side = region.side();
        self.index(positions, Vec2::new(side, side), radius, metric);
    }

    /// [`SpatialGrid::rebuild`] for a frame: equivalent to replacing `self`
    /// with [`SpatialGrid::frame`] on the same arguments.
    ///
    /// # Panics
    ///
    /// Same contract as [`SpatialGrid::frame`].
    pub fn rebuild_frame(&mut self, positions: &[Vec2], w: f64, h: f64, radius: f64) {
        assert!(
            w > 0.0 && h > 0.0 && w.is_finite() && h.is_finite(),
            "frame extents must be positive finite"
        );
        self.index(positions, Vec2::new(w, h), radius, Metric::Euclidean);
    }

    /// The counting sort behind every rebuild (see the module docs).
    fn index(&mut self, positions: &[Vec2], extent: Vec2, radius: f64, metric: Metric) {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "radius must be positive and finite"
        );
        assert!(positions.len() <= u32::MAX as usize, "too many positions");
        let cells = |len: f64| {
            ((len / (radius * (1.0 + CELL_SLACK))).floor() as usize).clamp(1, MAX_CELLS_PER_AXIS)
        };
        let (kx, ky) = (cells(extent.x), cells(extent.y));
        self.metric = metric;
        self.radius = radius;
        self.extent = extent;
        self.kx = kx;
        self.ky = ky;
        self.inv_cell = Vec2::new(kx as f64 / extent.x, ky as f64 / extent.y);

        // Count per cell into starts[c + 1], then prefix-sum.
        let nc = kx * ky;
        self.starts.clear();
        self.starts.resize(nc + 1, 0);
        self.slot.clear();
        for &p in positions {
            let c = self.cell_index(p);
            self.slot.push(c as u32);
            self.starts[c + 1] += 1;
        }
        for c in 0..nc {
            self.starts[c + 1] += self.starts[c];
        }
        // Scatter, using starts[c] as the cursor of cell c; afterwards it
        // holds the end of c, so shift the offsets back by one cell.
        self.ids.clear();
        self.ids.resize(positions.len(), 0);
        self.pts.clear();
        self.pts.resize(positions.len(), Vec2::ZERO);
        for (i, (s, &p)) in self.slot.iter_mut().zip(positions).enumerate() {
            let cursor = &mut self.starts[*s as usize];
            let at = *cursor;
            *cursor += 1;
            self.ids[at as usize] = i as u32;
            self.pts[at as usize] = p;
            *s = at;
        }
        self.starts.copy_within(..nc, 1);
        self.starts[0] = 0;
    }

    /// Query radius this grid was built for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Width and height of the indexed rectangle (the region's side twice
    /// for a grid over the deployment square).
    pub fn extent(&self) -> Vec2 {
        self.extent
    }

    /// Number of indexed positions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the grid indexes no positions.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Collects the indices of all nodes within `radius` of node `i`
    /// (excluding `i` itself) into `out`, which is cleared first.
    ///
    /// Results are sorted ascending so that downstream set-diffing is
    /// deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn neighbors_within(&self, i: usize, out: &mut Vec<u32>) {
        self.nodes_near(self.position(i as u32), out);
        out.retain(|&j| j as usize != i);
    }

    /// Collects the indices of all nodes within `radius` of an arbitrary
    /// point (which need not be an indexed node) into `out`, sorted.
    pub fn nodes_near(&self, p: Vec2, out: &mut Vec<u32>) {
        out.clear();
        self.for_each_candidate_cell(p, |c| {
            for s in self.cell(c) {
                if self.metric.within(p, self.pts[s], self.radius) {
                    out.push(self.ids[s]);
                }
            }
        });
        out.sort_unstable();
    }

    /// Calls `f(i, j)` once for every unordered pair `i < j` within
    /// `radius` under the grid's metric, in unspecified order: the
    /// half-stencil scan described in the module docs, with
    /// [`Metric::within`] on the unshifted positions as the band hook.
    pub fn for_each_pair<F: FnMut(u32, u32)>(&self, f: F) {
        self.for_each_pair_banded(
            |i, j| {
                self.metric
                    .within(self.position(i), self.position(j), self.radius)
            },
            f,
        );
    }

    /// The half-stencil scan with the decision on borderline pairs left to
    /// the caller: calls `f(i, j)`, `i < j`, once for every pair whose
    /// local `d²` is below `r²` by more than the [`BAND_REL`] band, and
    /// for every pair inside the band for which `band(i, j)` holds. A
    /// torus too small for the stencil hands every pair to `band`.
    pub fn for_each_pair_banded<B, F>(&self, mut band: B, mut f: F)
    where
        B: FnMut(u32, u32) -> bool,
        F: FnMut(u32, u32),
    {
        let (kx, ky) = (self.kx, self.ky);
        let wrap = match self.metric {
            Metric::Toroidal { .. } if kx.min(ky) < 3 => {
                for a in 0..self.len() {
                    for b in a + 1..self.len() {
                        if band(self.ids[a], self.ids[b]) {
                            self.emit(a, b, &mut f);
                        }
                    }
                }
                return;
            }
            Metric::Toroidal { side } => Some(side),
            Metric::Euclidean => None,
        };
        let r2 = self.radius * self.radius;
        let cut = Cut {
            lo: r2 - r2 * BAND_REL,
            hi: r2 + r2 * BAND_REL,
        };
        for cy in 0..ky {
            for cx in 0..kx {
                let here = self.cell(cy * kx + cx);
                self.cross(
                    here.clone(),
                    here.clone(),
                    Vec2::ZERO,
                    &cut,
                    &mut band,
                    &mut f,
                );
                for (dx, dy) in STENCIL {
                    if let Some((c, shift)) = neighbour(cx, cy, dx, dy, kx, ky, wrap) {
                        self.cross(here.clone(), self.cell(c), shift, &cut, &mut band, &mut f);
                    }
                }
            }
        }
    }

    /// Tests the slots of cell `here` against those of cell `there`, whose
    /// image next to `here` is its positions plus `shift`, and reports the
    /// linked pairs. A cell against itself visits each of its pairs once.
    #[inline(always)]
    fn cross<B: FnMut(u32, u32) -> bool, F: FnMut(u32, u32)>(
        &self,
        here: Range<usize>,
        there: Range<usize>,
        shift: Vec2,
        cut: &Cut,
        band: &mut B,
        f: &mut F,
    ) {
        let same = here == there;
        for a in here {
            let q = self.pts[a] - shift;
            let from = if same { a + 1 } else { there.start };
            for (b, &pb) in (from..there.end).zip(&self.pts[from..there.end]) {
                let (dx, dy) = (q.x - pb.x, q.y - pb.y);
                let d2 = dx * dx + dy * dy;
                if d2 < cut.lo || (d2 <= cut.hi && band(self.ids[a], self.ids[b])) {
                    self.emit(a, b, f);
                }
            }
        }
    }

    /// Reports the pair at slots `a` and `b` as node ids, lower first.
    #[inline(always)]
    fn emit<F: FnMut(u32, u32)>(&self, a: usize, b: usize, f: &mut F) {
        let (i, j) = (self.ids[a], self.ids[b]);
        if i < j {
            f(i, j)
        } else {
            f(j, i)
        }
    }

    /// Indexed (unshifted) position of node `i`.
    #[inline]
    fn position(&self, i: u32) -> Vec2 {
        self.pts[self.slot[i as usize] as usize]
    }

    /// Slots of cell `c`.
    #[inline]
    fn cell(&self, c: usize) -> Range<usize> {
        self.starts[c] as usize..self.starts[c + 1] as usize
    }

    /// Cell index of a point (clamped, so rounding at the edges stays in
    /// range).
    #[inline]
    fn cell_index(&self, p: Vec2) -> usize {
        let cx = ((p.x * self.inv_cell.x) as usize).min(self.kx - 1);
        let cy = ((p.y * self.inv_cell.y) as usize).min(self.ky - 1);
        cy * self.kx + cx
    }

    /// Visits each distinct candidate cell in the 3×3 neighborhood of `p`'s
    /// cell, handling torus wrap and small grids (where wrapped neighbor
    /// cells coincide).
    fn for_each_candidate_cell<F: FnMut(usize)>(&self, p: Vec2, mut f: F) {
        let (nx, ny) = (self.kx as isize, self.ky as isize);
        let c = self.cell_index(p);
        let (cx, cy) = ((c % self.kx) as isize, (c / self.kx) as isize);
        let wrap = matches!(self.metric, Metric::Toroidal { .. });
        // On small grids wrapped neighbor cells coincide; dedupe through a
        // tiny fixed buffer (at most 9 candidates).
        let mut visited = [usize::MAX; 9];
        let mut count = 0;
        for dy in -1..=1isize {
            for dx in -1..=1isize {
                let (x, y) = (cx + dx, cy + dy);
                let (x, y) = if wrap {
                    (x.rem_euclid(nx), y.rem_euclid(ny))
                } else {
                    if !(0..nx).contains(&x) || !(0..ny).contains(&y) {
                        continue;
                    }
                    (x, y)
                };
                let cell = y as usize * self.kx + x as usize;
                if visited[..count].contains(&cell) {
                    continue;
                }
                visited[count] = cell;
                count += 1;
                f(cell);
            }
        }
    }
}

/// Thresholds on the local `d²`: below `lo` linked, above `hi` not, in
/// between decided by the band hook.
struct Cut {
    lo: f64,
    hi: f64,
}

/// The stencil neighbour `(cx + dx, cy + dy)` of a cell in a `kx × ky`
/// grid and the shift that takes its positions to the image adjacent to
/// the cell; `None` past a Euclidean edge. `wrap` is the torus side, if
/// any.
#[inline]
fn neighbour(
    cx: usize,
    cy: usize,
    dx: isize,
    dy: isize,
    kx: usize,
    ky: usize,
    wrap: Option<f64>,
) -> Option<(usize, Vec2)> {
    let (mut x, mut y) = (cx as isize + dx, cy as isize + dy);
    let (nx, ny) = (kx as isize, ky as isize);
    let mut shift = Vec2::ZERO;
    if x < 0 || x >= nx || y >= ny {
        let side = wrap?;
        if x < 0 {
            x += nx;
            shift.x = -side;
        } else if x >= nx {
            x -= nx;
            shift.x = side;
        }
        if y >= ny {
            y -= ny;
            shift.y = side;
        }
    }
    Some((y as usize * kx + x as usize, shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_util::Rng;

    fn random_positions(n: usize, side: f64, seed: u64) -> Vec<Vec2> {
        let region = SquareRegion::new(side);
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| region.sample_uniform(&mut rng)).collect()
    }

    fn brute_force(positions: &[Vec2], i: usize, radius: f64, metric: Metric) -> Vec<u32> {
        let mut v: Vec<u32> = (0..positions.len() as u32)
            .filter(|&j| {
                j as usize != i && metric.within(positions[i], positions[j as usize], radius)
            })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_brute_force_euclidean() {
        let side = 100.0;
        let positions = random_positions(200, side, 42);
        let region = SquareRegion::new(side);
        for radius in [3.0, 17.0, 60.0, 150.0] {
            let grid = SpatialGrid::build(&positions, region, radius, Metric::Euclidean);
            let mut out = Vec::new();
            for i in 0..positions.len() {
                grid.neighbors_within(i, &mut out);
                assert_eq!(
                    out,
                    brute_force(&positions, i, radius, Metric::Euclidean),
                    "node {i} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn matches_brute_force_toroidal() {
        let side = 50.0;
        let positions = random_positions(150, side, 7);
        let region = SquareRegion::new(side);
        for radius in [2.0, 9.0, 20.0, 30.0] {
            let metric = Metric::toroidal(side);
            let grid = SpatialGrid::build(&positions, region, radius, metric);
            let mut out = Vec::new();
            for i in 0..positions.len() {
                grid.neighbors_within(i, &mut out);
                assert_eq!(
                    out,
                    brute_force(&positions, i, radius, metric),
                    "node {i} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn nodes_near_arbitrary_point() {
        let side = 10.0;
        let positions = vec![
            Vec2::new(1.0, 1.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(8.0, 8.0),
        ];
        let grid = SpatialGrid::build(&positions, SquareRegion::new(side), 1.5, Metric::Euclidean);
        let mut out = Vec::new();
        grid.nodes_near(Vec2::new(1.4, 1.0), &mut out);
        assert_eq!(out, vec![0, 1]);
        grid.nodes_near(Vec2::new(5.0, 5.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn for_each_pair_unique_and_complete() {
        let side = 30.0;
        let positions = random_positions(80, side, 9);
        let metric = Metric::toroidal(side);
        let grid = SpatialGrid::build(&positions, SquareRegion::new(side), 6.0, metric);
        let mut pairs = Vec::new();
        grid.for_each_pair(|i, j| pairs.push((i, j)));
        let mut expected = Vec::new();
        for i in 0..positions.len() as u32 {
            for j in (i + 1)..positions.len() as u32 {
                if metric.within(positions[i as usize], positions[j as usize], 6.0) {
                    expected.push((i, j));
                }
            }
        }
        pairs.sort_unstable();
        expected.sort_unstable();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn radius_larger_than_region_works() {
        // The cell count clamps to 1; all nodes share one cell.
        let side = 5.0;
        let positions = random_positions(20, side, 4);
        let grid = SpatialGrid::build(&positions, SquareRegion::new(side), 50.0, Metric::Euclidean);
        let mut out = Vec::new();
        grid.neighbors_within(0, &mut out);
        assert_eq!(out.len(), 19);
        assert_eq!(grid.len(), 20);
        assert!(!grid.is_empty());
        assert_eq!(grid.radius(), 50.0);
    }

    #[test]
    fn rebuild_matches_fresh_build_across_parameter_changes() {
        let region_a = SquareRegion::new(100.0);
        let region_b = SquareRegion::new(40.0);
        let mut grid = SpatialGrid::build(
            &random_positions(120, 100.0, 3),
            region_a,
            9.0,
            Metric::Euclidean,
        );
        // Same-shape rebuild, changed radius (cell count changes), changed
        // region + metric — each must equal a from-scratch build.
        for (n, side, region, radius, metric, seed) in [
            (120, 100.0, region_a, 9.0, Metric::Euclidean, 11u64),
            (120, 100.0, region_a, 31.0, Metric::Euclidean, 12),
            (60, 40.0, region_b, 7.0, Metric::toroidal(40.0), 13),
            (200, 40.0, region_b, 3.0, Metric::toroidal(40.0), 14),
        ] {
            let positions = random_positions(n, side, seed);
            grid.rebuild(&positions, region, radius, metric);
            let fresh = SpatialGrid::build(&positions, region, radius, metric);
            assert_eq!(grid.len(), fresh.len());
            let (mut a, mut b) = (Vec::new(), Vec::new());
            for i in 0..n {
                grid.neighbors_within(i, &mut a);
                fresh.neighbors_within(i, &mut b);
                assert_eq!(a, b, "node {i} seed {seed}");
            }
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let grid = SpatialGrid::build(&[], SquareRegion::new(10.0), 2.0, Metric::Euclidean);
        assert!(grid.is_empty());
        let mut out = vec![99];
        grid.nodes_near(Vec2::new(1.0, 1.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn zero_radius_panics() {
        SpatialGrid::build(&[], SquareRegion::new(10.0), 0.0, Metric::Euclidean);
    }

    /// Both metrics, for the scans below.
    fn metrics(side: f64) -> [Metric; 2] {
        [Metric::Euclidean, Metric::toroidal(side)]
    }

    /// Seeded uniform points plus the hard cases: points on cell edges and
    /// on the torus seam, and pairs `r` and `r ± 1 ulp` apart along each
    /// axis, both inside the grid (anchored on a cell edge) and across the
    /// seam.
    fn probe_points(side: f64, radius: f64, k: usize, seed: u64) -> Vec<Vec2> {
        let mut rng = Rng::seed_from_u64(seed);
        let any = |rng: &mut Rng| rng.f64_range(0.0..side);
        let mut pts: Vec<Vec2> = (0..120)
            .map(|_| Vec2::new(any(&mut rng), any(&mut rng)))
            .collect();
        let w = side / k as f64;
        let last = side.next_down();
        for m in 0..k {
            let e = m as f64 * w;
            pts.extend([
                Vec2::new(e, any(&mut rng)),
                Vec2::new(any(&mut rng), e),
                Vec2::new(e, e),
            ]);
        }
        pts.extend([
            Vec2::new(last, any(&mut rng)),
            Vec2::new(any(&mut rng), last),
            Vec2::new(last, last),
            Vec2::new(0.0, 0.0),
        ]);
        let edge = if k > 1 { w } else { 0.0 };
        for d in [radius.next_down(), radius, radius.next_up()] {
            for (u, v) in [
                (0.0, d),                  // exactly d apart
                (edge, edge + d),          // from a cell edge
                (side - d * 0.5, d * 0.5), // across the seam
                (0.0, side - d),           // across the seam, from the seam
            ] {
                let t = any(&mut rng);
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

    /// Every pair `for_each_pair` reports, checked unique and `i < j`.
    fn scanned_pairs(grid: &SpatialGrid) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        grid.for_each_pair(|i, j| {
            assert!(i < j, "pair ({i}, {j}) not ordered");
            pairs.push((i, j));
        });
        let reported = pairs.len();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), reported, "a pair was reported twice");
        pairs
    }

    fn all_pairs(positions: &[Vec2], radius: f64, metric: Metric) -> Vec<(u32, u32)> {
        let n = positions.len() as u32;
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| metric.within(positions[i as usize], positions[j as usize], radius))
            .collect()
    }

    #[test]
    fn pair_scan_equals_all_pairs_at_every_cell_count() {
        let side = 100.0;
        let region = SquareRegion::new(side);
        for k in [1usize, 2, 3, 4, 13] {
            // Cells a bit wider than r, and exactly r wide (side / r an
            // integer, where the cell slack keeps boundary pairs adjacent).
            for (radius, cells) in [
                (side / (k as f64 + 0.5), k),
                (side / k as f64, k.max(2) - 1),
            ] {
                for metric in metrics(side) {
                    for seed in 0..3u64 {
                        let positions = probe_points(side, radius, cells, seed);
                        let grid = SpatialGrid::build(&positions, region, radius, metric);
                        assert_eq!((grid.kx, grid.ky), (cells, cells), "r {radius}");
                        assert_eq!(
                            scanned_pairs(&grid),
                            all_pairs(&positions, radius, metric),
                            "k {cells} r {radius} {metric:?} seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pair_scan_survives_rebuild_with_changing_shape() {
        let mut grid = SpatialGrid::build(&[], SquareRegion::new(10.0), 1.0, Metric::Euclidean);
        for (seed, side, radius) in [
            (1u64, 100.0, 7.0),
            (2, 40.0, 13.0),
            (3, 100.0, 3.0),
            (4, 30.0, 29.0),
        ] {
            let region = SquareRegion::new(side);
            for metric in metrics(side) {
                let positions = random_positions(90 + seed as usize * 20, side, seed);
                grid.rebuild(&positions, region, radius, metric);
                assert_eq!(scanned_pairs(&grid), all_pairs(&positions, radius, metric));
            }
        }
    }

    /// With `side / r` an integer, `x · k / side` can round one point down
    /// a cell and its partner `r` away up a cell. Here the two land two
    /// cells apart unless cells are kept wider than `r`.
    #[test]
    fn cell_rounding_cannot_split_a_linked_pair() {
        let (a, b) = (
            Vec2::new(19.999999999999996, 50.0),
            Vec2::new(29.999999999999996, 50.0),
        );
        let (i, j) = ((a.x * 0.1) as usize, (b.x * 0.1) as usize);
        assert_eq!(j - i, 2, "the pair straddles two cell edges at 10 cells");
        for metric in metrics(100.0) {
            assert!(metric.within(a, b, 10.0));
            let grid = SpatialGrid::build(&[a, b], SquareRegion::new(100.0), 10.0, metric);
            assert_eq!(scanned_pairs(&grid), vec![(0, 1)], "{metric:?}");
            let mut out = Vec::new();
            grid.neighbors_within(0, &mut out);
            assert_eq!(out, vec![1]);
        }
    }

    /// A seam pair whose image-shifted `d²` (computed exactly as the scan
    /// does for an eastward wrap) and `Metric::distance_sq` straddle `r²`:
    /// only the band fallback can give the metric's verdict.
    #[test]
    fn band_fallback_gives_the_metric_verdict_across_the_seam() {
        let side = 100.0;
        let region = SquareRegion::new(side);
        let metric = Metric::toroidal(side);
        let mut rng = Rng::seed_from_u64(0xBA4D);
        let mut grid = SpatialGrid::build(&[], region, 1.0, metric);
        let mut exercised = 0;
        for _ in 0..20_000 {
            if exercised == 32 {
                break;
            }
            let y = rng.f64_range(0.0..side);
            let a = Vec2::new(rng.f64_range(0.5..4.0), y); // first column
            let b = Vec2::new(rng.f64_range(96.0..99.5), y); // last column
            let q = b - Vec2::new(side, 0.0);
            let (dx, dy) = (q.x - a.x, q.y - a.y);
            let local = dx * dx + dy * dy;
            let global = metric.distance_sq(a, b);
            let (lo, hi) = (local.min(global), local.max(global));
            let s = lo.sqrt();
            let Some(radius) = [s.next_down(), s, s.next_up()]
                .into_iter()
                .find(|r| lo <= r * r && r * r < hi)
            else {
                continue;
            };
            let truth = metric.within(a, b, radius);
            assert_ne!(local <= radius * radius, truth, "local d² must disagree");
            grid.rebuild(&[a, b], region, radius, metric);
            assert!(grid.kx >= 3 && grid.ky >= 3);
            let mut linked = false;
            grid.for_each_pair(|_, _| linked = true);
            assert_eq!(linked, truth, "a {a} b {b} r {radius}");
            exercised += 1;
        }
        assert_eq!(exercised, 32, "too few straddling pairs found");
    }

    /// Deterministic points over a `w × h` frame.
    fn frame_points(n: usize, w: f64, h: f64, seed: u64) -> Vec<Vec2> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vec2::new(rng.f64_range(0.0..w), rng.f64_range(0.0..h)))
            .collect()
    }

    #[test]
    fn frame_scan_reports_every_close_pair_exactly_once() {
        let pts = frame_points(200, 10.0, 6.0, 0x1234_5678);
        let grid = SpatialGrid::frame(&pts, 10.0, 6.0, 1.5);
        assert_eq!((grid.kx, grid.ky), (6, 3));
        assert_eq!(grid.extent(), Vec2::new(10.0, 6.0));
        assert_eq!(
            scanned_pairs(&grid),
            all_pairs(&pts, 1.5, Metric::Euclidean)
        );
    }

    #[test]
    fn frame_rebuild_matches_fresh_build_across_shapes() {
        let mut grid = SpatialGrid::frame(&[], 1.0, 1.0, 1.0);
        for (seed, w, h, radius) in [
            (1u64, 10.0, 5.0, 1.0),
            (2, 3.0, 12.0, 0.7),
            (3, 10.0, 5.0, 1.0),
            (4, 40.0, 40.0, 4.5),
        ] {
            let pts = frame_points(60 + seed as usize * 30, w, h, seed);
            grid.rebuild_frame(&pts, w, h, radius);
            let fresh = SpatialGrid::frame(&pts, w, h, radius);
            let expected = all_pairs(&pts, radius, Metric::Euclidean);
            assert_eq!(scanned_pairs(&grid), expected, "seed {seed}");
            assert_eq!(scanned_pairs(&fresh), expected, "seed {seed}");
        }
    }

    #[test]
    fn single_cell_frame_scans_all_pairs() {
        let pts = [
            Vec2::new(0.1, 0.1),
            Vec2::new(0.5, 0.5),
            Vec2::new(0.9, 0.9),
        ];
        let grid = SpatialGrid::frame(&pts, 1.0, 1.0, 5.0);
        assert_eq!((grid.kx, grid.ky), (1, 1));
        assert_eq!(scanned_pairs(&grid), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn zero_frame_extent_is_rejected() {
        SpatialGrid::frame(&[], 0.0, 1.0, 1.0);
    }

    /// Pairs inside the band go to the caller's hook, and its verdict
    /// stands; pairs clear of the band never reach it.
    #[test]
    fn band_hook_decides_exactly_the_borderline_pairs() {
        let r = 1.0;
        // (0, 1) exactly r apart, (2, 3) well inside, (4, 5) well outside.
        let pts = [
            Vec2::new(2.0, 2.0),
            Vec2::new(3.0, 2.0),
            Vec2::new(5.0, 5.0),
            Vec2::new(5.5, 5.0),
            Vec2::new(1.0, 5.0),
            Vec2::new(1.0, 6.5),
        ];
        let grid = SpatialGrid::frame(&pts, 8.0, 8.0, r);
        for verdict in [false, true] {
            let mut asked = Vec::new();
            let mut pairs = Vec::new();
            grid.for_each_pair_banded(
                |i, j| {
                    asked.push((i.min(j), i.max(j)));
                    verdict
                },
                |i, j| pairs.push((i, j)),
            );
            pairs.sort_unstable();
            assert_eq!(asked, vec![(0, 1)]);
            let expected = if verdict {
                vec![(0, 1), (2, 3)]
            } else {
                vec![(2, 3)]
            };
            assert_eq!(pairs, expected, "verdict {verdict}");
        }
    }
}

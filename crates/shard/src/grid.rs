//! A rectangular, non-wrapping CSR bucket grid over one shard's local
//! frame, with a half-stencil scan that visits every candidate pair once.
//!
//! It runs the same half-stencil scan as the global `SpatialGrid`, but
//! over a rectangle and without wrap: the frame already contains every
//! relevant image of every relevant node in plain Euclidean coordinates,
//! so it only enumerates candidate pairs and the plane applies the
//! distance predicate.

use manet_geom::Vec2;

/// CSR bucket grid over a `[0, w) × [0, h)` frame with cells at least
/// `cell_min` wide, so all pairs within `cell_min` live in the same or an
/// adjacent cell.
///
/// All buffers are reused across [`FrameGrid::rebuild`] calls; steady
/// state is allocation-free once capacities have warmed up.
#[derive(Debug, Default)]
pub struct FrameGrid {
    ncx: usize,
    ncy: usize,
    inv_cw: f64,
    inv_ch: f64,
    /// CSR cell boundaries: items of cell `c` are `cells[starts[c]..starts[c+1]]`.
    starts: Vec<u32>,
    /// Scatter cursors, one per cell (scratch for `rebuild`).
    cursor: Vec<u32>,
    /// Item indices grouped by cell.
    cells: Vec<u32>,
    /// Cell of each item (scratch for `rebuild`).
    cell_of: Vec<u32>,
}

impl FrameGrid {
    /// An empty grid; call [`FrameGrid::configure`] before use.
    pub fn new() -> Self {
        FrameGrid::default()
    }

    /// Sets the frame extents and minimum cell size.
    ///
    /// # Panics
    ///
    /// Panics unless `w`, `h`, and `cell_min` are positive and finite.
    pub fn configure(&mut self, w: f64, h: f64, cell_min: f64) {
        assert!(
            w > 0.0 && h > 0.0 && cell_min > 0.0 && w.is_finite() && h.is_finite(),
            "frame grid needs positive finite extents"
        );
        self.ncx = ((w / cell_min) as usize).max(1);
        self.ncy = ((h / cell_min) as usize).max(1);
        self.inv_cw = self.ncx as f64 / w;
        self.inv_ch = self.ncy as f64 / h;
    }

    /// Cell index of a frame-local point (clamped to the frame, so
    /// rounding noise at the edges stays in range).
    fn cell(&self, p: Vec2) -> u32 {
        let cx = ((p.x * self.inv_cw) as usize).min(self.ncx - 1);
        let cy = ((p.y * self.inv_ch) as usize).min(self.ncy - 1);
        (cy * self.ncx + cx) as u32
    }

    /// Re-indexes `pts` into the grid, reusing all buffers.
    pub fn rebuild(&mut self, pts: &[Vec2]) {
        let ncells = self.ncx * self.ncy;
        assert!(ncells > 0, "configure the grid before rebuilding");
        self.starts.clear();
        self.starts.resize(ncells + 1, 0);
        self.cell_of.clear();
        self.cell_of.reserve(pts.len());
        for &p in pts {
            let c = self.cell(p);
            self.cell_of.push(c);
            self.starts[c as usize + 1] += 1;
        }
        for i in 0..ncells {
            self.starts[i + 1] += self.starts[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..ncells]);
        self.cells.clear();
        self.cells.resize(pts.len(), 0);
        for (i, &c) in self.cell_of.iter().enumerate() {
            let slot = &mut self.cursor[c as usize];
            self.cells[*slot as usize] = i as u32;
            *slot += 1;
        }
    }

    /// Visits every unordered pair of items in the same or an adjacent
    /// cell exactly once (the candidate superset of all pairs within
    /// `cell_min`). The caller applies the actual distance predicate.
    pub fn for_each_pair(&self, mut f: impl FnMut(u32, u32)) {
        let at = |c: usize| &self.cells[self.starts[c] as usize..self.starts[c + 1] as usize];
        for cy in 0..self.ncy {
            for cx in 0..self.ncx {
                let c = cy * self.ncx + cx;
                let here = at(c);
                // In-cell pairs.
                for (k, &a) in here.iter().enumerate() {
                    for &b in &here[k + 1..] {
                        f(a, b);
                    }
                }
                // Forward half-stencil: E, SW, S, SE. Together with the
                // in-cell pass this covers each adjacent-cell pair once.
                let east = cx + 1 < self.ncx;
                let south = cy + 1 < self.ncy;
                let mut cross = |d: usize| {
                    for &a in here {
                        for &b in at(d) {
                            f(a, b);
                        }
                    }
                };
                if east {
                    cross(c + 1);
                }
                if south {
                    let s = c + self.ncx;
                    if cx > 0 {
                        cross(s - 1);
                    }
                    cross(s);
                    if east {
                        cross(s + 1);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(grid: &FrameGrid) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        grid.for_each_pair(|a, b| out.push((a.min(b), a.max(b))));
        out.sort_unstable();
        out
    }

    #[test]
    fn every_close_pair_is_a_candidate_exactly_once() {
        // Deterministic pseudo-random points over a 10×6 frame.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Vec2> = (0..200)
            .map(|_| Vec2::new(next() * 10.0, next() * 6.0))
            .collect();
        let mut grid = FrameGrid::new();
        grid.configure(10.0, 6.0, 1.5);
        grid.rebuild(&pts);
        let got = pairs(&grid);
        // No duplicates.
        let mut dedup = got.clone();
        dedup.dedup();
        assert_eq!(got, dedup);
        // Every pair within cell_min is present.
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let (dx, dy) = (pts[i].x - pts[j].x, pts[i].y - pts[j].y);
                if (dx * dx + dy * dy).sqrt() <= 1.5 {
                    assert!(
                        got.binary_search(&(i as u32, j as u32)).is_ok(),
                        "close pair {i},{j} missed"
                    );
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_buffers() {
        let pts: Vec<Vec2> = (0..50)
            .map(|i| Vec2::new((i % 10) as f64, (i / 10) as f64))
            .collect();
        let mut grid = FrameGrid::new();
        grid.configure(10.0, 5.0, 1.0);
        grid.rebuild(&pts);
        let first = pairs(&grid);
        grid.rebuild(&pts);
        assert_eq!(pairs(&grid), first);
    }

    #[test]
    fn single_cell_frame_degenerates_to_all_pairs() {
        let pts = vec![
            Vec2::new(0.1, 0.1),
            Vec2::new(0.5, 0.5),
            Vec2::new(0.9, 0.9),
        ];
        let mut grid = FrameGrid::new();
        grid.configure(1.0, 1.0, 5.0);
        grid.rebuild(&pts);
        assert_eq!(pairs(&grid), vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn zero_extent_is_rejected() {
        FrameGrid::new().configure(0.0, 1.0, 1.0);
    }
}

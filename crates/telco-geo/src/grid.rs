//! A uniform spatial hash grid over the km plane.
//!
//! Used for nearest-sector queries during simulation (which sector serves a
//! UE at a given position). The points are stored flat, bucketed by cell
//! (CSR layout), so a row of cells is one contiguous slice. Queries expand
//! ring-by-ring from the query's cell and stop as soon as no unexplored cell
//! can hold a nearer point, so their cost follows local point density, not
//! the total count.

use crate::coords::{KmPoint, KmRect};

/// A spatial index mapping points to payloads of type `T`.
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    bounds: KmRect,
    cell_km: f64,
    nx: usize,
    ny: usize,
    /// Cell `c` (row-major, `c = cy * nx + cx`) holds slots
    /// `starts[c]..starts[c + 1]`; `starts.len() == nx * ny + 1`.
    starts: Vec<usize>,
    /// Point of each slot, bucketed by cell, insertion order within a cell.
    points: Vec<KmPoint>,
    /// Payload of each slot.
    values: Vec<T>,
    /// Insertion index of each slot: the tie-breaker.
    order: Vec<u32>,
}

/// The best candidate of a query so far: lowest squared distance, then
/// lowest insertion index.
struct Best {
    d2: f64,
    slot: usize,
    order: u32,
}

impl<T> GridIndex<T> {
    /// Index `items` over `bounds`. Cells are square with side
    /// √(area / points), so a cell holds one point on average; points
    /// outside the bounds are bucketed into the border cells.
    ///
    /// # Panics
    ///
    /// Panics with more than `u32::MAX` points.
    pub fn new(bounds: KmRect, items: impl IntoIterator<Item = (KmPoint, T)>) -> Self {
        let items: Vec<(KmPoint, T)> = items.into_iter().collect();
        let n = items.len();
        assert!(u32::try_from(n).is_ok(), "too many points for a grid index");
        // The second term keeps nx * ny ≤ 3n + 1 for long, thin bounds.
        let side = (bounds.area_km2() / n.max(1) as f64)
            .sqrt()
            .max(bounds.width().max(bounds.height()) / n.max(1) as f64);
        let cell_km = if side > 0.0 && side.is_finite() { side } else { 1.0 };
        let nx = (bounds.width() / cell_km).ceil().max(1.0) as usize;
        let ny = (bounds.height() / cell_km).ceil().max(1.0) as usize;
        let mut grid = GridIndex {
            bounds,
            cell_km,
            nx,
            ny,
            starts: vec![0; nx * ny + 1],
            points: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
        };
        let mut keyed: Vec<(usize, u32, KmPoint, T)> = items
            .into_iter()
            .enumerate()
            .map(|(i, (p, v))| {
                let (cx, cy) = grid.cell_of(&p);
                (cy * nx + cx, i as u32, p, v)
            })
            .collect();
        // By cell, then insertion index: a cell keeps insertion order.
        keyed.sort_unstable_by_key(|&(cell, i, ..)| (cell, i));
        for (cell, i, p, v) in keyed {
            grid.starts[cell + 1] += 1;
            grid.points.push(p);
            grid.values.push(v);
            grid.order.push(i);
        }
        for c in 0..nx * ny {
            grid.starts[c + 1] += grid.starts[c];
        }
        grid
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn cell_of(&self, p: &KmPoint) -> (usize, usize) {
        let p = self.bounds.clamp(p);
        let cx = ((p.x - self.bounds.min.x) / self.cell_km) as usize;
        let cy = ((p.y - self.bounds.min.y) / self.cell_km) as usize;
        (cx.min(self.nx - 1), cy.min(self.ny - 1))
    }

    /// The nearest point to `center` and its payload, or `None` if the
    /// index is empty. Exact: among equally near points, the one inserted
    /// first wins.
    pub fn nearest(&self, center: &KmPoint) -> Option<(KmPoint, &T)> {
        if self.is_empty() {
            return None;
        }
        let (cx, cy) = self.cell_of(center);
        let mut best = Best { d2: f64::INFINITY, slot: usize::MAX, order: u32::MAX };
        for r in 0.. {
            // Ring `r`: the cells at Chebyshev distance `r` from (cx, cy),
            // clipped to the grid. Its top and bottom rows are contiguous
            // runs of cells, so each is one slice of `points`.
            let x0 = cx.saturating_sub(r);
            let x1 = (cx + r).min(self.nx - 1);
            if r <= cy {
                self.scan_cells(center, (cy - r) * self.nx, x0, x1, &mut best);
            }
            if r > 0 && cy + r < self.ny {
                self.scan_cells(center, (cy + r) * self.nx, x0, x1, &mut best);
            }
            if r > 0 {
                for y in (cy + 1).saturating_sub(r)..=(cy + r - 1).min(self.ny - 1) {
                    if r <= cx {
                        self.scan_cells(center, y * self.nx, cx - r, cx - r, &mut best);
                    }
                    if cx + r < self.nx {
                        self.scan_cells(center, y * self.nx, cx + r, cx + r, &mut best);
                    }
                }
            }
            match self.unexplored_gap(center, cx, cy, r) {
                None => break,
                Some(gap) if gap > 0.0 && best.d2 < gap * gap => break,
                Some(_) => {}
            }
        }
        (best.slot < self.points.len()).then(|| (self.points[best.slot], &self.values[best.slot]))
    }

    /// Offer every point of cells `x0..=x1` of the row starting at cell
    /// `row` to `best`.
    fn scan_cells(&self, center: &KmPoint, row: usize, x0: usize, x1: usize, best: &mut Best) {
        let (lo, hi) = (self.starts[row + x0], self.starts[row + x1 + 1]);
        for (slot, p) in self.points[lo..hi].iter().enumerate() {
            let d2 = dist2(p, center);
            if d2 < best.d2 || (d2 == best.d2 && self.order[lo + slot] < best.order) {
                *best = Best { d2, slot: lo + slot, order: self.order[lo + slot] };
            }
        }
    }

    /// A lower bound on the distance from `center` to any point outside
    /// the explored square of cells `(cx ± r, cy ± r)`, or `None` once
    /// that square covers the grid. The unexplored cells lie beyond one of
    /// the square's sides; a side on the grid edge has nothing beyond it.
    /// Points bucketed into a border cell from outside the bounds lie
    /// beyond the edge, farther still, so the bound holds for them too.
    /// It is measured from the real (unclamped) query point and shrunk by
    /// a hair of the cell side to absorb rounding in the bucketing.
    fn unexplored_gap(&self, center: &KmPoint, cx: usize, cy: usize, r: usize) -> Option<f64> {
        let (min, cell) = (self.bounds.min, self.cell_km);
        let sides = [
            (cx > r).then(|| center.x - (min.x + (cx - r) as f64 * cell)),
            (cx + r + 1 < self.nx).then(|| min.x + (cx + r + 1) as f64 * cell - center.x),
            (cy > r).then(|| center.y - (min.y + (cy - r) as f64 * cell)),
            (cy + r + 1 < self.ny).then(|| min.y + (cy + r + 1) as f64 * cell - center.y),
        ];
        sides.into_iter().flatten().reduce(f64::min).map(|gap| gap - cell * 1e-9)
    }
}

/// Squared Euclidean distance — spares the sqrt when only ordering matters.
fn dist2(a: &KmPoint, b: &KmPoint) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> KmRect {
        KmRect::new(KmPoint::new(0.0, 0.0), KmPoint::new(100.0, 100.0))
    }

    #[test]
    fn nearest_on_regular_lattice() {
        let lattice = (0..10).flat_map(|x| {
            (0..10).map(move |y| (KmPoint::new(x as f64 * 10.0, y as f64 * 10.0), (x, y)))
        });
        let g = GridIndex::new(bounds(), lattice);
        let (_, v) = g.nearest(&KmPoint::new(42.0, 38.0)).unwrap();
        assert_eq!(*v, (4, 4));
        let (_, v) = g.nearest(&KmPoint::new(1.0, 99.0)).unwrap();
        assert_eq!(*v, (0, 9));
    }

    #[test]
    fn nearest_empty_is_none() {
        let g: GridIndex<u8> = GridIndex::new(bounds(), []);
        assert!(g.nearest(&KmPoint::new(0.0, 0.0)).is_none());
        assert!(g.is_empty());
    }

    #[test]
    fn points_outside_bounds_are_clamped() {
        let g = GridIndex::new(bounds(), [(KmPoint::new(-50.0, -50.0), 'x')]);
        assert_eq!(g.len(), 1);
        assert!(g.nearest(&KmPoint::new(0.0, 0.0)).is_some());
    }

    #[test]
    fn ties_go_to_the_first_inserted() {
        // Four points at distance 5 from the query, in four cells.
        let pts = [(3.0, 4.0), (-3.0, 4.0), (3.0, -4.0), (-5.0, 0.0)];
        for first in 0..pts.len() {
            let items = (0..pts.len()).map(|k| {
                let (dx, dy) = pts[(first + k) % pts.len()];
                (KmPoint::new(50.0 + dx, 50.0 + dy), k)
            });
            let g = GridIndex::new(bounds(), items);
            let (_, v) = g.nearest(&KmPoint::new(50.0, 50.0)).unwrap();
            assert_eq!(*v, 0);
        }
    }
}

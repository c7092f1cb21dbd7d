//! Equivalence of `GridIndex::nearest` with a brute-force scan: the point
//! of minimum squared distance, the lowest insertion index among ties.
//!
//! Point sets cover uniform and clustered (urban-like) layouts, points
//! outside the bounds, duplicate positions and integer lattices on which
//! many queries have several exactly equidistant points. Queries fall
//! inside and outside the bounds, on indexed points and on lattice
//! midpoints.

use proptest::prelude::*;

use telco_geo::coords::{KmPoint, KmRect};
use telco_geo::grid::GridIndex;

/// Deterministic generator for the sets, seeded by the property case.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n.saturating_sub(1))
    }
}

/// Same arithmetic as the index, so ties compare exactly equal.
fn dist2(a: &KmPoint, b: &KmPoint) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    dx * dx + dy * dy
}

fn brute(points: &[KmPoint], q: &KmPoint) -> Option<usize> {
    (0..points.len())
        .min_by(|&a, &b| dist2(&points[a], q).total_cmp(&dist2(&points[b], q)).then(a.cmp(&b)))
}

fn point_set(layout: u8, n: usize, bounds: &KmRect, rng: &mut Lcg) -> Vec<KmPoint> {
    let (min, max) = (bounds.min, bounds.max);
    let mut pts: Vec<KmPoint> = Vec::with_capacity(n);
    let centers: Vec<KmPoint> =
        (0..4).map(|_| KmPoint::new(rng.range(min.x, max.x), rng.range(min.y, max.y))).collect();
    for _ in 0..n {
        let p = match layout {
            // Uniform, a few points up to half a side outside the bounds.
            0 => {
                let (w, h) = (bounds.width(), bounds.height());
                if rng.unit() < 0.1 {
                    KmPoint::new(
                        rng.range(min.x - w / 2.0, max.x + w / 2.0),
                        rng.range(min.y - h / 2.0, max.y + h / 2.0),
                    )
                } else {
                    KmPoint::new(rng.range(min.x, max.x), rng.range(min.y, max.y))
                }
            }
            // Urban-like: tight clusters around a few centres.
            1 => {
                let c = centers[rng.below(centers.len())];
                let spread = bounds.width().min(bounds.height()) * 0.02;
                let r = spread * (rng.unit() + rng.unit() + rng.unit());
                let a = rng.range(0.0, std::f64::consts::TAU);
                KmPoint::new(c.x + r * a.cos(), c.y + r * a.sin())
            }
            // Integer lattice: duplicates and exact ties everywhere.
            2 => KmPoint::new(
                rng.range(min.x, max.x).round().clamp(min.x.ceil(), max.x.floor().max(min.x)),
                rng.range(min.y, max.y).round().clamp(min.y.ceil(), max.y.floor().max(min.y)),
            ),
            // Copies of earlier points (co-located sites).
            _ => match pts.len() {
                0 => KmPoint::new(rng.range(min.x, max.x), rng.range(min.y, max.y)),
                k => pts[rng.below(k)],
            },
        };
        pts.push(p);
    }
    pts
}

fn queries(points: &[KmPoint], bounds: &KmRect, rng: &mut Lcg) -> Vec<KmPoint> {
    let (min, max) = (bounds.min, bounds.max);
    let (w, h) = (bounds.width(), bounds.height());
    let mut qs = Vec::new();
    for _ in 0..40 {
        // Inside, and up to a full side outside.
        qs.push(KmPoint::new(rng.range(min.x, max.x), rng.range(min.y, max.y)));
        qs.push(KmPoint::new(rng.range(min.x - w, max.x + w), rng.range(min.y - h, max.y + h)));
        // On lattice nodes and midpoints: equidistant from lattice points.
        let lx = rng.range(min.x - 2.0, max.x + 2.0).round();
        let ly = rng.range(min.y - 2.0, max.y + 2.0).round();
        qs.push(KmPoint::new(lx, ly));
        qs.push(KmPoint::new(lx + 0.5, ly + 0.5));
        qs.push(KmPoint::new(lx + 0.5, ly));
    }
    for p in points.iter().take(20) {
        qs.push(*p);
    }
    qs
}

fn check(bounds: KmRect, points: &[KmPoint], qs: &[KmPoint]) -> Result<(), TestCaseError> {
    let grid = GridIndex::new(bounds, points.iter().copied().enumerate().map(|(i, p)| (p, i)));
    prop_assert_eq!(grid.len(), points.len());
    for q in qs {
        let got = grid.nearest(q).map(|(p, &i)| (p, i));
        let want = brute(points, q).map(|i| (points[i], i));
        prop_assert_eq!(got, want);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn nearest_equals_brute_force(
        layout in 0u8..4,
        n in 0usize..400,
        seed in 0u64..u64::MAX,
        origin in (-50.0f64..50.0, -50.0f64..50.0),
        size in (0.5f64..200.0, 0.5f64..200.0),
    ) {
        let bounds = KmRect::new(
            KmPoint::new(origin.0, origin.1),
            KmPoint::new(origin.0 + size.0, origin.1 + size.1),
        );
        let mut rng = Lcg(seed);
        let points = point_set(layout, n, &bounds, &mut rng);
        let qs = queries(&points, &bounds, &mut rng);
        check(bounds, &points, &qs)?;
    }
}

#[test]
fn empty_and_one_point_indexes() {
    let bounds = KmRect::new(KmPoint::new(0.0, 0.0), KmPoint::new(30.0, 10.0));
    let mut rng = Lcg(7);
    let qs = queries(&[], &bounds, &mut rng);
    let empty: GridIndex<usize> = GridIndex::new(bounds, []);
    assert!(qs.iter().all(|q| empty.nearest(q).is_none()));
    for p in [KmPoint::new(3.0, 4.0), KmPoint::new(-40.0, 25.0), KmPoint::new(30.0, 10.0)] {
        check(bounds, &[p], &qs).unwrap();
    }
}

#[test]
fn constructed_ties_across_cells() {
    // Rings of points exactly equidistant from the query, inserted in
    // shuffled order, so the tie spans several cells and the winner is
    // the lowest index, not the first cell scanned.
    let bounds = KmRect::new(KmPoint::new(0.0, 0.0), KmPoint::new(64.0, 64.0));
    let offsets = [(3.0, 4.0), (4.0, 3.0), (-3.0, 4.0), (5.0, 0.0), (0.0, -5.0), (-4.0, -3.0)];
    let mut rng = Lcg(11);
    for _ in 0..50 {
        let c = KmPoint::new(rng.range(8.0, 56.0).round(), rng.range(8.0, 56.0).round());
        let mut points: Vec<KmPoint> = (0..60)
            .map(|_| KmPoint::new(rng.range(0.0, 64.0), rng.range(0.0, 64.0)))
            .filter(|p| dist2(p, &c) > 25.0)
            .collect();
        for &(dx, dy) in &offsets {
            let at = rng.below(points.len() + 1);
            points.insert(at, KmPoint::new(c.x + dx, c.y + dy));
        }
        check(bounds, &points, &[c]).unwrap();
    }
}

#[test]
fn degenerate_bounds() {
    // Zero-area and one-dimensional bounds still index and answer.
    let line = KmRect::new(KmPoint::new(0.0, 5.0), KmPoint::new(100.0, 5.0));
    let dot = KmRect::new(KmPoint::new(1.0, 1.0), KmPoint::new(1.0, 1.0));
    let mut rng = Lcg(3);
    for bounds in [line, dot] {
        let points: Vec<KmPoint> =
            (0..50).map(|_| KmPoint::new(rng.range(-10.0, 110.0), rng.range(0.0, 10.0))).collect();
        let qs = queries(&points, &bounds, &mut rng);
        check(bounds, &points, &qs).unwrap();
    }
}

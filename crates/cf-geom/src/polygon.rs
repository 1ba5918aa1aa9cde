//! Simple polygons and half-plane clipping.
//!
//! The estimation step of a field value query (paper §3.2, algorithm
//! `Estimate`) computes the *exact* answer regions: the sub-region of each
//! candidate cell where the interpolated value lies inside the query
//! interval. With linear interpolation that region is the cell clipped by
//! two half-planes (`w ≥ a` and `w ≤ b`), which Sutherland–Hodgman
//! clipping computes exactly.
//!
//! One clip loop and one shoelace, both over a vertex slice, serve the
//! growable [`Polygon`] and the inline [`FixedPolygon`] the estimation
//! step uses, so the two agree bit for bit.

use crate::{Aabb, Point2};

/// A simple polygon given by its vertices in order (either orientation).
///
/// An empty vertex list represents the empty region; polygons with fewer
/// than three vertices have zero area.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polygon {
    /// Vertices in boundary order.
    pub vertices: Vec<Point2>,
}

impl Polygon {
    /// Creates a polygon from vertices in boundary order.
    pub fn new(vertices: Vec<Point2>) -> Self {
        Self { vertices }
    }

    /// The empty polygon.
    pub fn empty() -> Self {
        Self {
            vertices: Vec::new(),
        }
    }

    /// Returns `true` when the polygon has no area-bearing boundary.
    pub fn is_empty(&self) -> bool {
        self.vertices.len() < 3
    }

    /// Signed area by the shoelace formula (positive for CCW order).
    pub fn signed_area(&self) -> f64 {
        shoelace(&self.vertices)
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Centroid of the polygon (area-weighted), or `None` if the polygon
    /// has no area.
    pub fn centroid(&self) -> Option<Point2> {
        let a = self.signed_area();
        if a.abs() < 1e-300 {
            return None;
        }
        let (mut cx, mut cy) = (0.0, 0.0);
        for_each_edge(&self.vertices, |p, q| {
            let w = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        });
        Some(Point2::new(cx / (6.0 * a), cy / (6.0 * a)))
    }

    /// Axis-aligned bounding box of the polygon.
    pub fn bbox(&self) -> Aabb<2> {
        Aabb::hull_of_points(&self.vertices)
    }

    /// Clips the polygon to the half-plane `{p : keep(p) >= 0}` where
    /// `keep` is an affine function of position.
    ///
    /// See [`clip_polygon_halfplane`].
    pub fn clip_halfplane(&self, keep: impl Fn(Point2) -> f64) -> Polygon {
        clip_polygon_halfplane(self, keep)
    }
}

impl From<crate::Triangle> for Polygon {
    fn from(t: crate::Triangle) -> Self {
        Polygon::new(t.vertices.to_vec())
    }
}

/// Calls `f` on each boundary edge `(v[i], v[i + 1])` of a closed
/// vertex ring, the closing edge `(v[n - 1], v[0])` last, without a
/// per-vertex `% n`. No edge for an empty ring; one degenerate edge
/// `(v[0], v[0])` for a single vertex.
#[inline]
fn for_each_edge(vertices: &[Point2], mut f: impl FnMut(Point2, Point2)) {
    for w in vertices.windows(2) {
        f(w[0], w[1]);
    }
    if let (Some(&last), Some(&first)) = (vertices.last(), vertices.first()) {
        f(last, first);
    }
}

/// Signed area of the closed vertex ring `vertices` by the shoelace
/// formula: positive for counter-clockwise order, `0` below three
/// vertices.
///
/// The one shoelace behind [`Polygon::signed_area`] and
/// [`FixedPolygon::signed_area`]; the estimation step calls it directly
/// on the regions it visits in place. Terms are summed edge by edge from
/// `v[0]`, the closing edge last.
#[inline]
pub fn shoelace(vertices: &[Point2]) -> f64 {
    if vertices.len() < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for_each_edge(vertices, |p, q| acc += p.x * q.y - q.x * p.y);
    0.5 * acc
}

/// Sutherland–Hodgman clipping of the closed vertex ring `vertices`
/// against `{p : keep(p) >= 0}`, passing each output vertex to `emit` in
/// boundary order.
///
/// The one clip loop behind [`Polygon`] and [`FixedPolygon`]. For each
/// edge `cur → next` (closing edge last) it emits `cur` when
/// `keep(cur) >= 0`, then the crossing point when the edge changes sign
/// strictly. `keep` is evaluated once per vertex; being a pure function,
/// the values — and so the output bits — are those of evaluating it per
/// edge endpoint.
///
/// A ring of `n` vertices yields at most ⌊3n/2⌋: with `a` vertices
/// `keep > 0`, `b` with `keep < 0` and `z` with `keep == 0` (NaN counts
/// in none), the kept vertices number `a + z`, and a crossing edge has
/// one endpoint in each strict class, so there are at most
/// `2·min(a, b)` crossings. If `b ≤ a` that totals `n + b ≤ n + ⌊n/2⌋`;
/// otherwise `3a + z ≤ 3(n − z)/2 + z ≤ 3n/2`. A triangle therefore
/// clips to at most 4 vertices, and that to at most 6.
#[inline]
fn clip_into(vertices: &[Point2], keep: impl Fn(Point2) -> f64, mut emit: impl FnMut(Point2)) {
    let Some(&first) = vertices.first() else {
        return;
    };
    let mut emitted = 0usize;
    let mut edge = |cur: Point2, kc: f64, next: Point2, kn: f64| {
        if kc >= 0.0 {
            emit(cur);
            emitted += 1;
        }
        // Edge crosses the boundary: emit the intersection point.
        if (kc > 0.0 && kn < 0.0) || (kc < 0.0 && kn > 0.0) {
            let t = kc / (kc - kn);
            emit(cur.lerp(next, t));
            emitted += 1;
        }
    };
    let k_first = keep(first);
    let (mut cur, mut kc) = (first, k_first);
    for &next in &vertices[1..] {
        let kn = keep(next);
        edge(cur, kc, next, kn);
        (cur, kc) = (next, kn);
    }
    edge(cur, kc, first, k_first);
    debug_assert!(
        emitted <= 3 * vertices.len() / 2,
        "clip of {} vertices emitted {emitted}",
        vertices.len()
    );
}

/// Sutherland–Hodgman clipping of `poly` against the half-plane
/// `{p : keep(p) >= 0}`.
///
/// `keep` must be an *affine* function of position (a linear field plus a
/// constant); intersection points on edges are then computed exactly by
/// linear interpolation of `keep` values. This is precisely the situation
/// of the estimation step: for a linearly-interpolated cell the functions
/// `w(p) − a` and `b − w(p)` are affine.
pub fn clip_polygon_halfplane(poly: &Polygon, keep: impl Fn(Point2) -> f64) -> Polygon {
    let n = poly.vertices.len();
    let mut out = Vec::with_capacity(3 * n / 2);
    clip_into(&poly.vertices, keep, |p| out.push(p));
    Polygon::new(out)
}

/// Vertex capacity of a [`FixedPolygon`]: a triangle clipped by two
/// half-planes. A clip of `n` vertices emits at most ⌊3n/2⌋ (each
/// crossing edge has one endpoint strictly kept and one strictly
/// dropped), so 3 → 4 → 6.
pub const FIXED_POLYGON_CAPACITY: usize = 6;

/// A polygon of at most [`FIXED_POLYGON_CAPACITY`] vertices stored
/// inline: the allocation-free counterpart of [`Polygon`] for the
/// estimation step, which clips one triangle by the two band
/// half-planes.
///
/// It clips with the same loop and measures with the same shoelace as
/// [`Polygon`], so its vertices and area are bit-identical to the
/// growable polygon's for the same input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedPolygon {
    vertices: [Point2; FIXED_POLYGON_CAPACITY],
    len: usize,
}

impl FixedPolygon {
    /// Vertices in boundary order.
    #[inline]
    pub fn vertices(&self) -> &[Point2] {
        &self.vertices[..self.len]
    }

    /// Returns `true` when the polygon has no area-bearing boundary.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len < 3
    }

    /// Signed area by the shoelace formula (positive for CCW order).
    #[inline]
    pub fn signed_area(&self) -> f64 {
        shoelace(self.vertices())
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Clips the polygon to the half-plane `{p : keep(p) >= 0}`, as
    /// [`Polygon::clip_halfplane`] does.
    ///
    /// The input must have at most four vertices so that the result
    /// (at most ⌊3·4/2⌋ = 6) fits: clip a triangle at most twice.
    #[inline]
    pub fn clip_halfplane(&self, keep: impl Fn(Point2) -> f64) -> FixedPolygon {
        debug_assert!(self.len <= 4, "clip input of {} vertices", self.len);
        let mut out = FixedPolygon::default();
        clip_into(self.vertices(), keep, |p| {
            out.vertices[out.len] = p;
            out.len += 1;
        });
        out
    }
}

impl From<crate::Triangle> for FixedPolygon {
    #[inline]
    fn from(t: crate::Triangle) -> Self {
        let mut out = FixedPolygon {
            len: 3,
            ..FixedPolygon::default()
        };
        out.vertices[..3].copy_from_slice(&t.vertices);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triangle;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(1.0, 1.0),
            Point2::new(0.0, 1.0),
        ])
    }

    #[test]
    fn shoelace_area() {
        assert!((unit_square().area() - 1.0).abs() < 1e-12);
        assert!(unit_square().signed_area() > 0.0);
        let t: Polygon = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(0.0, 2.0),
        )
        .into();
        assert!((t.area() - 2.0).abs() < 1e-12);
        assert_eq!(Polygon::empty().area(), 0.0);
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid().unwrap();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
        assert_eq!(Polygon::empty().centroid(), None);
    }

    #[test]
    fn clip_keeps_half_of_square() {
        // Keep x >= 0.5.
        let clipped = unit_square().clip_halfplane(|p| p.x - 0.5);
        assert!((clipped.area() - 0.5).abs() < 1e-12);
        for v in &clipped.vertices {
            assert!(v.x >= 0.5 - 1e-12);
        }
    }

    #[test]
    fn clip_fully_inside_and_outside() {
        let sq = unit_square();
        let all = sq.clip_halfplane(|p| p.x + 10.0);
        assert!((all.area() - 1.0).abs() < 1e-12);
        let none = sq.clip_halfplane(|p| -p.x - 10.0);
        assert!(none.is_empty());
    }

    #[test]
    fn clip_with_affine_field_band() {
        // Field w(x, y) = x + y over the unit square; the band
        // 0.5 <= w <= 1.5 removes two corner triangles of area 1/8 each.
        let sq = unit_square();
        let band = sq
            .clip_halfplane(|p| (p.x + p.y) - 0.5)
            .clip_halfplane(|p| 1.5 - (p.x + p.y));
        assert!((band.area() - 0.75).abs() < 1e-12, "area={}", band.area());
    }

    #[test]
    fn clip_boundary_vertices_are_kept() {
        // A vertex exactly on the boundary (keep == 0) is retained once.
        let tri: Polygon = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(0.0, 1.0),
        )
        .into();
        let clipped = tri.clip_halfplane(|p| p.y); // keep y >= 0: whole triangle
        assert!((clipped.area() - tri.area()).abs() < 1e-12);
        assert_eq!(clipped.vertices.len(), 3);
    }

    #[test]
    fn fixed_polygon_band_matches_growable() {
        // The band 0.5 <= x + y <= 1.5 through a right triangle with
        // legs of 2: a quadrilateral strip, clipped inline and on the
        // heap with the same vertices and area.
        let tri = Triangle::new(
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(0.0, 2.0),
        );
        let lo = |p: Point2| (p.x + p.y) - 0.5;
        let hi = |p: Point2| 1.5 - (p.x + p.y);
        let fixed = FixedPolygon::from(tri)
            .clip_halfplane(lo)
            .clip_halfplane(hi);
        let heap = Polygon::from(tri).clip_halfplane(lo).clip_halfplane(hi);
        assert_eq!(fixed.vertices(), &heap.vertices[..]);
        assert_eq!(fixed.vertices().len(), 4);
        assert!((fixed.area() - 1.0).abs() < 1e-12);
        assert_eq!(FixedPolygon::from(tri).vertices(), &tri.vertices[..]);
        assert!(FixedPolygon::default().is_empty());
        assert_eq!(FixedPolygon::default().area(), 0.0);
    }

    #[test]
    fn bbox_of_polygon() {
        let b = unit_square().bbox();
        assert_eq!(b, Aabb::new([0.0, 0.0], [1.0, 1.0]));
    }
}

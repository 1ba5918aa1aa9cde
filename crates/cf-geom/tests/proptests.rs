//! Property-based tests for the geometry primitives.

use cf_geom::{shoelace, Aabb, FixedPolygon, Interval, Point2, Polygon, Triangle};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    -1e3..1e3f64
}

fn interval() -> impl Strategy<Value = Interval> {
    (finite_coord(), finite_coord()).prop_map(|(a, b)| Interval::spanning(a, b))
}

fn aabb2() -> impl Strategy<Value = Aabb<2>> {
    (
        finite_coord(),
        finite_coord(),
        finite_coord(),
        finite_coord(),
    )
        .prop_map(|(x0, y0, x1, y1)| Aabb::from_points(Point2::new(x0, y0), Point2::new(x1, y1)))
}

fn point2() -> impl Strategy<Value = Point2> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point2::new(x, y))
}

/// Textbook Sutherland–Hodgman with `% n` edge indexing and `keep`
/// evaluated at both endpoints of every edge: the reference the
/// modulo-free clip loop must reproduce bit for bit.
fn reference_clip(v: &[Point2], keep: impl Fn(Point2) -> f64) -> Vec<Point2> {
    let n = v.len();
    let mut out = Vec::new();
    for i in 0..n {
        let (cur, next) = (v[i], v[(i + 1) % n]);
        let (kc, kn) = (keep(cur), keep(next));
        if kc >= 0.0 {
            out.push(cur);
        }
        if (kc > 0.0 && kn < 0.0) || (kc < 0.0 && kn > 0.0) {
            out.push(cur.lerp(next, kc / (kc - kn)));
        }
    }
    out
}

/// Textbook shoelace with `% n` edge indexing.
fn reference_shoelace(v: &[Point2]) -> f64 {
    let n = v.len();
    if n < 3 {
        return 0.0;
    }
    let mut acc = 0.0;
    for i in 0..n {
        let (p, q) = (v[i], v[(i + 1) % n]);
        acc += p.x * q.y - q.x * p.y;
    }
    0.5 * acc
}

fn same_bits(a: &[Point2], b: &[Point2]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(p, q)| p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits())
}

proptest! {
    #[test]
    fn clip_and_shoelace_match_the_modulo_reference(
        v in prop::collection::vec(point2(), 0..9),
        nx in -1.0..1.0f64, ny in -1.0..1.0f64, d in -500.0..500.0f64,
        tie in 0..10usize,
    ) {
        // Passing the line through a vertex makes an exact zero.
        let d = match v.get(tie) {
            Some(p) => -(nx * p.x + ny * p.y),
            None => d,
        };
        let keep = |p: Point2| nx * p.x + ny * p.y + d;
        let want = reference_clip(&v, keep);
        let got = Polygon::new(v.clone()).clip_halfplane(keep);
        prop_assert!(same_bits(&got.vertices, &want));
        prop_assert!(want.len() <= 3 * v.len() / 2);
        prop_assert_eq!(shoelace(&v).to_bits(), reference_shoelace(&v).to_bits());
        prop_assert_eq!(got.signed_area().to_bits(), reference_shoelace(&want).to_bits());
    }

    #[test]
    fn fixed_polygon_clips_like_polygon(
        a in point2(), b in point2(), c in point2(),
        n1 in (-1.0..1.0f64, -1.0..1.0f64, -500.0..500.0f64),
        n2 in (-1.0..1.0f64, -1.0..1.0f64, -500.0..500.0f64),
    ) {
        let tri = Triangle::new(a, b, c);
        let k1 = |p: Point2| n1.0 * p.x + n1.1 * p.y + n1.2;
        let k2 = |p: Point2| n2.0 * p.x + n2.1 * p.y + n2.2;
        let want = Polygon::from(tri).clip_halfplane(k1).clip_halfplane(k2);
        let got = FixedPolygon::from(tri).clip_halfplane(k1).clip_halfplane(k2);
        prop_assert!(same_bits(got.vertices(), &want.vertices));
        prop_assert_eq!(got.area().to_bits(), want.area().to_bits());
        prop_assert_eq!(got.is_empty(), want.is_empty());
    }

    #[test]
    fn interval_union_contains_operands(a in interval(), b in interval()) {
        let u = a.union(b);
        prop_assert!(u.contains_interval(a));
        prop_assert!(u.contains_interval(b));
    }

    #[test]
    fn interval_intersection_symmetric_and_contained(a in interval(), b in interval()) {
        prop_assert_eq!(a.intersects(b), b.intersects(a));
        if let Some(i) = a.intersection(b) {
            prop_assert!(a.contains_interval(i));
            prop_assert!(b.contains_interval(i));
            prop_assert!(a.intersects(b));
        } else {
            prop_assert!(!a.intersects(b));
        }
    }

    #[test]
    fn interval_normalize_round_trip(iv in interval(), t in 0.0..1.0f64) {
        prop_assume!(iv.width() > 1e-9);
        let v = iv.denormalize(t);
        prop_assert!((iv.normalize(v) - t).abs() < 1e-9);
    }

    #[test]
    fn aabb_union_monotone_volume(a in aabb2(), b in aabb2()) {
        let u = a.union(&b);
        prop_assert!(u.volume() + 1e-9 >= a.volume());
        prop_assert!(u.volume() + 1e-9 >= b.volume());
        prop_assert!(u.contains(&a) && u.contains(&b));
    }

    #[test]
    fn aabb_intersection_volume_bounded(a in aabb2(), b in aabb2()) {
        let iv = a.intersection_volume(&b);
        prop_assert!(iv >= 0.0);
        prop_assert!(iv <= a.volume() + 1e-6);
        prop_assert!(iv <= b.volume() + 1e-6);
        prop_assert_eq!(iv > 0.0, b.intersection_volume(&a) > 0.0);
    }

    #[test]
    fn aabb_enlargement_nonnegative(a in aabb2(), b in aabb2()) {
        prop_assert!(a.enlargement(&b) >= -1e-9);
        if a.contains(&b) {
            prop_assert!(a.enlargement(&b).abs() < 1e-9);
        }
    }

    #[test]
    fn barycentric_coordinates_sum_to_one(
        a in point2(), b in point2(), c in point2(), p in point2()
    ) {
        let t = Triangle::new(a, b, c);
        prop_assume!(!t.is_degenerate());
        prop_assume!(t.area() > 1e-3);
        let l = t.barycentric(p).unwrap();
        prop_assert!((l[0] + l[1] + l[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn triangle_contains_centroid(a in point2(), b in point2(), c in point2()) {
        let t = Triangle::new(a, b, c);
        prop_assume!(t.area() > 1e-3);
        prop_assert!(t.contains(t.centroid()));
        let ct = t.centroid();
        prop_assert!(t.bbox().contains_point(&[ct.x, ct.y]));
    }

    #[test]
    fn clip_never_increases_area(
        a in point2(), b in point2(), c in point2(),
        nx in -1.0..1.0f64, ny in -1.0..1.0f64, d in -100.0..100.0f64
    ) {
        let poly: Polygon = Triangle::new(a, b, c).into();
        let clipped = poly.clip_halfplane(|p| nx * p.x + ny * p.y + d);
        prop_assert!(clipped.area() <= poly.area() + 1e-6);
    }

    #[test]
    fn clip_complement_partitions_area(
        a in point2(), b in point2(), c in point2(),
        nx in -1.0..1.0f64, ny in -1.0..1.0f64, d in -100.0..100.0f64
    ) {
        let poly: Polygon = Triangle::new(a, b, c).into();
        prop_assume!(poly.area() > 1e-3);
        let keep = |p: Point2| nx * p.x + ny * p.y + d;
        let inside = poly.clip_halfplane(keep);
        let outside = poly.clip_halfplane(|p| -keep(p));
        let total = inside.area() + outside.area();
        prop_assert!(
            (total - poly.area()).abs() < 1e-6 * poly.area().max(1.0),
            "inside={} outside={} poly={}", inside.area(), outside.area(), poly.area()
        );
    }

    #[test]
    fn circumcircle_is_equidistant(a in point2(), b in point2(), c in point2()) {
        let t = Triangle::new(a, b, c);
        prop_assume!(t.area() > 1e-2);
        if let Some((center, r2)) = t.circumcircle() {
            for v in t.vertices {
                prop_assert!((center.distance_sq(v) - r2).abs() < 1e-4 * r2.max(1.0));
            }
        }
    }
}

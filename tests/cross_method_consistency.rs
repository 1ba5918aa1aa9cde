//! Cross-crate integration: every indexing method must return exactly
//! the same answer as the exhaustive LinearScan on every workload.

use contfield::field::CompactGridField;
use contfield::prelude::*;
use contfield::workload::{
    fractal::diamond_square, monotonic::monotonic_field, noise::urban_noise_tin,
    queries::interval_queries,
};

/// The discarding sink (`query_stats`) and the collecting one
/// (`query_regions`) must report identical statistics, each run from a
/// cold pool so the I/O counts compare too, and the collected regions'
/// areas, summed in order, must reproduce the reported area bit for bit.
fn assert_sinks_agree(engine: &StorageEngine, m: &dyn ValueIndex, q: Interval) {
    engine.clear_cache();
    let stats = m.query_stats(engine, q).expect("query");
    engine.clear_cache();
    let (collected, regions) = m.query_regions(engine, q).expect("query");
    assert_eq!(
        collected,
        stats,
        "{}: query_regions and query_stats disagree for {q}",
        m.name()
    );
    assert_eq!(
        collected.area.to_bits(),
        stats.area.to_bits(),
        "{}: area bits differ between sinks for {q}",
        m.name()
    );
    assert_eq!(regions.len(), stats.num_regions, "{} for {q}", m.name());
    let summed = regions
        .iter()
        .map(Polygon::area)
        .fold(0.0, |acc, a| acc + a);
    assert_eq!(
        summed.to_bits(),
        stats.area.to_bits(),
        "{}: collected regions sum to {summed}, stats report {} for {q}",
        m.name(),
        stats.area
    );
}

/// Builds all four methods over `field` and checks them against the
/// scan on `queries`, and each method's two sinks against each other.
fn assert_all_methods_agree<F>(field: &F, queries: &[Interval])
where
    F: FieldModel + Sync,
{
    let engine = StorageEngine::in_memory();
    let scan = LinearScan::build(&engine, field).expect("build");
    let iall = IAll::build(&engine, field).expect("build");
    let ihilbert = IHilbert::build(&engine, field).expect("build");
    let iquad = {
        let dom = field.value_domain();
        IntervalQuadtree::build(&engine, field, dom.width() / 16.0).expect("build")
    };
    let methods: Vec<&dyn ValueIndex> = vec![&iall, &ihilbert, &iquad];

    for q in queries {
        assert_sinks_agree(&engine, &scan, *q);
        for m in &methods {
            assert_sinks_agree(&engine, *m, *q);
        }
        let want = scan.query_stats(&engine, *q).expect("query");
        for m in &methods {
            let got = m.query_stats(&engine, *q).expect("query");
            assert_eq!(
                got.cells_qualifying,
                want.cells_qualifying,
                "{} disagrees on qualifying cells for {q}",
                m.name()
            );
            assert_eq!(
                got.num_regions,
                want.num_regions,
                "{} disagrees on region count for {q}",
                m.name()
            );
            assert!(
                (got.area - want.area).abs() <= 1e-9 * want.area.max(1.0),
                "{} disagrees on area for {q}: {} vs {}",
                m.name(),
                got.area,
                want.area
            );
        }
    }
}

fn sweep(dom: Interval, seed: u64) -> Vec<Interval> {
    let mut queries = Vec::new();
    for qi in [0.0, 0.01, 0.05, 0.1] {
        queries.extend(interval_queries(dom, qi, 10, seed + (qi * 1000.0) as u64));
    }
    // Edge cases: full domain, empty band outside the domain, exact
    // boundary values.
    queries.push(dom);
    queries.push(Interval::new(dom.hi + 1.0, dom.hi + 2.0));
    queries.push(Interval::point(dom.lo));
    queries.push(Interval::point(dom.hi));
    queries
}

#[test]
fn fractal_grids_all_roughness_levels() {
    for h in [0.1, 0.5, 0.9] {
        let field = diamond_square(5, h, 77);
        let dom = field.value_domain();
        assert_all_methods_agree(&field, &sweep(dom, 1));
    }
}

#[test]
fn monotonic_grid() {
    let field = monotonic_field(48);
    let dom = field.value_domain();
    assert_all_methods_agree(&field, &sweep(dom, 2));
}

#[test]
fn compact_grid() {
    let field = CompactGridField::new(&diamond_square(5, 0.5, 78));
    let dom = field.value_domain();
    assert_all_methods_agree(&field, &sweep(dom, 4));
}

#[test]
fn noise_tin() {
    let field = urban_noise_tin(1200, 5);
    let dom = field.value_domain();
    assert_all_methods_agree(&field, &sweep(dom, 3));
}

#[test]
fn constant_field_degenerate_case() {
    // A constant field has a single degenerate interval everywhere; all
    // methods must agree on hit-vs-miss semantics.
    let field = GridField::from_values(9, 9, vec![5.0; 81]);
    assert_all_methods_agree(
        &field,
        &[
            Interval::point(5.0),
            Interval::new(4.0, 6.0),
            Interval::new(5.0, 9.0),
            Interval::new(6.0, 7.0),
        ],
    );
}

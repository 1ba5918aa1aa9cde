//! Microbenchmarks of the substrates: space-filling curves, R\*-tree
//! operations, Delaunay triangulation, the storage engine, and the
//! estimation-step clipping.

use cf_delaunay::triangulate;
use cf_field::estimate::triangle_band;
use cf_field::{FieldModel, GridCellRecord, GridField};
use cf_geom::{shoelace, Aabb, Interval, Point2, Triangle};
use cf_index::cell_order;
use cf_rtree::{bulk_load_str, PagedRTree, RStarTree, RTreeConfig};
use cf_sfc::{hilbert_index_2d, hilbert_index_nd, Curve};
use cf_storage::compress::{decode_page, PageEncoder};
use cf_storage::{checksum, KvRecord, Record, RecordFile, StorageEngine, PAGE_SIZE};
use cf_workload::terrain::roseburg_standin;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn curves(c: &mut Criterion) {
    let mut g = c.benchmark_group("sfc");
    let mut i = 0u64;
    g.bench_function("hilbert_index_2d_order16", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9);
            std::hint::black_box(hilbert_index_2d(i & 0xFFFF, (i >> 16) & 0xFFFF, 16))
        })
    });
    g.bench_function("hilbert_index_nd_3d_bits16", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9E37_79B9);
            std::hint::black_box(hilbert_index_nd(
                &[i & 0xFFFF, (i >> 16) & 0xFFFF, (i >> 32) & 0xFFFF],
                16,
            ))
        })
    });
    for curve in Curve::ALL {
        g.bench_function(format!("{}_index_order12", curve.name()), |b| {
            b.iter(|| {
                i = i.wrapping_add(0x9E37_79B9);
                std::hint::black_box(curve.index(i & 0xFFF, (i >> 12) & 0xFFF, 12))
            })
        });
    }
    g.finish();
}

fn rtree(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let items: Vec<(Aabb<1>, u64)> = (0..50_000u64)
        .map(|i| {
            let lo: f64 = rng.gen_range(0.0..1000.0);
            (Aabb::new([lo], [lo + rng.gen_range(0.0..2.0)]), i)
        })
        .collect();

    let mut g = c.benchmark_group("rtree");
    g.sample_size(10);
    g.bench_function("insert_50k_dynamic", |b| {
        b.iter(|| {
            let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
            for &(mbr, d) in &items {
                tree.insert(mbr, d);
            }
            std::hint::black_box(tree.len())
        })
    });
    g.bench_function("bulk_load_50k", |b| {
        b.iter(|| {
            std::hint::black_box(bulk_load_str(items.clone(), RTreeConfig::page_sized::<1>()))
        })
    });

    let mut tree: RStarTree<1> = RStarTree::new(RTreeConfig::page_sized::<1>());
    for &(mbr, d) in &items {
        tree.insert(mbr, d);
    }
    let mut q = 0.0f64;
    g.bench_function("search_in_memory", |b| {
        b.iter(|| {
            q = (q + 37.77) % 990.0;
            std::hint::black_box(tree.search(&Aabb::new([q], [q + 5.0]), |_, _| {}))
        })
    });

    let engine = StorageEngine::in_memory();
    let paged = PagedRTree::persist(&tree, &engine).expect("persist");
    g.bench_function("search_paged_cold", |b| {
        b.iter(|| {
            q = (q + 37.77) % 990.0;
            engine.clear_cache();
            std::hint::black_box(
                paged
                    .search(&engine, &Aabb::new([q], [q + 5.0]), |_, _| {})
                    .expect("search"),
            )
        })
    });
    g.finish();
}

fn delaunay(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let points: Vec<Point2> = (0..1000)
        .map(|_| Point2::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        .collect();
    let mut g = c.benchmark_group("delaunay");
    g.sample_size(10);
    g.bench_function("triangulate_1000_sites", |b| {
        b.iter(|| std::hint::black_box(triangulate(&points).expect("triangulates")))
    });
    g.finish();
}

fn storage(c: &mut Criterion) {
    let engine = StorageEngine::in_memory();
    let records: Vec<KvRecord> = (0..100_000u64)
        .map(|i| KvRecord {
            key: i,
            value: i as f64,
        })
        .collect();
    let file = RecordFile::create(&engine, records).expect("create");
    let mut g = c.benchmark_group("storage");
    let mut start = 0usize;
    g.bench_function("range_scan_1000_records_warm", |b| {
        b.iter(|| {
            start = (start + 997) % 99_000;
            let mut acc = 0.0;
            file.for_each_in_range(&engine, start..start + 1000, |_, r| acc += r.value)
                .expect("scan");
            std::hint::black_box(acc)
        })
    });
    g.bench_function("range_scan_1000_records_cold", |b| {
        b.iter(|| {
            start = (start + 997) % 99_000;
            engine.clear_cache();
            let mut acc = 0.0;
            file.for_each_in_range(&engine, start..start + 1000, |_, r| acc += r.value)
                .expect("scan");
            std::hint::black_box(acc)
        })
    });

    // The cold read path's CPU per page: the sidecar checksum of a 4 KiB
    // image and the decode of one compressed page of Hilbert-ordered
    // terrain cells, filled greedily with no update reserve.
    let field = roseburg_standin(7);
    let cells: Vec<GridCellRecord> = cell_order(&field, Curve::Hilbert)
        .into_iter()
        .map(|c| field.cell_record(c))
        .collect();
    let (cols, groups) = (
        GridCellRecord::columns(),
        GridCellRecord::column_rotation_groups(),
    );
    let mut enc = PageEncoder::new(cols.clone(), groups.clone());
    let mut image = vec![0u8; GridCellRecord::SIZE];
    for cell in &cells {
        cell.encode(&mut image);
        if !enc.try_push(&image, 0) {
            break;
        }
    }
    let mut page = [0u8; PAGE_SIZE];
    let count = enc.count();
    enc.flush_into(&mut page);
    let mut out = vec![0u8; count * GridCellRecord::SIZE];
    g.bench_function("crc32_4k_page", |b| {
        b.iter(|| std::hint::black_box(checksum::crc32(std::hint::black_box(&page))))
    });
    g.bench_function("decode_page_grid", |b| {
        b.iter(|| {
            std::hint::black_box(
                decode_page(&cols, &groups, GridCellRecord::SIZE, &page, &mut out)
                    .expect("decodes"),
            )
        })
    });
    g.finish();
}

fn estimation(c: &mut Criterion) {
    let tri = Triangle::new(
        Point2::new(0.0, 0.0),
        Point2::new(1.0, 0.1),
        Point2::new(0.3, 1.0),
    );
    let mut g = c.benchmark_group("estimate");
    let mut lo = 0.0f64;
    g.bench_function("triangle_band_clip", |b| {
        b.iter(|| {
            lo = (lo + 0.013) % 0.8;
            std::hint::black_box(triangle_band(&tri, [0.0, 1.0, 0.5], lo, lo + 0.1))
        })
    });
    // One grid cell (two triangles) through the allocation-free region
    // visitor, counting regions and summing areas as `query_stats` does.
    let cell = GridField::from_values(2, 2, vec![0.0, 1.0, 0.5, 0.8]).cell_record(0);
    g.bench_function("grid_cell_band_regions", |b| {
        b.iter(|| {
            lo = (lo + 0.013) % 0.8;
            let (mut regions, mut area) = (0usize, 0.0f64);
            GridField::for_each_band_region(&cell, Interval::new(lo, lo + 0.1), |region| {
                regions += 1;
                area += shoelace(region).abs();
            });
            std::hint::black_box((regions, area))
        })
    });
    g.finish();
}

criterion_group! {name = benches; config = Criterion::default().without_plots(); targets = curves, rtree, delaunay, storage, estimation}
criterion_main!(benches);

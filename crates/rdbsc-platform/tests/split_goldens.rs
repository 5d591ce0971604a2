//! Bit-level goldens for the two ways the workspace splits space.
//!
//! * **Region tables.** `RegionPartition::uniform` on the 20 × 20 grid
//!   (cell 0.05, the cell size every served workload uses) must produce
//!   these literal cell ranges. A durable daemon persists its routing table
//!   in the `configure.json` fingerprint and compares it on re-attach, so a
//!   moved boundary would refuse every existing data directory.
//! * **D&C's 2-means.** `balanced_two_way_split`'s index sets and
//!   `divide_and_conquer`'s pairs on a few small seeded instances fold into
//!   one FNV digest each. The differential solver tests replay D&C against
//!   a reference that calls the same split, so they cannot see the split's
//!   own RNG draws or float order move; these digests do.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rdbsc_algos::{divide_and_conquer, DncConfig, SolveRequest};
use rdbsc_cluster::{balanced_two_way_split, CellRange, RegionPartition};
use rdbsc_geo::{Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_model::{compute_valid_pairs, ProblemInstance};
use rdbsc_obs::digest::Fnv1a;
use rdbsc_workloads::{
    generate_instance, generate_metro_instance, Distribution, ExperimentConfig, MetroConfig,
};

fn range(col0: usize, row0: usize, col1: usize, row1: usize) -> CellRange {
    CellRange {
        col0,
        row0,
        col1,
        row1,
    }
}

#[test]
fn uniform_region_tables_are_pinned() {
    let geometry = GridGeometry::new(Rect::unit(), 0.05);
    assert_eq!(geometry.cells_per_axis(), 20);
    let expected = [
        (2, vec![range(0, 0, 10, 20), range(10, 0, 20, 20)]),
        (
            3,
            vec![
                range(0, 0, 10, 10),
                range(10, 0, 20, 20),
                range(0, 10, 10, 20),
            ],
        ),
        (
            4,
            vec![
                range(0, 0, 10, 10),
                range(10, 0, 20, 10),
                range(0, 10, 10, 20),
                range(10, 10, 20, 20),
            ],
        ),
        (
            9,
            vec![
                range(0, 0, 5, 5),
                range(5, 0, 10, 10),
                range(10, 0, 15, 10),
                range(15, 0, 20, 10),
                range(0, 5, 5, 10),
                range(0, 10, 5, 20),
                range(5, 10, 10, 20),
                range(10, 10, 15, 20),
                range(15, 10, 20, 20),
            ],
        ),
    ];
    for (n, want) in expected {
        assert_eq!(
            RegionPartition::uniform(geometry, n).regions(),
            &want[..],
            "{n} regions"
        );
    }
}

/// The instances both digests run on: paper-default uniform and skewed
/// instances small enough for D&C to recurse a few levels, and one metro
/// instance whose four cities make the 2-means split obvious.
fn instances() -> Vec<(u64, ProblemInstance)> {
    let mut out = Vec::new();
    for (seed, distribution) in [
        (1, Distribution::Uniform),
        (2, Distribution::Uniform),
        (3, Distribution::Skewed),
    ] {
        let config = ExperimentConfig::paper_default()
            .with_tasks(70)
            .with_workers(90)
            .with_distribution(distribution);
        out.push((
            seed,
            generate_instance(&config, &mut StdRng::seed_from_u64(seed)),
        ));
    }
    let metro = MetroConfig::default().with_tasks(80).with_workers(160);
    out.push((
        4,
        generate_metro_instance(&metro, &mut StdRng::seed_from_u64(4)),
    ));
    out
}

fn fold_indices(digest: &mut Fnv1a, indices: &[usize]) {
    digest.write_u64(indices.len() as u64);
    for &i in indices {
        digest.write_u64(i as u64);
    }
}

#[test]
fn balanced_two_way_split_is_pinned() {
    let mut digest = Fnv1a::new();
    let mut point_sets: Vec<Vec<Point>> = instances()
        .iter()
        .map(|(_, instance)| instance.tasks.iter().map(|t| t.location).collect())
        .collect();
    point_sets.push(Vec::new());
    point_sets.push(vec![Point::new(0.3, 0.7)]);
    point_sets.push(vec![Point::new(0.5, 0.5); 9]);
    for (seed, points) in point_sets.iter().enumerate() {
        let (a, b) = balanced_two_way_split(points, &mut StdRng::seed_from_u64(seed as u64));
        fold_indices(&mut digest, &a);
        fold_indices(&mut digest, &b);
    }
    assert_eq!(
        digest.finish(),
        0xb492_b0fc_23f9_1832,
        "split digest {:#018x}",
        digest.finish()
    );
}

#[test]
fn divide_and_conquer_is_pinned() {
    let mut digest = Fnv1a::new();
    let mut assigned = 0;
    for (seed, instance) in instances() {
        let candidates = compute_valid_pairs(&instance);
        for gamma in [4, 16] {
            let config = DncConfig {
                gamma,
                ..DncConfig::default()
            };
            let request = SolveRequest::new(&instance, &candidates);
            let assignment =
                divide_and_conquer(&request, &config, &mut StdRng::seed_from_u64(seed));
            assigned += assignment.num_assigned();
            digest.write_u64(assignment.num_assigned() as u64);
            for (task, worker, c) in assignment.iter() {
                digest.write_u64(task.0 as u64);
                digest.write_u64(worker.0 as u64);
                digest.write_u64(c.p().to_bits());
                digest.write_u64(c.angle.to_bits());
                digest.write_u64(c.arrival.to_bits());
            }
        }
    }
    assert_eq!(
        assigned, 522,
        "the instances must give D&C something to assign"
    );
    assert_eq!(
        digest.finish(),
        0x6107_9e75_6d70_6544,
        "D&C digest {:#018x}",
        digest.finish()
    );
}

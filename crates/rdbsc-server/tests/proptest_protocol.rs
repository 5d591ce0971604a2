//! Property tests for the partition protocol's handshake values: routing
//! tables survive serialization with region geometry intact, engine configs
//! round-trip through the configure JSON and hellos through their frame for
//! arbitrary field values, and hostile input is rejected without panicking
//! — mirroring the `proptest_backends.rs` / `proptest_json.rs` style. (The
//! commands' frame round trips live in `proptest_frame.rs`.)

use proptest::prelude::*;
use rdbsc_cluster::{CellRange, RegionPartition};
use rdbsc_geo::{Point, Rect};
use rdbsc_index::geometry::GridGeometry;
use rdbsc_platform::EngineConfig;
use rdbsc_server::frame::{read_raw, ReplyBody, ReplyFrame};
use rdbsc_server::json::parse;
use rdbsc_server::protocol::{ConfigureDto, EngineConfigDto, Hello, RoutingTableDto};

/// A random guillotine tiling of a `per_axis` × `per_axis` grid: each cut
/// `(region, axis, offset)` splits a region at any cell boundary strictly
/// inside it, across its columns when `axis` is 1 (or it is one row high),
/// and the tiles come back in canonical `(row, col)` order. The
/// uniform splitter only ever cuts at midpoints, but a daemon accepts any
/// valid table from the wire.
fn guillotine_tiling(per_axis: usize, cuts: &[(usize, u32, usize)]) -> Vec<CellRange> {
    let mut tiles = vec![CellRange {
        col0: 0,
        row0: 0,
        col1: per_axis,
        row1: per_axis,
    }];
    for &(region, axis, offset) in cuts {
        let i = region % tiles.len();
        let r = tiles[i];
        let (cols, rows) = (r.col1 - r.col0, r.row1 - r.row0);
        let (low, high) = if cols > 1 && (axis == 1 || rows == 1) {
            let at = r.col0 + 1 + offset % (cols - 1);
            (CellRange { col1: at, ..r }, CellRange { col0: at, ..r })
        } else if rows > 1 {
            let at = r.row0 + 1 + offset % (rows - 1);
            (CellRange { row1: at, ..r }, CellRange { row0: at, ..r })
        } else {
            continue; // a single cell
        };
        tiles[i] = low;
        tiles.push(high);
    }
    tiles.sort_by_key(|r| (r.row0, r.col0));
    tiles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Routing tables round-trip with the region geometry — and therefore
    /// the router/daemon agreement — intact, for uniform tables and for
    /// arbitrary guillotine tilings.
    #[test]
    fn routing_tables_round_trip(
        eta_cells in 4usize..32,
        regions in 1usize..9,
        guillotine_pick in 0u32..2,
        cuts in proptest::collection::vec((0usize..64, 0u32..2, 0usize..64), 0..9),
        samples in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..40),
    ) {
        let geometry = GridGeometry::new(Rect::unit(), 1.0 / eta_cells as f64);
        let sample: Vec<Point> = samples.iter().map(|(x, y)| Point::new(*x, *y)).collect();
        let partition = if guillotine_pick == 1 {
            let tiles = guillotine_tiling(geometry.cells_per_axis(), &cuts);
            RegionPartition::from_regions(geometry, tiles).unwrap()
        } else {
            RegionPartition::uniform(geometry, regions)
        };
        let dto = RoutingTableDto::from_partition(&partition);
        let wire = dto.to_json().to_string_compact();
        let decoded = RoutingTableDto::from_json(&parse(&wire).unwrap()).unwrap();
        prop_assert_eq!(&decoded, &dto);
        let rebuilt = decoded.into_partition().unwrap();
        prop_assert_eq!(&rebuilt, &partition);
        // Routing agreement: every sample point maps to the same region on
        // both sides of the wire, and that region's rectangle holds it.
        for p in &sample {
            let region = rebuilt.partition_of(*p);
            prop_assert_eq!(region, partition.partition_of(*p));
            let rect = rebuilt.region_rect(region);
            prop_assert!(
                p.x >= rect.min_x - 1e-12 && p.x <= rect.max_x + 1e-12
                    && p.y >= rect.min_y - 1e-12 && p.y <= rect.max_y + 1e-12,
                "{:?} routed to region {} with rect {:?}", p, region, rect
            );
        }
    }

    /// Engine configs round-trip, seeds at full u64 precision.
    #[test]
    fn engine_configs_round_trip(
        beta in 0.0f64..=1.0,
        parallelism in 0u64..64,
        seed in 0u64..=u64::MAX,
        auto_expire_pick in 0u32..2,
    ) {
        let config = EngineConfig {
            beta,
            parallelism: parallelism as usize,
            seed,
            auto_expire: auto_expire_pick == 1,
        };
        let dto = EngineConfigDto::from_config(&config);
        let wire = dto.to_json().to_string_compact();
        let decoded = EngineConfigDto::from_json(&parse(&wire).unwrap()).unwrap();
        let rebuilt = decoded.into_config().unwrap();
        prop_assert_eq!(rebuilt.seed, config.seed);
        prop_assert_eq!(rebuilt.beta, config.beta);
        prop_assert_eq!(rebuilt.parallelism, config.parallelism);
        prop_assert_eq!(rebuilt.auto_expire, config.auto_expire);
    }

    /// Hellos round-trip through their reply frame for every state a
    /// daemon can report, at any version.
    #[test]
    fn hellos_round_trip(
        version in 0u32..=u32::MAX,
        region in 0u32..=u32::MAX,
        request_id in 0u64..=u64::MAX,
        configured_pick in 0u32..2,
        draining_pick in 0u32..2,
        standby_pick in 0u32..2,
    ) {
        let reply = ReplyFrame {
            request_id,
            body: ReplyBody::Hello(Hello {
                protocol_version: version,
                region_index: (configured_pick == 1).then_some(region),
                draining: draining_pick == 1,
                standby: standby_pick == 1,
            }),
        };
        let mut wire = Vec::new();
        reply.write_to(&mut wire).unwrap();
        let raw = read_raw(&mut &wire[..], 1 << 10).unwrap().unwrap();
        prop_assert_eq!(ReplyFrame::decode(&raw).unwrap(), reply);
    }

    /// Hostile input: arbitrary JSON documents thrown at every protocol
    /// decoder produce clean errors (or valid decodes), never panics.
    #[test]
    fn hostile_documents_never_panic(
        numbers in proptest::collection::vec(-1.0e12f64..1.0e12, 0..6),
        kinds in proptest::collection::vec(0u32..6, 0..6),
        version in -1.0e12f64..1.0e12,
    ) {
        use rdbsc_server::json::Json;
        // Assemble a structurally plausible but semantically wrong body:
        // the handshake's field names over values of the wrong shape.
        let junk: Vec<Json> = kinds
            .iter()
            .zip(numbers.iter().cycle())
            .map(|(kind, n)| match kind {
                0 => Json::obj([("col0", Json::Num(*n)), ("row0", Json::Str("x".into()))]),
                1 => Json::obj([("min_x", Json::Num(*n)), ("max_x", Json::Null)]),
                2 => Json::Str("binary".into()),
                3 => Json::Num(*n),
                4 => Json::Null,
                _ => Json::obj([("seed", Json::Num(*n)), ("beta", Json::Bool(true))]),
            })
            .collect();
        let pick = |i: usize| junk.get(i).cloned().unwrap_or(Json::Null);
        let body = Json::obj([
            ("protocol_version", Json::Num(version)),
            ("configured", pick(0)),
            ("draining", pick(1)),
            ("space", pick(2)),
            ("cells_per_axis", Json::Num(version)),
            ("regions", Json::Arr(junk.clone())),
            ("routing", pick(3)),
            ("engine", pick(4)),
            ("durability", pick(5)),
        ]);
        let _ = RoutingTableDto::from_json(&body); // must not panic
        let _ = EngineConfigDto::from_json(&body);
        let _ = ConfigureDto::from_json(&body);
    }

    /// Raw hostile *strings* through the parser and then the decoders.
    #[test]
    fn hostile_strings_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(doc) = parse(&text) {
            let _ = RoutingTableDto::from_json(&doc);
            let _ = EngineConfigDto::from_json(&doc);
            let _ = ConfigureDto::from_json(&doc);
        }
    }
}

//! The partition protocol's values that are not commands: the configure
//! payload (protocol version, routing table, engine and durability config),
//! which travels as canonical JSON text inside a `Configure` frame and is
//! persisted as `configure.json`; the daemon's [`Hello`]; and the
//! replication status, carried by a frame and rendered under `/metrics`.
//! The router side of the protocol is defined in
//! [`rdbsc_platform::protocol`]; the frames themselves are [`crate::frame`].
//!
//! Conventions:
//!
//! * The protocol version is checked twice per attach: by the router on the
//!   daemon's [`Hello`], and by the daemon on the configure payload.
//! * Floats survive the wire exactly: the JSON codec prints
//!   shortest-round-trip forms ([`crate::json::write_f64`]), which is what
//!   keeps the persisted configure fingerprint stable byte for byte.
//! * `u64` quantities that can exceed 2^53 (the engine seed) are carried as
//!   **strings**; everything bounded (ids are `u32`, counters are counts)
//!   rides as JSON numbers.
//!
//! Like the serving DTOs ([`crate::dto`]), decoding validates field
//! presence and types; model-level invariants are enforced when a DTO is
//! turned into the corresponding engine object, so a hostile daemon or
//! router gets a clean 400, never a panic.

use crate::dto::{id, num, string};
use crate::error::ServerError;
use crate::json::Json;
use rdbsc_cluster::{CellRange, RegionPartition};
use rdbsc_geo::Rect;
use rdbsc_index::geometry::GridGeometry;
use rdbsc_platform::EngineConfig;

fn uint(value: &Json, field: &'static str) -> Result<u64, ServerError> {
    let n = num(value, field)?;
    if n.fract() != 0.0 || !(0.0..=9_007_199_254_740_992f64).contains(&n) {
        return Err(ServerError::BadField {
            field,
            expected: "a non-negative integer",
        });
    }
    Ok(n as u64)
}

fn u64_string(value: &Json, field: &'static str) -> Result<u64, ServerError> {
    string(value, field)?
        .parse()
        .map_err(|_| ServerError::BadField {
            field,
            expected: "a u64 in a string",
        })
}

fn bool_field(value: &Json, field: &'static str) -> Result<bool, ServerError> {
    value
        .get(field)
        .ok_or(ServerError::MissingField(field))?
        .as_bool()
        .ok_or(ServerError::BadField {
            field,
            expected: "a boolean",
        })
}

fn finite(value: f64, field: &'static str) -> Result<f64, ServerError> {
    if !value.is_finite() {
        return Err(ServerError::BadField {
            field,
            expected: "a finite number",
        });
    }
    Ok(value)
}

/// Reads and validates the `request_id` of a `/debug/slow-tick-ms` body.
pub fn request_id(value: &Json) -> Result<u64, ServerError> {
    uint(value, "request_id")
}

/// Decodes the `threshold_ms` body of `POST /debug/slow-tick-ms` into the
/// microsecond threshold the slow-tick buffer takes: any negative value
/// disables capture (`u64::MAX`), `0` captures every tick, positive values
/// are whole milliseconds.
pub(crate) fn slow_tick_threshold_us(value: &Json) -> Result<u64, ServerError> {
    let ms = num(value, "threshold_ms")?;
    if !ms.is_finite() || (ms >= 0.0 && ms.fract() != 0.0) {
        return Err(ServerError::BadField {
            field: "threshold_ms",
            expected: "a whole number of milliseconds (negative disables)",
        });
    }
    if ms < 0.0 {
        return Ok(u64::MAX);
    }
    Ok((ms as u64).saturating_mul(1000))
}

/// Encodes a trace id for the wire (16 hex digits, zero-padded).
pub fn trace_to_hex(trace: u64) -> String {
    format!("{trace:016x}")
}

/// The routing table: grid geometry plus the canonical region list —
/// everything a daemon needs to agree with the router on region boundaries
/// (and to reject a router whose geometry differs from the one it was
/// configured with). The grid resolution rides as the **integer axis
/// count**, not the float `η`: re-deriving the count from `η` on the far
/// side (`ceil(extent / η)`) can land one ulp above the integer for some
/// resolutions, which would make a daemon reject the router's own table.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTableDto {
    /// The data-space rectangle.
    pub space: (f64, f64, f64, f64),
    /// Grid cells per axis (`η` is recomputed as `extent / cells_per_axis`,
    /// bit-identically on both sides).
    pub cells_per_axis: u32,
    /// The regions as cell ranges `(col0, row0, col1, row1)`, in partition
    /// order.
    pub regions: Vec<(u32, u32, u32, u32)>,
}

impl RoutingTableDto {
    /// Builds the DTO from a region partition.
    pub fn from_partition(partition: &RegionPartition) -> Self {
        let geometry = partition.geometry();
        let space = geometry.space();
        Self {
            space: (space.min_x, space.min_y, space.max_x, space.max_y),
            cells_per_axis: geometry.cells_per_axis() as u32,
            regions: partition
                .regions()
                .iter()
                .map(|r| (r.col0 as u32, r.row0 as u32, r.col1 as u32, r.row1 as u32))
                .collect(),
        }
    }

    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        let (min_x, min_y, max_x, max_y) = self.space;
        Json::obj([
            (
                "space",
                Json::obj([
                    ("min_x", Json::Num(min_x)),
                    ("min_y", Json::Num(min_y)),
                    ("max_x", Json::Num(max_x)),
                    ("max_y", Json::Num(max_y)),
                ]),
            ),
            ("cells_per_axis", Json::Num(self.cells_per_axis as f64)),
            (
                "regions",
                Json::Arr(
                    self.regions
                        .iter()
                        .map(|(col0, row0, col1, row1)| {
                            Json::obj([
                                ("col0", Json::Num(*col0 as f64)),
                                ("row0", Json::Num(*row0 as f64)),
                                ("col1", Json::Num(*col1 as f64)),
                                ("row1", Json::Num(*row1 as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        let space = value.get("space").ok_or(ServerError::MissingField("space"))?;
        let regions = value
            .get("regions")
            .ok_or(ServerError::MissingField("regions"))?
            .as_arr()
            .ok_or(ServerError::BadField {
                field: "regions",
                expected: "an array",
            })?
            .iter()
            .map(|r| {
                Ok((
                    id(r, "col0")?,
                    id(r, "row0")?,
                    id(r, "col1")?,
                    id(r, "row1")?,
                ))
            })
            .collect::<Result<Vec<_>, ServerError>>()?;
        Ok(Self {
            space: (
                num(space, "min_x")?,
                num(space, "min_y")?,
                num(space, "max_x")?,
                num(space, "max_y")?,
            ),
            cells_per_axis: id(value, "cells_per_axis")?,
            regions,
        })
    }

    /// Converts into a validated [`RegionPartition`]: finite geometry, a
    /// positive cell size, and a region list that tiles the grid exactly in
    /// canonical order (see [`RegionPartition::from_regions`]).
    pub fn into_partition(self) -> Result<RegionPartition, ServerError> {
        let (min_x, min_y, max_x, max_y) = self.space;
        for v in [min_x, min_y, max_x, max_y] {
            finite(v, "space")?;
        }
        if !(min_x < max_x && min_y < max_y) {
            return Err(ServerError::BadField {
                field: "space",
                expected: "a non-empty rectangle",
            });
        }
        if !(1..=1024).contains(&self.cells_per_axis) {
            return Err(ServerError::BadField {
                field: "cells_per_axis",
                expected: "an axis count in [1, 1024]",
            });
        }
        let geometry = GridGeometry::with_cells_per_axis(
            Rect::new(min_x, min_y, max_x, max_y),
            self.cells_per_axis as usize,
        );
        let regions = self
            .regions
            .into_iter()
            .map(|(col0, row0, col1, row1)| CellRange {
                col0: col0 as usize,
                row0: row0 as usize,
                col1: col1 as usize,
                row1: row1 as usize,
            })
            .collect();
        RegionPartition::from_regions(geometry, regions)
            .map_err(ServerError::Conflict)
    }
}

/// The engine configuration on the wire (the seed rides as a string: JSON
/// numbers lose u64 precision past 2^53).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfigDto {
    /// Diversity balance weight β.
    pub beta: f64,
    /// Solver parallelism (0 = all cores).
    pub parallelism: u64,
    /// Deterministic base seed.
    pub seed: u64,
    /// Auto-expire tasks at tick start?
    pub auto_expire: bool,
}

impl EngineConfigDto {
    /// Builds the DTO from an engine config.
    pub fn from_config(config: &EngineConfig) -> Self {
        Self {
            beta: config.beta,
            parallelism: config.parallelism as u64,
            seed: config.seed,
            auto_expire: config.auto_expire,
        }
    }

    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("beta", Json::Num(self.beta)),
            ("parallelism", Json::Num(self.parallelism as f64)),
            ("seed", Json::Str(self.seed.to_string())),
            ("auto_expire", Json::Bool(self.auto_expire)),
        ])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            beta: num(value, "beta")?,
            parallelism: uint(value, "parallelism")?,
            seed: u64_string(value, "seed")?,
            auto_expire: bool_field(value, "auto_expire")?,
        })
    }

    /// Converts into a validated [`EngineConfig`].
    pub fn into_config(self) -> Result<EngineConfig, ServerError> {
        finite(self.beta, "beta")?;
        if !(0.0..=1.0).contains(&self.beta) {
            return Err(ServerError::BadField {
                field: "beta",
                expected: "a weight in [0, 1]",
            });
        }
        Ok(EngineConfig {
            beta: self.beta,
            parallelism: self.parallelism as usize,
            seed: self.seed,
            auto_expire: self.auto_expire,
        })
    }
}

/// Durability knobs a router pushes alongside the configure payload. A
/// daemon booted with `--data-dir` runs its write-ahead log with these; a
/// daemon without a data dir ignores them (durability is an operator
/// decision, the knobs only tune it).
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityDto {
    /// Rotate to a new log segment after this many bytes.
    pub wal_segment_bytes: u64,
    /// Write a checkpoint every N engine ticks (0 disables periodic
    /// checkpoints).
    pub wal_checkpoint_every_ticks: u64,
    /// fsync at every tick boundary (group commit)?
    pub wal_fsync_on_tick: bool,
}

impl DurabilityDto {
    /// Builds the DTO from the platform's log configuration.
    pub fn from_wal_config(config: &rdbsc_platform::WalConfig) -> Self {
        Self {
            wal_segment_bytes: config.segment_bytes,
            wal_checkpoint_every_ticks: config.checkpoint_every_ticks,
            wal_fsync_on_tick: config.fsync_on_tick,
        }
    }

    /// Converts into the platform's log configuration.
    pub fn into_wal_config(self) -> Result<rdbsc_platform::WalConfig, ServerError> {
        if self.wal_segment_bytes == 0 {
            return Err(ServerError::BadField {
                field: "wal_segment_bytes",
                expected: "a positive segment size",
            });
        }
        Ok(rdbsc_platform::WalConfig {
            segment_bytes: self.wal_segment_bytes,
            checkpoint_every_ticks: self.wal_checkpoint_every_ticks,
            fsync_on_tick: self.wal_fsync_on_tick,
        })
    }

    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "wal_segment_bytes",
                Json::Num(self.wal_segment_bytes as f64),
            ),
            (
                "wal_checkpoint_every_ticks",
                Json::Num(self.wal_checkpoint_every_ticks as f64),
            ),
            ("wal_fsync_on_tick", Json::Bool(self.wal_fsync_on_tick)),
        ])
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            wal_segment_bytes: uint(value, "wal_segment_bytes")?,
            wal_checkpoint_every_ticks: uint(value, "wal_checkpoint_every_ticks")?,
            wal_fsync_on_tick: bool_field(value, "wal_fsync_on_tick")?,
        })
    }
}

/// The `Configure` frame's payload: the routing table, which of its regions
/// this daemon serves and the engine configuration. Payloads written by
/// earlier builds (a router's push, a persisted `configure.json`) also carry
/// a `backend` string; it is not read, so they decode to the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigureDto {
    /// The router's protocol version.
    pub protocol_version: u32,
    /// The routing table both sides must agree on.
    pub routing: RoutingTableDto,
    /// The region (partition index) this daemon serves.
    pub region_index: u32,
    /// The **raw configured cell size** the daemon must build its region
    /// index with — the same value in-process regions are built with. The
    /// routing table's effective `η` is derived from it but not identical
    /// (clamping), and an index built with the wrong one resolves cells
    /// differently, silently breaking cross-transport determinism.
    pub cell_size: f64,
    /// The engine configuration (shared by every partition).
    pub engine: EngineConfigDto,
    /// Durability knobs for daemons running a write-ahead log (`None`
    /// leaves a durable daemon on its defaults and is what pre-durability
    /// routers send — the encoding omits the field, keeping fingerprints
    /// stable).
    pub durability: Option<DurabilityDto>,
}

impl ConfigureDto {
    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("protocol_version", Json::Num(self.protocol_version as f64)),
            ("routing", self.routing.to_json()),
            ("region_index", Json::Num(self.region_index as f64)),
            ("cell_size", Json::Num(self.cell_size)),
            ("engine", self.engine.to_json()),
        ]);
        if let (Json::Obj(map), Some(durability)) = (&mut obj, &self.durability) {
            map.insert("durability".to_string(), durability.to_json());
        }
        obj
    }

    /// Decodes the DTO.
    pub fn from_json(value: &Json) -> Result<Self, ServerError> {
        Ok(Self {
            protocol_version: id(value, "protocol_version")?,
            routing: RoutingTableDto::from_json(
                value
                    .get("routing")
                    .ok_or(ServerError::MissingField("routing"))?,
            )?,
            region_index: id(value, "region_index")?,
            cell_size: num(value, "cell_size")?,
            engine: EngineConfigDto::from_json(
                value
                    .get("engine")
                    .ok_or(ServerError::MissingField("engine"))?,
            )?,
            durability: match value.get("durability") {
                None | Some(Json::Null) => None,
                Some(v) => Some(DurabilityDto::from_json(v)?),
            },
        })
    }
}

/// What a daemon answers a `Hello` frame with — the first exchange of an
/// attach and of a promotion, so a router can refuse a daemon it cannot
/// mount before it sends anything that changes state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The daemon's protocol version.
    pub protocol_version: u32,
    /// The configured region index (`None` before any configure).
    pub region_index: Option<u32>,
    /// Whether the daemon is draining (refusing mutating commands).
    pub draining: bool,
    /// Whether the daemon is a replication standby (refusing mutating
    /// commands until promoted). Distinct from draining: a drain is
    /// terminal, a standby is one promote away from serving.
    pub standby: bool,
}

// ---------------------------------------------------------------------------
// Replication.

/// The replication counters a daemon reports — one shape for both roles,
/// with the fields the other role doesn't track left at zero.
///
/// * A **primary** fills `next_lsn`/`acked`/`retained`/`resets` from its
///   publication buffer; `lag` is `next_lsn - acked` (records shipped but
///   not yet acknowledged).
/// * A **standby** fills `applied` (records applied to its engine) and
///   `next_lsn` (the primary's stream head at the last fetch); `lag` is
///   `next_lsn - applied`, and `sealed` flips when a promotion seals the
///   incoming stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplStatusDto {
    /// `"primary"`, `"standby"` or `"none"`.
    pub role: String,
    /// The stream head (next lsn to be published / last head seen).
    pub next_lsn: u64,
    /// The primary's acknowledgement watermark.
    pub acked: u64,
    /// Records the primary currently retains.
    pub retained: u64,
    /// Retention-cap stream resets (each one forced a re-bootstrap).
    pub resets: u64,
    /// Records a standby has applied.
    pub applied: u64,
    /// Unacknowledged (primary) or unapplied (standby) records.
    pub lag: u64,
    /// Did a promotion seal this stream?
    pub sealed: bool,
}

impl ReplStatusDto {
    /// Encodes the DTO.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("role", Json::Str(self.role.clone())),
            ("next_lsn", Json::Num(self.next_lsn as f64)),
            ("acked", Json::Num(self.acked as f64)),
            ("retained", Json::Num(self.retained as f64)),
            ("resets", Json::Num(self.resets as f64)),
            ("applied", Json::Num(self.applied as f64)),
            ("lag", Json::Num(self.lag as f64)),
            ("sealed", Json::Bool(self.sealed)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use rdbsc_cluster::RegionPartitioner;

    #[test]
    fn routing_tables_survive_eta_hostile_cell_sizes() {
        // Regression: the table used to ship the derived float η and the
        // daemon re-derived the axis count as ceil(extent / η), which lands
        // one ulp above the integer for some resolutions (103 cells/axis is
        // one) — the daemon then rejected the router's own table. The
        // integer axis count on the wire is immune for every resolution.
        // A stride over the axis range plus the counts known to trip the
        // float re-derivation (49, 98, 103, 107 are among the 67 bad ones).
        for cells in (1..=1024usize).step_by(23).chain([49, 98, 103, 107, 1024]) {
            let geometry =
                GridGeometry::with_cells_per_axis(Rect::unit(), cells);
            let partition = RegionPartitioner::uniform().split(geometry, 2, &[]);
            let wire = RoutingTableDto::from_partition(&partition)
                .to_json()
                .to_string_compact();
            let rebuilt = RoutingTableDto::from_json(&crate::json::parse(&wire).unwrap())
                .unwrap()
                .into_partition()
                .unwrap_or_else(|e| panic!("{cells} cells/axis rejected: {e}"));
            assert_eq!(rebuilt, partition, "{cells} cells/axis");
        }
        // The concrete cell size from the bug report.
        let geometry = GridGeometry::new(Rect::unit(), 0.009751);
        let partition = RegionPartitioner::uniform().split(geometry, 2, &[]);
        let rebuilt = RoutingTableDto::from_partition(&partition)
            .into_partition()
            .expect("a split's own table must validate");
        assert_eq!(rebuilt, partition);
    }

    #[test]
    fn routing_tables_round_trip_and_validate() {
        let geometry = GridGeometry::new(Rect::unit(), 0.1);
        let partition = RegionPartitioner::uniform().split(geometry, 3, &[]);
        let dto = RoutingTableDto::from_partition(&partition);
        let wire = dto.to_json().to_string_compact();
        let decoded = RoutingTableDto::from_json(&parse(&wire).unwrap()).unwrap();
        assert_eq!(decoded, dto);
        let rebuilt = decoded.into_partition().unwrap();
        assert_eq!(rebuilt, partition, "daemon and router agree on geometry");

        // A reordered table must be rejected, not silently remapped.
        let mut reordered = dto.clone();
        reordered.regions.rotate_left(1);
        assert!(reordered.into_partition().is_err());
    }

    #[test]
    fn engine_config_round_trips_with_a_big_seed() {
        let config = EngineConfig {
            beta: 0.35,
            parallelism: 3,
            seed: u64::MAX - 12345, // would not survive as a JSON number
            auto_expire: false,
        };
        let dto = EngineConfigDto::from_config(&config);
        let wire = dto.to_json().to_string_compact();
        let decoded = EngineConfigDto::from_json(&parse(&wire).unwrap()).unwrap();
        assert_eq!(decoded, dto);
        let rebuilt = decoded.into_config().unwrap();
        assert_eq!(rebuilt.seed, config.seed);
        assert_eq!(rebuilt.beta, config.beta);
        assert!(!rebuilt.auto_expire);
    }

    #[test]
    fn hello_round_trips() {
        use crate::frame::{read_raw, ReplyFrame};
        for (region_index, draining, standby) in
            [(None, false, false), (Some(2), true, false), (Some(0), false, true)]
        {
            let reply = ReplyFrame::HelloOk {
                request_id: 1,
                hello: Hello {
                    protocol_version: rdbsc_platform::PROTOCOL_VERSION,
                    region_index,
                    draining,
                    standby,
                },
            };
            let mut wire = Vec::new();
            reply.write_to(&mut wire).unwrap();
            let raw = read_raw(&mut &wire[..], 1 << 10).unwrap().unwrap();
            assert_eq!(ReplyFrame::decode(&raw).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_protocol_bodies_are_rejected_not_panicking() {
        assert!(RoutingTableDto::from_json(&parse("{}").unwrap()).is_err());
        assert!(EngineConfigDto::from_json(
            &parse(r#"{"beta":0.5,"parallelism":0,"seed":42,"auto_expire":true}"#).unwrap()
        )
        .is_err(), "a numeric seed is rejected (must be a string)");
    }
}

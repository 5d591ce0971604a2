//! Property tests for the server's JSON codec and wire DTOs: every DTO
//! round-trips through encode → parse → decode for arbitrary field values
//! (including strings full of escapes), and the parser rejects malformed
//! input without panicking.

use proptest::prelude::*;
use rdbsc_server::dto::{
    AnswerDto, AssignmentDto, HeartbeatDto, IdDto, SnapshotDto, TaskDto, TickDto, WalStatsDto,
    WorkerDto,
};
use rdbsc_server::json::{parse, Json};

/// A string strategy biased towards JSON-hostile content: quotes,
/// backslashes, control characters, and astral-plane code points — the
/// vendored proptest has no string strategy, so build one from code points.
fn hostile_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..4u32, 0u32..0x11_0000), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .filter_map(|(kind, code)| match kind {
                // Plain ASCII.
                0 => char::from_u32(0x20 + code % 0x5F),
                // The characters the escaper special-cases.
                1 => Some(['"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}'][code as usize % 8]),
                // Control characters (escaped as \u00xx).
                2 => char::from_u32(code % 0x20),
                // Anything in the unicode range (surrogates skipped).
                _ => char::from_u32(code),
            })
            .collect()
    })
}

fn finite(raw: f64) -> f64 {
    if raw.is_finite() {
        raw
    } else {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn strings_round_trip(s in hostile_string()) {
        let encoded = Json::Str(s.clone()).to_string_compact();
        let decoded = parse(&encoded);
        prop_assert!(decoded.is_ok(), "{encoded:?} -> {decoded:?}");
        prop_assert_eq!(decoded.unwrap(), Json::Str(s));
    }

    #[test]
    fn numbers_round_trip(mantissa in -1.0e15f64..1.0e15, scale in -12i32..12) {
        let n = mantissa * 10f64.powi(scale);
        let encoded = Json::Num(n).to_string_compact();
        let decoded = parse(&encoded);
        prop_assert!(decoded.is_ok(), "{encoded:?} -> {decoded:?}");
        prop_assert_eq!(decoded.unwrap(), Json::Num(n));
    }

    #[test]
    fn nested_documents_round_trip(
        strings in proptest::collection::vec(hostile_string(), 0..6),
        numbers in proptest::collection::vec(-1.0e9f64..1.0e9, 0..6),
    ) {
        let doc = Json::obj([
            ("strings", Json::Arr(strings.iter().cloned().map(Json::Str).collect())),
            ("numbers", Json::Arr(numbers.iter().copied().map(Json::Num).collect())),
            ("nested", Json::obj([
                ("flag", Json::Bool(numbers.len() % 2 == 0)),
                ("nothing", Json::Null),
            ])),
        ]);
        let encoded = doc.to_string_compact();
        prop_assert_eq!(parse(&encoded).unwrap(), doc);
    }

    #[test]
    fn task_dto_round_trips(
        id in 0u32..=u32::MAX,
        x in -10.0f64..10.0,
        y in -10.0f64..10.0,
        start in 0.0f64..100.0,
        len in 0.0f64..50.0,
        beta_raw in 0.0f64..2.0,
    ) {
        let dto = TaskDto {
            id,
            x,
            y,
            start,
            end: start + len,
            beta: if beta_raw < 1.0 { Some(beta_raw) } else { None },
        };
        let encoded = dto.to_json().to_string_compact();
        let decoded = TaskDto::from_json(&parse(&encoded).unwrap());
        prop_assert!(decoded.is_ok(), "{encoded} -> {decoded:?}");
        prop_assert_eq!(decoded.unwrap(), dto);
    }

    #[test]
    fn worker_dto_round_trips(
        id in 0u32..=u32::MAX,
        x in -10.0f64..10.0,
        y in -10.0f64..10.0,
        speed in 0.0f64..5.0,
        confidence in 0.0f64..=1.0,
        available_from in 0.0f64..100.0,
        heading_raw in (0.0f64..7.0, 0.0f64..7.0, 0u32..2),
    ) {
        let dto = WorkerDto {
            id,
            x,
            y,
            speed,
            heading: (heading_raw.2 == 1).then_some((heading_raw.0, heading_raw.1)),
            confidence,
            available_from,
        };
        let encoded = dto.to_json().to_string_compact();
        let decoded = WorkerDto::from_json(&parse(&encoded).unwrap());
        prop_assert!(decoded.is_ok(), "{encoded} -> {decoded:?}");
        prop_assert_eq!(decoded.unwrap(), dto);
    }

    #[test]
    fn small_dtos_round_trip(
        a in 0u32..=u32::MAX,
        b in 0u32..=u32::MAX,
        v in proptest::collection::vec(-1.0e6f64..1.0e6, 4),
    ) {
        let heartbeat = HeartbeatDto { id: a, x: v[0], y: v[1] };
        let encoded = heartbeat.to_json().to_string_compact();
        prop_assert_eq!(HeartbeatDto::from_json(&parse(&encoded).unwrap()).unwrap(), heartbeat);

        let id_dto = IdDto { id: b };
        let encoded = id_dto.to_json().to_string_compact();
        prop_assert_eq!(IdDto::from_json(&parse(&encoded).unwrap()).unwrap(), id_dto);

        let answer = AnswerDto { worker: a, confidence: v[0], angle: v[1], arrival: v[2] };
        let encoded = answer.to_json().to_string_compact();
        prop_assert_eq!(AnswerDto::from_json(&parse(&encoded).unwrap()).unwrap(), answer);

        let assignment = AssignmentDto {
            task: a,
            worker: b,
            confidence: v[0],
            angle: v[1],
            arrival: v[2],
        };
        let encoded = assignment.to_json().to_string_compact();
        prop_assert_eq!(
            AssignmentDto::from_json(&parse(&encoded).unwrap()).unwrap(),
            assignment
        );
    }

    #[test]
    fn report_dtos_round_trip(v in proptest::collection::vec(0.0f64..1.0e9, 15)) {
        let durable = (v[0] as u64).is_multiple_of(2);
        let snapshot = SnapshotDto {
            now: v[0],
            ticks: v[1].trunc(),
            events_applied: v[2].trunc(),
            pending_events: v[3].trunc(),
            live_tasks: v[4].trunc(),
            live_workers: v[5].trunc(),
            committed_workers: v[6].trunc(),
            banked_answers: v[7].trunc(),
            total_assignments: v[8].trunc(),
            min_reliability: finite(v[9] / 1.0e9),
            total_std: v[10],
            covered_tasks: v[11].trunc(),
            index_relocations: v[12].trunc(),
            index_cells_repaired: v[13].trunc(),
            index_tcell_rebuilds: v[14].trunc(),
            // Alternate between a durable and a non-durable snapshot so both
            // the present-field and absent-field decodes are exercised.
            wal: durable.then(|| WalStatsDto {
                segments: v[0].trunc(),
                segments_retired: v[1].trunc(),
                bytes_appended: v[2].trunc(),
                records_appended: v[3].trunc(),
                fsyncs: v[4].trunc(),
                checkpoints: v[5].trunc(),
                last_checkpoint_tick: v[6].trunc(),
                recovered_records: v[7].trunc(),
                recovered_checkpoint: (v[8] as u64).is_multiple_of(2),
            }),
        };
        let encoded = snapshot.to_json().to_string_compact();
        prop_assert_eq!(
            SnapshotDto::from_json(&parse(&encoded).unwrap()).unwrap(),
            snapshot.clone()
        );

        let tick = TickDto {
            now: v[0],
            events_applied: v[1].trunc(),
            tasks_expired: v[2].trunc(),
            num_shards: v[3].trunc(),
            new_assignments: v[4].trunc(),
            solve_seconds: v[5] / 1.0e9,
        };
        let encoded = tick.to_json().to_string_compact();
        prop_assert_eq!(TickDto::from_json(&parse(&encoded).unwrap()).unwrap(), tick);
    }

    #[test]
    fn parser_never_panics_on_random_bytes(
        bytes in proptest::collection::vec(0u32..256, 0..64),
    ) {
        let raw: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let text = String::from_utf8_lossy(&raw);
        // Ok or Err are both fine; reaching this line means no panic.
        let _ = parse(&text);
        prop_assert!(true);
    }

    #[test]
    fn truncated_documents_are_rejected_not_panicked(
        s in hostile_string(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let full = Json::obj([
            ("payload", Json::Str(s)),
            ("n", Json::Num(12.5)),
        ])
        .to_string_compact();
        let cut = (full.len() as f64 * cut_fraction) as usize;
        let truncated: &str = match full.get(..cut) {
            Some(prefix) => prefix,
            None => return Ok(()), // cut landed inside a UTF-8 sequence
        };
        if truncated.len() < full.len() {
            prop_assert!(parse(truncated).is_err(), "accepted {truncated:?}");
        }
    }

    #[test]
    fn decoders_reject_wrong_types_without_panicking(
        key_idx in 0u32..6,
        value_kind in 0u32..4,
    ) {
        let key = ["id", "x", "y", "start", "end", "beta"][key_idx as usize];
        let bad_value = match value_kind {
            0 => Json::Str("not a number".into()),
            1 => Json::Bool(true),
            2 => Json::Arr(vec![]),
            _ => Json::obj([]),
        };
        let mut map = std::collections::BTreeMap::new();
        for k in ["id", "x", "y", "start", "end"] {
            map.insert(k.to_string(), Json::Num(1.0));
        }
        map.insert(key.to_string(), bad_value);
        // Decoding may succeed only if the poisoned field is the optional
        // one left absent-equivalent — otherwise it must error; either way,
        // no panic.
        let _ = TaskDto::from_json(&Json::Obj(map));
        prop_assert!(true);
    }
}

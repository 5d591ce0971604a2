//! Property tests for log-shipping replication (`rdbsc_platform::repl`).
//!
//! Three contracts, mirroring the fault families the daemon follower must
//! survive. The first two drive the follower itself — the
//! [`Replication`] state machine a `--follow` daemon runs — against a
//! primary's [`Replication`] over an in-memory transport:
//!
//! 1. **Primary death between records** — however far shipping got before
//!    the primary died, promoting the standby seals it at *exactly* the
//!    acknowledged prefix: its digest equals the primary's digest at that
//!    command boundary, and the promoted partition keeps executing
//!    identically to an oracle constructed from the same prefix.
//! 2. **Torn shipments** — a record cut anywhere mid-encoding never
//!    decodes (and never panics); the standby applies only whole records,
//!    sits at an exact prefix, and converges once its retry (a fresh
//!    bootstrap) delivers the rest.
//! 3. **Standby log faults** — the follower's own log-then-apply WAL is
//!    struck by [`FailpointWriter`] faults (torn writes, flipped bytes,
//!    failing appends, mid-bootstrap crash). Recovery from the damaged log
//!    always yields an exact prefix of the acknowledged stream — still
//!    promotable — or, when the bootstrap checkpoint itself was lost,
//!    re-bootstrapping from the primary converges.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdbsc::platform::engine::{AssignmentEngine, EngineConfig, EngineEvent};
use rdbsc::platform::repl::{FOLLOWER_LIVENESS, FOLLOW_BATCH};
use rdbsc::platform::wal::{
    decode_command, encode_command, encode_partition_state, FailpointWriter, FaultPlan,
    SegmentFactory, Wal, WalConfig, WalFile, WalRecord,
};
use rdbsc::platform::{
    EnginePartition, PartitionCommand, PartitionState, Poll, ReplEngine, ReplFailure, ReplReply,
    ReplRequest, Replication,
};
use rdbsc::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A fresh, unique scratch directory per proptest case (cases share threads,
/// so thread ids are not enough).
fn tempdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rdbsc-proptest-repl-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn task(id: u32, x: f64, y: f64, start: f64, end: f64) -> Task {
    Task::new(
        TaskId(id),
        Point::new(x, y),
        TimeWindow::new(start, end).unwrap(),
    )
}

fn worker(id: u32, x: f64, y: f64, speed: f64) -> Worker {
    Worker::new(
        WorkerId(id),
        Point::new(x, y),
        speed,
        AngleRange::full(),
        Confidence::new(0.9).unwrap(),
    )
    .unwrap()
}

fn random_event(rng: &mut StdRng, next_id: &mut u32, now: f64) -> EngineEvent {
    let id = *next_id;
    *next_id += 1;
    let x = rng.gen_range(0.05..0.95);
    let y = rng.gen_range(0.05..0.95);
    match rng.gen_range(0..4) {
        0 => EngineEvent::TaskArrived(task(id, x, y, now, now + rng.gen_range(1.0..8.0))),
        1 => EngineEvent::WorkerCheckIn(worker(id, x, y, rng.gen_range(0.1..0.8))),
        2 => EngineEvent::WorkerMoved(WorkerId(rng.gen_range(0..id.max(1))), Point::new(x, y)),
        _ => EngineEvent::WorkerLeft(WorkerId(rng.gen_range(0..id.max(1)))),
    }
}

/// A pre-generated command, applied identically to the primary and (as a
/// shipped record) to the standby. Each command publishes exactly one
/// stream record: submit batches are never empty, and every tick, answer
/// and release publishes unconditionally.
#[derive(Clone)]
enum Cmd {
    Submit(Vec<EngineEvent>),
    Tick(f64),
    Answer(WorkerId, Contribution),
    Release(WorkerId),
}

fn random_commands(seed: u64, steps: usize) -> Vec<Cmd> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut commands = Vec::new();
    let mut next_id = 0u32;
    let mut now = 0.0;
    for _ in 0..steps {
        let batch: Vec<EngineEvent> = (0..rng.gen_range(1..4))
            .map(|_| random_event(&mut rng, &mut next_id, now))
            .collect();
        commands.push(Cmd::Submit(batch));
        if rng.gen_bool(0.3) {
            let w = WorkerId(rng.gen_range(0..next_id.max(1)));
            if rng.gen_bool(0.5) {
                let contribution = Contribution::new(
                    Confidence::new(rng.gen_range(0.1..0.95)).unwrap(),
                    rng.gen_range(0.0..6.0),
                    now + rng.gen_range(0.0..2.0),
                );
                commands.push(Cmd::Answer(w, contribution));
            } else {
                commands.push(Cmd::Release(w));
            }
        }
        now += rng.gen_range(0.1..0.6);
        commands.push(Cmd::Tick(now));
    }
    commands
}

fn apply(part: &mut EnginePartition<FlatGridIndex>, cmd: &Cmd) {
    match cmd {
        Cmd::Submit(events) => part.submit(events.clone()),
        Cmd::Tick(now) => {
            part.tick(*now);
        }
        Cmd::Answer(worker, contribution) => {
            part.record_answer(*worker, *contribution);
        }
        Cmd::Release(worker) => part.release_worker(*worker),
    }
}

fn fresh_index() -> FlatGridIndex {
    FlatGridIndex::new(Rect::unit(), 0.1)
}

fn fresh_primary() -> EnginePartition<FlatGridIndex> {
    EnginePartition::new(AssignmentEngine::new(
        fresh_index(),
        EngineConfig::default(),
    ))
}

/// An engine slot for [`Replication`]: the partition (once there is one)
/// and the configure payload it was built from. A standby's install
/// restores a shipped state, as a non-durable daemon does.
struct Slot(Option<(EnginePartition<FlatGridIndex>, String)>);

impl ReplEngine for Slot {
    type Index = FlatGridIndex;

    fn configured(&mut self) -> Option<(&mut EnginePartition<FlatGridIndex>, &str)> {
        self.0
            .as_mut()
            .map(|(part, configure)| (part, configure.as_str()))
    }

    fn install(&mut self, configure: &str, state: PartitionState) -> Result<(), String> {
        let part = EnginePartition::from_state(state, EngineConfig::default(), fresh_index);
        self.0 = Some((part, configure.to_string()));
        Ok(())
    }
}

impl Slot {
    fn part(&mut self) -> &mut EnginePartition<FlatGridIndex> {
        &mut self.0.as_mut().expect("configured").0
    }
}

/// A primary and its standby, each a [`Replication`] beside its engine,
/// joined by an in-memory transport: the standby's follower asks, the
/// primary answers as a daemon would (a refusal is a `409`), and what
/// travels is what a frame carries — shipped commands as the bytes of
/// their log records.
struct Pair {
    primary: (Replication, Slot),
    standby: (Replication, Slot),
    now: Instant,
}

impl Pair {
    fn new(primary: EnginePartition<FlatGridIndex>) -> Self {
        let configure = "configure".to_string();
        Self {
            primary: (Replication::primary(), Slot(Some((primary, configure)))),
            standby: (Replication::standby(), Slot(None)),
            now: Instant::now(),
        }
    }

    /// The follower's next request, after any wait it asks for.
    fn request(&mut self) -> ReplRequest {
        loop {
            match self.standby.0.poll(self.now) {
                Poll::Send(request) => return request,
                Poll::WaitUntil(at) => self.now = at,
                Poll::Stop => panic!("the follower stopped"),
            }
        }
    }

    /// The primary's answer to `request`.
    fn answer(&mut self, request: ReplRequest) -> Result<ReplReply, ReplFailure> {
        let (repl, slot) = &mut self.primary;
        repl.serve(self.now, request, slot)
            .map_err(|detail| ReplFailure::Refused {
                status: 409,
                detail,
            })
    }

    /// Hands `reply` to the follower.
    fn deliver(&mut self, reply: Result<ReplReply, ReplFailure>) {
        let (repl, slot) = &mut self.standby;
        repl.on_reply(self.now, reply, slot);
    }

    /// One whole exchange: the follower's request, answered and delivered.
    fn exchange(&mut self) {
        let request = self.request();
        let reply = self.answer(request);
        self.deliver(reply);
    }

    /// The follower's applied cursor.
    fn applied(&mut self) -> u64 {
        let (repl, slot) = &mut self.standby;
        repl.status(slot.0.as_ref().map(|(part, _)| part)).applied
    }

    /// Promotes the standby; returns the sealed digest and cursor.
    fn promote(&mut self) -> (u64, u64) {
        let (repl, slot) = &mut self.standby;
        match repl.serve(self.now, ReplRequest::Promote, slot) {
            Ok(ReplReply::Promote { digest, applied }) => (digest, applied),
            other => panic!("a bootstrapped standby promotes: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1: ship a random prefix, kill the primary, promote. The
    /// sealed digest must equal the primary's digest at exactly the
    /// acknowledged command boundary, and the promoted standby must keep
    /// executing identically to an oracle replaying the same prefix.
    #[test]
    fn primary_death_leaves_standby_promotable_to_the_acknowledged_prefix(
        seed in 0u64..(1 << 48),
        steps in 4usize..12,
        warmup_frac in 0.0f64..0.5,
        crash_frac in 0.0f64..1.0,
        batch in 1usize..7,
        applied_frac in 0.0f64..1.0,
    ) {
        let commands = random_commands(seed, steps);
        let warmup = ((commands.len() as f64) * warmup_frac) as usize;
        let mut primary = fresh_primary();
        for cmd in &commands[..warmup] {
            apply(&mut primary, cmd);
        }
        // The snapshot a bootstrap ships is the primary's state right now.
        let boot_state = primary.dump_state();
        let mut pair = Pair::new(primary);
        pair.exchange();
        let start_lsn = pair.applied();

        // digests[i] = the primary's digest after i post-bootstrap commands
        // (one published record each).
        let primary = pair.primary.1.part();
        let mut digests = vec![primary.state_digest()];
        prop_assert_eq!(pair.standby.1.part().state_digest(), digests[0]);
        let crash_at = warmup + (((commands.len() - warmup) as f64) * crash_frac) as usize;
        for cmd in &commands[warmup..crash_at] {
            let primary = pair.primary.1.part();
            apply(primary, cmd);
            digests.push(primary.state_digest());
        }
        let available = crash_at - warmup;
        let status = pair.primary.1.part().repl_status().unwrap();
        prop_assert_eq!(status.next_lsn - start_lsn, available as u64);

        // The primary dies after shipping only part of the stream: the
        // transport carries at most `batch` records a fetch, and no fetch
        // past `target`.
        let target = ((available as f64) * applied_frac) as usize;
        let mut shipped: Vec<PartitionCommand> = Vec::new();
        while ((pair.applied() - start_lsn) as usize) < target {
            let applied = pair.applied();
            let ReplRequest::Fetch { from, ack, max } = pair.request() else {
                panic!("a bootstrapped follower fetches");
            };
            prop_assert_eq!((from, ack), (applied, applied));
            let want = batch.min(target - (applied - start_lsn) as usize);
            let reply = pair.answer(ReplRequest::Fetch { from, ack, max: max.min(want as u32) });
            let Ok(ReplReply::Fetch { records, .. }) = &reply else {
                panic!("records below the head must be fetchable: {reply:?}");
            };
            prop_assert!(!records.is_empty(), "records below the head must be fetchable");
            for (_, bytes) in records {
                shipped.push(decode_command(bytes).unwrap());
            }
            pair.deliver(reply);
            prop_assert_eq!(
                pair.applied(), start_lsn + shipped.len() as u64,
                "shipped lsns must be dense"
            );
        }
        pair.primary.1 = Slot(None);

        let (sealed, applied) = pair.promote();
        prop_assert_eq!(applied, start_lsn + target as u64);
        prop_assert_eq!(
            sealed, digests[target],
            "promotion must seal exactly the acknowledged prefix \
             (applied {} of {} records)", target, available
        );

        // The promoted standby is a fully functional primary: an oracle
        // built from the same snapshot + record prefix stays digest-equal
        // through fresh post-promotion traffic.
        let mut oracle =
            EnginePartition::from_state(boot_state, EngineConfig::default(), fresh_index);
        for command in shipped {
            oracle.apply(0, command);
        }
        let standby = pair.standby.1.part();
        for cmd in &commands[crash_at..] {
            apply(standby, cmd);
            apply(&mut oracle, cmd);
        }
        prop_assert_eq!(standby.state_digest(), oracle.state_digest());
    }

    /// Contract 2: a shipment torn anywhere mid-record never decodes and
    /// never panics; the standby applies only whole records, sits at an
    /// exact prefix, and converges when the retry delivers the rest.
    #[test]
    fn torn_shipments_apply_only_whole_records(
        seed in 0u64..(1 << 48),
        steps in 4usize..10,
        tear_frac in 0.0f64..1.0,
        cut_frac in 0.0f64..1.0,
    ) {
        let commands = random_commands(seed, steps);
        let mut pair = Pair::new(fresh_primary());
        pair.exchange();
        let start_lsn = pair.applied();
        let mut digests = vec![pair.primary.1.part().state_digest()];
        for cmd in &commands {
            let primary = pair.primary.1.part();
            apply(primary, cmd);
            digests.push(primary.state_digest());
        }
        let head = pair.primary.1.part().repl_status().unwrap().next_lsn;
        prop_assert_eq!((head - start_lsn) as usize, commands.len());

        // Delivery tears inside record `tear_at`: the records before it
        // arrive whole, then a strict prefix of its bytes.
        let tear_at = (((commands.len() - 1) as f64) * tear_frac) as usize;
        if tear_at > 0 {
            let ReplRequest::Fetch { from, ack, .. } = pair.request() else {
                panic!("a bootstrapped follower fetches");
            };
            let whole = pair.answer(ReplRequest::Fetch { from, ack, max: tear_at as u32 });
            pair.deliver(whole);
        }
        prop_assert_eq!(pair.applied(), start_lsn + tear_at as u64);
        let ReplRequest::Fetch { from, ack, .. } = pair.request() else {
            panic!("a bootstrapped follower fetches");
        };
        let Ok(ReplReply::Fetch { next_lsn, mut records }) =
            pair.answer(ReplRequest::Fetch { from, ack, max: 1 })
        else {
            panic!("the torn record is fetchable");
        };
        let torn = &mut records[0].1;
        let cut = (((torn.len()) as f64) * cut_frac) as usize;
        let cut = cut.min(torn.len() - 1);
        prop_assert!(
            decode_command(&torn[..cut]).is_err(),
            "a torn record must never decode ({}of {} bytes)", cut, torn.len()
        );
        torn.truncate(cut);
        pair.deliver(Ok(ReplReply::Fetch { next_lsn, records }));
        prop_assert_eq!(
            pair.standby.1.part().state_digest(), digests[tear_at],
            "the standby must sit at the exact whole-record prefix"
        );
        prop_assert_eq!(pair.applied(), start_lsn + tear_at as u64);

        // The follower refused the batch and retries with a fresh
        // bootstrap, let in once its own fetch no longer holds the
        // primary's single-follower window; it converges, and promotion
        // seals at the primary's final state.
        prop_assert_eq!(pair.request(), ReplRequest::Bootstrap);
        pair.now += FOLLOWER_LIVENESS;
        pair.exchange();
        prop_assert_eq!(pair.standby.1.part().state_digest(), *digests.last().unwrap());
        // A follower that kept up: its next pull acknowledges the head,
        // finds nothing to fetch, leaves nothing retained, and never reset.
        let request = pair.request();
        prop_assert_eq!(&request, &ReplRequest::Fetch { from: head, ack: head, max: FOLLOW_BATCH });
        let Ok(ReplReply::Fetch { records, .. }) = pair.answer(request) else {
            panic!("a fetch at the head is served");
        };
        prop_assert!(records.is_empty());
        let status = pair.primary.1.part().repl_status().unwrap();
        prop_assert_eq!(
            (status.next_lsn, status.acked, status.retained, status.resets),
            (head, head, 0, 0)
        );
        let final_digest = pair.primary.1.part().state_digest();
        prop_assert_eq!(pair.promote(), (final_digest, head));
    }

    /// Contract 3: the standby's own log-then-apply WAL is struck by a
    /// random write fault (torn writes, flipped bytes, failing appends —
    /// possibly during bootstrap itself). Recovering the damaged directory
    /// yields an exact prefix of the acknowledged stream, still promotable;
    /// a lost bootstrap checkpoint forces re-bootstrap, which converges.
    #[test]
    fn standby_log_faults_recover_an_exact_acknowledged_prefix(
        seed in 0u64..(1 << 48),
        steps in 4usize..10,
        fault_kind in 0u8..4,
        fault_at in 0u64..4096,
        segment_bytes in 256u64..4096,
    ) {
        let commands = random_commands(seed, steps);
        let mut primary = fresh_primary();
        let (boot_state, start_lsn) = primary.enable_replication();
        let mut digests = vec![primary.state_digest()];
        for cmd in &commands {
            apply(&mut primary, cmd);
            digests.push(primary.state_digest());
        }
        let head = primary.repl_status().unwrap().next_lsn;

        // The follower's durable log behind a failpoint writer.
        let dir = tempdir("standby");
        let plan = FaultPlan::new();
        let factory: SegmentFactory = {
            let plan = plan.clone();
            Box::new(move |path| {
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(path)?;
                Ok(Box::new(FailpointWriter::new(file, plan.clone())) as Box<dyn WalFile>)
            })
        };
        let config = WalConfig {
            segment_bytes,
            checkpoint_every_ticks: 0,
            fsync_on_tick: true,
        };
        let (mut swal, _) = Wal::open_with_factory(&dir, config, factory, |_| {}).unwrap();
        match fault_kind {
            0 => {}
            1 => plan.persist_at_most(fault_at),
            2 => plan.flip_byte(fault_at),
            _ => plan.error_after_writes(fault_at % 24),
        }

        // Bootstrap: checkpoint the shipped snapshot first so the log is
        // self-contained, then log each fetched record before applying —
        // stopping at the first failed append (the daemon crashes there).
        let mut logged = 0usize;
        if swal.append_checkpoint(&boot_state, 0).is_ok() {
            let fetched = primary
                .repl_fetch(start_lsn, start_lsn, (head - start_lsn) as usize)
                .unwrap();
            for (_, command) in fetched {
                let command = decode_command(&encode_command(&command)).unwrap();
                if swal.append_command(&command).is_err() {
                    break;
                }
                logged += 1;
            }
        }
        let _ = swal.sync();
        drop(swal); // the standby daemon dies with whatever its log holds

        // Recovery with the real filesystem writer repairs the damage.
        // The records arrive through the scan's visitor; its counts say
        // where the latest checkpoint sits.
        let mut records = Vec::new();
        let (_, scan) = Wal::open(&dir, config, |r| records.push(r)).unwrap();
        let tail_at = records.len() - scan.recovered_records as usize;
        let tail = &records[tail_at..];
        let checkpoint = match &records[..tail_at] {
            [.., WalRecord::Checkpoint(state)] if scan.recovered_checkpoint => Some(state),
            _ => None,
        };
        prop_assert_eq!(checkpoint.is_some(), scan.recovered_checkpoint);
        match checkpoint {
            None => {
                // Mid-bootstrap crash: the snapshot never made it. The
                // follower wipes and re-bootstraps from the (still live)
                // primary — and converges.
                let (state2, _) = primary.enable_replication();
                let standby2 =
                    EnginePartition::from_state(state2, EngineConfig::default(), fresh_index);
                prop_assert_eq!(standby2.state_digest(), primary.state_digest());
            }
            Some(state) => {
                prop_assert_eq!(
                    encode_partition_state(state),
                    encode_partition_state(&boot_state),
                    "the recovered bootstrap snapshot must be byte-identical"
                );
                prop_assert!(
                    tail.len() <= logged,
                    "recovery produced {} records but only {logged} were logged",
                    tail.len()
                );
                let mut restored = EnginePartition::from_state(
                    state.clone(),
                    EngineConfig::default(),
                    fresh_index,
                );
                for record in tail {
                    let WalRecord::Command(command) = record else {
                        panic!("a standby's tail after its bootstrap checkpoint holds commands only: {record:?}");
                    };
                    restored.apply(0, command.clone());
                }
                let prefix = tail.len();
                prop_assert_eq!(
                    restored.state_digest(), digests[prefix],
                    "recovered standby must hold an exact acknowledged prefix \
                     ({prefix} of {} records)", head - start_lsn
                );
                // ... and is promotable right there.
                prop_assert_eq!(
                    restored.seal_replication(start_lsn + prefix as u64),
                    digests[prefix]
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

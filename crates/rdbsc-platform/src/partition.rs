//! Region-partitioned multi-engine serving behind the partition protocol.
//!
//! One [`AssignmentEngine`] owns the whole data space behind one lock — fine
//! for a single metro area, a ceiling for "heavy traffic from millions of
//! users". [`PartitionedEngine`] removes that ceiling by running **one
//! engine per spatial region** and routing [`EngineEvent`]s by location.
//! Since PR 5 the router is transport-agnostic: it holds one
//! [`PartitionClient`] per region and speaks the versioned partition
//! protocol ([`crate::protocol`]), so a region's engine can be a thread in
//! this process ([`InProcessClient`]) or a daemon on another host
//! (`rdbsc-server::BinaryPartitionClient` → `rdbsc-partitiond`):
//!
//! ```text
//!                         ┌► PartitionClient 0 ─ thread: engine over region 0
//!   events ──► router ────┼► PartitionClient 1 ─ thread: engine over region 1
//!   (by location)         └► PartitionClient 2 ─ frames ► rdbsc-partitiond
//!                              ▲ ticks begin on every client before any
//!                              └ reply is collected → partitions solve
//!                                concurrently, reports merge in order
//! ```
//!
//! Regions come from [`rdbsc_cluster::RegionPartition::uniform`]:
//! rectangular, aligned to the grid cells of the index geometry, with
//! static near-even boundaries.
//!
//! ## Cross-partition worker handoff
//!
//! Workers move; regions do not. When a [`EngineEvent::WorkerMoved`] (or a
//! re-[`EngineEvent::WorkerCheckIn`]) lands on the other side of a region
//! boundary, the router **hands the worker off** using the engines' existing
//! machinery: a [`EngineEvent::WorkerLeft`] detaches it from its old engine
//! and a [`EngineEvent::WorkerCheckIn`] (with the router's last-known worker
//! record at the new position) registers it with the new one. Two rules keep
//! the handoff loss-free:
//!
//! * **Committed workers stay put.** A worker en route to a task is serving
//!   that task's partition; tearing it out would drop the commitment. The
//!   handoff is *deferred*: the move is forwarded to the old engine (whose
//!   index clamps out-of-region positions onto its border cells) and the
//!   worker is handed off only once it delivers its answer, gives up, or is
//!   released by a task expiration — with its banked contribution staying in
//!   the partition of the task it answered.
//! * **Exactly-one residency.** Handoff enqueues the `WorkerLeft` and the
//!   `WorkerCheckIn` in the same inter-tick window, and every engine drains
//!   its queue at the next lockstep tick — so a worker is live in exactly
//!   one engine whenever any engine solves.
//!
//! ## Determinism contract
//!
//! * With **one partition** the router degenerates to a pass-through and the
//!   output (tick reports, assignments, snapshots) is **byte-identical** to
//!   a plain [`AssignmentEngine`] fed the same event stream — whether the
//!   partition is a thread or a daemon across the wire.
//! * With **N partitions** the routed per-engine event streams depend only
//!   on the submission order, each engine is deterministic per its own
//!   config seed, ticks are lockstep, and merged listings are ordered by
//!   `(partition, task, worker)` — so the output is independent of thread
//!   scheduling *and* of which transport hosts each partition
//!   (`rdbsc-server`'s `proptest_remote` test proves a mixed local/remote
//!   topology byte-identical to the all-in-process one).
//!
//! ## Failure model
//!
//! A partition command failure (a daemon killed mid-tick, a dropped
//! connection) does **not** unwind the router. The failing slot is marked
//! unhealthy with a structured [`PartitionHealth`] record — partition id,
//! transport endpoint, and the [`PartitionError`] that killed it — and the
//! router degrades: commands skip unhealthy slots, events routed to a lost
//! region are counted in [`PartitionedEngine::events_dropped`] instead of
//! being shipped, and [`PartitionedEngine::unhealthy_partitions`] surfaces
//! the loss (the server exposes it as the `partitions_unhealthy` gauge on
//! `/metrics`). Serving continues on the surviving regions; answers for the
//! lost region are unavailable, not silently wrong — its tasks and workers
//! simply drop out of merged snapshots and listings. Restoring the lost
//! region (restart its daemon with `--data-dir` and let the WAL recover it,
//! see [`crate::wal`]) requires a new router today.
//!
//! A slot can instead be armed with a [`StandbyPromoter`] — a hot standby
//! that has been replaying the primary's shipped log (see [`crate::repl`]).
//! Then the first transport failure triggers **inline promotion**: the
//! promoter health-checks its standby, waits for replay to finish, seals
//! the stream and returns a fresh [`PartitionClient`] which replaces the
//! dead one in place. The slot never goes unhealthy; the round that
//! observed the failure skips the promoted slot (the successor never saw
//! that round's `begin_tick` — a per-slot generation counter guards every
//! deferred completion) and the next round serves from the standby, whose
//! state is digest-identical to the primary's acknowledged prefix. Each
//! promotion is recorded in [`PartitionedEngine::promotions`]. Promotion is
//! one-shot per slot: a second failure degrades to the unhealthy path
//! above (automated re-seeding of a fresh standby is future work, see
//! ROADMAP).
//!
//! Known approximation: a task re-posted at a location in a *different*
//! partition is treated as withdraw-then-arrive (the old partition retires
//! it, commitments there are released); within one partition the engine's
//! own re-post semantics apply (see [`AssignmentEngine::tick`]).

use crate::engine::{AssignmentEngine, EngineEvent, EngineObjective, TickReport};
use crate::handle::EngineSnapshot;
use crate::protocol::{InProcessClient, PartitionClient, PartitionError, ProtocolStats};
use rdbsc_cluster::RegionPartition;
use rdbsc_geo::Rect;
use rdbsc_index::{MaintenanceCounters, SpatialIndex};
use rdbsc_model::valid_pairs::ValidPair;
use rdbsc_model::{Contribution, TaskId, Worker, WorkerId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The router's view of one known worker.
#[derive(Debug, Clone, Copy)]
struct WorkerEntry {
    /// The partition whose engine currently owns the worker.
    home: usize,
    /// Last-known full record (what a handoff re-registers on the far side).
    record: Worker,
    /// A `WorkerLeft` has been routed but not yet applied by a tick. The
    /// engine keeps the worker (and any commitment) until then, so commands
    /// arriving in the submit-to-tick window must still route to `home` —
    /// exactly like a plain engine whose queue holds the same pending leave.
    departed: bool,
}

/// One lost partition: which region, where it lived, and what killed it —
/// what [`PartitionedEngine::unhealthy_partitions`] reports and the server
/// renders under `partitions_unhealthy` on `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionHealth {
    /// The region index of the lost partition.
    pub partition: usize,
    /// The backend kind (`"in-process"` / `"binary"`).
    pub kind: &'static str,
    /// The thread label or network address that stopped answering.
    pub endpoint: String,
    /// The first [`PartitionError`] observed on the slot, rendered.
    pub error: String,
}

/// How the router promotes a partition's configured standby when its
/// primary dies: the implementation health-checks the standby daemon, tells
/// it to seal its replication stream and start accepting commands, and
/// hands back a fresh [`PartitionClient`] attached to it
/// (`rdbsc-server::RemoteStandbyPromoter` is the wire implementation).
pub trait StandbyPromoter: Send {
    /// The standby's endpoint, for logs and the promotion record.
    fn endpoint(&self) -> String;

    /// Performs the promotion and returns a client attached to the
    /// successor. An error leaves the slot on the ordinary unhealthy path.
    fn promote(&mut self) -> Result<Box<dyn PartitionClient>, String>;

    /// Stops the standby daemon when the topology shuts down without the
    /// promoter ever firing (best effort; default no-op).
    fn shutdown(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// One completed failover: which slot, which endpoints, and the transport
/// failure that triggered it — surfaced on `/metrics` next to
/// [`PartitionHealth`].
#[derive(Debug, Clone, PartialEq)]
pub struct PromotionRecord {
    /// The region index that failed over.
    pub partition: usize,
    /// The lost primary's endpoint.
    pub old_endpoint: String,
    /// The promoted standby's endpoint now serving the region.
    pub new_endpoint: String,
    /// The rendered [`PartitionError`] that triggered the failover.
    pub error: String,
}

/// One partition's transport identity plus its protocol counters — what the
/// router surfaces per region on `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionTransport {
    /// The region index.
    pub partition: usize,
    /// The backend kind (`"in-process"` / `"binary"`).
    pub kind: &'static str,
    /// The thread label or network address.
    pub endpoint: String,
    /// The client's protocol counters at snapshot time.
    pub stats: ProtocolStats,
}

/// N region-local engines behind one location-routing façade, each reached
/// through a [`PartitionClient`] (see the [module docs](self) for the
/// architecture, the handoff protocol and the determinism contract).
///
/// The API mirrors the plain engine's — `submit`, `tick`, `record_answer`,
/// `committed_assignments` — and with one region it *is* the plain engine,
/// byte for byte, which is why [`crate::handle::EngineHandle`] drives
/// nothing else.
pub struct PartitionedEngine {
    partition: RegionPartition,
    clients: Vec<Box<dyn PartitionClient>>,
    /// Pending routed events, one buffer per partition, flushed as one
    /// submit command per partition at the end of every submit call —
    /// per-partition order is what determinism needs, and batching spares a
    /// protocol round trip per event on the ingestion hot path.
    outbox: Vec<Vec<EngineEvent>>,
    /// Each known worker's routing state.
    worker_home: HashMap<WorkerId, WorkerEntry>,
    /// Each known live task's partition (entries for auto-expired tasks
    /// linger until an explicit expire names them; the growth is bounded by
    /// the total tasks ever posted, like the engines' own retired maps).
    task_home: HashMap<TaskId, usize>,
    /// Workers currently en route somewhere, rebuilt exactly from the
    /// engines' own committed sets at every tick.
    committed: HashSet<WorkerId>,
    /// Boundary-crossing workers whose handoff waits for their commitment
    /// to clear. Ordered so the post-tick resolution is deterministic.
    pending_handoff: BTreeSet<WorkerId>,
    handoffs: u64,
    /// Per-slot health: `None` while the slot answers, the first observed
    /// failure once it stops (see the module docs' failure model).
    health: Vec<Option<PartitionHealth>>,
    /// Per-slot standby promoter, armed by [`Self::set_standby_promoter`]
    /// and consumed (one-shot) by the first transport failure on the slot.
    promoters: Vec<Option<Box<dyn StandbyPromoter>>>,
    /// Completed failovers, in order.
    promotions: Vec<PromotionRecord>,
    /// Per-slot client generation, bumped when a promotion swaps the
    /// client. Round-scoped completions (`finish_tick`, deferred submits)
    /// compare generations so a reply begun on the dead primary is never
    /// collected from its successor.
    client_gen: Vec<u64>,
    /// Events routed to a partition after it was marked unhealthy — dropped
    /// instead of shipped, and surfaced so operators can size the loss.
    events_dropped: u64,
    /// Per slot, the submit sent and not yet confirmed:
    /// `(batch_len, client_gen)`. Every client answers in send order, so
    /// the router leaves a submit unconfirmed, sends the same slot's next
    /// request behind it, and receives the submit's reply just before that
    /// request's — a submit-then-tick round costs one round trip, not two.
    /// At most one per slot (the depth cap): the next submit to a slot
    /// collects the previous reply first.
    pending_submits: Vec<Option<(u64, u64)>>,
    /// The most recent tick time (what the graceful-shutdown drain tick
    /// runs at).
    last_now: f64,
    /// The trace id of the most recent tick (`0` before the first one) —
    /// what `/debug/spans` looks up to show the last round's span tree.
    last_trace: u64,
    /// Set once [`Self::shutdown`] has run; commands after it are bugs.
    shut: bool,
}

impl PartitionedEngine {
    /// Wraps one protocol client per region. Panics unless
    /// `clients.len() == partition.num_regions()`.
    pub fn new(partition: RegionPartition, clients: Vec<Box<dyn PartitionClient>>) -> Self {
        assert_eq!(
            clients.len(),
            partition.num_regions(),
            "one partition client per region required"
        );
        let outbox = (0..clients.len()).map(|_| Vec::new()).collect();
        let health = (0..clients.len()).map(|_| None).collect();
        let promoters = (0..clients.len()).map(|_| None).collect();
        let client_gen = vec![0; clients.len()];
        let pending_submits = vec![None; clients.len()];
        Self {
            partition,
            clients,
            outbox,
            worker_home: HashMap::new(),
            task_home: HashMap::new(),
            committed: HashSet::new(),
            pending_handoff: BTreeSet::new(),
            handoffs: 0,
            health,
            promoters,
            promotions: Vec::new(),
            client_gen,
            events_dropped: 0,
            pending_submits,
            last_now: 0.0,
            last_trace: 0,
            shut: false,
        }
    }

    /// Builds one in-process engine per region with `make_index` supplying
    /// each region's spatial index (over the region rectangle) and a shared
    /// engine configuration — every partition runs the same config,
    /// including the seed, which is what makes the single-partition case
    /// byte-identical to a plain engine.
    pub fn build<I, F>(
        partition: RegionPartition,
        config: crate::engine::EngineConfig,
        mut make_index: F,
    ) -> Self
    where
        I: SpatialIndex + 'static,
        F: FnMut(Rect) -> I,
    {
        let clients = (0..partition.num_regions())
            .map(|i| {
                let engine =
                    AssignmentEngine::new(make_index(partition.region_rect(i)), config.clone());
                Box::new(InProcessClient::spawn(i, engine)) as Box<dyn PartitionClient>
            })
            .collect();
        Self::new(partition, clients)
    }

    /// Number of partitions (= protocol clients).
    pub fn num_partitions(&self) -> usize {
        self.clients.len()
    }

    /// The region rectangles, in partition order.
    pub fn regions(&self) -> Vec<Rect> {
        (0..self.partition.num_regions())
            .map(|i| self.partition.region_rect(i))
            .collect()
    }

    /// The region partition the router uses.
    pub fn region_partition(&self) -> &RegionPartition {
        &self.partition
    }

    /// Cross-partition worker handoffs performed so far.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// The trace id the most recent [`Self::tick`] ran under (`0` before
    /// the first tick). Every partition's spans for that round carry this
    /// id — [`rdbsc_obs::collect_spans`] reassembles the cross-partition
    /// span tree from it.
    pub fn last_trace(&self) -> u64 {
        self.last_trace
    }

    /// Each partition's transport identity and protocol counters, in
    /// partition order.
    pub fn transport_stats(&self) -> Vec<PartitionTransport> {
        self.clients
            .iter()
            .enumerate()
            .map(|(i, client)| PartitionTransport {
                partition: i,
                kind: client.kind(),
                endpoint: client.endpoint(),
                stats: client.counters().stats(),
            })
            .collect()
    }

    /// A partition command failed. With a standby armed on the slot, the
    /// failover path runs right here: the promoter (one-shot) promotes the
    /// standby and the successor client takes the slot — the slot never
    /// goes unhealthy, and the generation bump keeps this round's
    /// outstanding completions away from the successor (it joins at the
    /// next command). Otherwise — no standby, or the promotion itself
    /// failed — record the loss (first error wins) and degrade: later
    /// commands skip the slot (see the module docs' failure model).
    /// Idempotent per slot.
    fn mark_unhealthy(&mut self, slot: usize, error: PartitionError) {
        if self.health[slot].is_some() {
            return;
        }
        if let Some(mut promoter) = self.promoters[slot].take() {
            let old_endpoint = self.clients[slot].endpoint();
            let standby = promoter.endpoint();
            eprintln!(
                "partition {slot} ({old_endpoint}) lost: {error} — promoting standby {standby}"
            );
            match promoter.promote() {
                Ok(client) => {
                    let new_endpoint = client.endpoint();
                    self.clients[slot] = client;
                    self.client_gen[slot] += 1;
                    eprintln!(
                        "partition {slot} failover complete: {new_endpoint} serves the region"
                    );
                    self.promotions.push(PromotionRecord {
                        partition: slot,
                        old_endpoint,
                        new_endpoint,
                        error: error.to_string(),
                    });
                    return;
                }
                Err(e) => {
                    eprintln!("partition {slot} standby {standby} promotion failed: {e}");
                }
            }
        }
        let record = PartitionHealth {
            partition: slot,
            kind: self.clients[slot].kind(),
            endpoint: self.clients[slot].endpoint(),
            error: error.to_string(),
        };
        eprintln!(
            "partition {slot} ({}) lost: {} — continuing on surviving regions",
            record.endpoint, record.error
        );
        self.health[slot] = Some(record);
    }

    /// Arms `slot` with a standby promoter: the first transport failure on
    /// the slot promotes the standby instead of marking the region lost.
    /// One-shot — a second failure (or a failed promotion) falls back to
    /// the ordinary unhealthy path until re-armed.
    pub fn set_standby_promoter(&mut self, slot: usize, promoter: Box<dyn StandbyPromoter>) {
        assert!(slot < self.clients.len(), "no such partition slot");
        self.promoters[slot] = Some(promoter);
    }

    /// Completed failovers, in the order they happened.
    pub fn promotions(&self) -> &[PromotionRecord] {
        &self.promotions
    }

    /// Slots with a standby currently armed.
    pub fn standbys_armed(&self) -> usize {
        self.promoters.iter().flatten().count()
    }

    fn healthy(&self, slot: usize) -> bool {
        self.health[slot].is_none()
    }

    /// The partitions currently marked lost, in partition order (empty when
    /// the topology is fully healthy).
    pub fn unhealthy_partitions(&self) -> Vec<PartitionHealth> {
        self.health.iter().flatten().cloned().collect()
    }

    /// Events routed to a lost partition and dropped instead of shipped.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Buffers a routed event for `slot`; [`Self::flush_outbox`] ships it.
    fn send(&mut self, slot: usize, event: EngineEvent) {
        self.outbox[slot].push(event);
    }

    /// Ships every buffered event, one submit per partition, under the most
    /// recent round's trace. No reply is awaited here: the slot's next
    /// request — usually the round's tick — is sent behind the submit, and
    /// the submit's reply is received just before that request's.
    fn flush_outbox(&mut self) {
        for slot in 0..self.outbox.len() {
            if self.outbox[slot].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.outbox[slot]);
            let batch_len = batch.len() as u64;
            // Depth cap: collect the slot's previous submit before sending
            // the next one.
            self.finish_pending_submit(slot);
            if !self.healthy(slot) {
                self.events_dropped += batch_len;
                continue;
            }
            match self.clients[slot].begin_submit(self.last_trace, batch) {
                Ok(()) => self.pending_submits[slot] = Some((batch_len, self.client_gen[slot])),
                Err(e) => {
                    self.mark_unhealthy(slot, e);
                    self.events_dropped += batch_len;
                }
            }
        }
    }

    /// Collects `slot`'s outstanding submit reply, if there is one. A batch
    /// the router cannot see confirmed is unapplied as far as it can know,
    /// and counted lost: the slot was lost since the send, a promotion
    /// replaced the client (the batch died with the primary), or the reply
    /// is an error.
    fn finish_pending_submit(&mut self, slot: usize) {
        let Some((batch_len, gen)) = self.pending_submits[slot].take() else {
            return;
        };
        if !self.healthy(slot) || self.client_gen[slot] != gen {
            self.events_dropped += batch_len;
        } else if let Err(e) = self.clients[slot].finish_submit() {
            self.mark_unhealthy(slot, e);
            self.events_dropped += batch_len;
        }
    }

    /// One immediate exchange with `slot`: collects the slot's outstanding
    /// submit first (its reply comes back ahead of this one), then runs
    /// `exchange` on the client. `None` when the slot is lost, or is lost by
    /// this exchange.
    fn call<T>(
        &mut self,
        slot: usize,
        exchange: impl FnOnce(&mut dyn PartitionClient) -> Result<T, PartitionError>,
    ) -> Option<T> {
        self.finish_pending_submit(slot);
        if !self.healthy(slot) {
            return None;
        }
        match exchange(self.clients[slot].as_mut()) {
            Ok(value) => Some(value),
            Err(e) => {
                self.mark_unhealthy(slot, e);
                None
            }
        }
    }

    /// Detaches `id` from `from` and re-registers `record` with the
    /// partition owning its current location, via the engines' ordinary
    /// leave/check-in machinery.
    fn handoff(&mut self, id: WorkerId, from: usize, record: Worker) {
        let target = self.partition.partition_of(record.location);
        debug_assert_ne!(target, from);
        self.worker_home.insert(
            id,
            WorkerEntry {
                home: target,
                record,
                departed: false,
            },
        );
        self.handoffs += 1;
        self.send(from, EngineEvent::WorkerLeft(id));
        self.send(target, EngineEvent::WorkerCheckIn(record));
    }

    /// Routes one event into the outbox (shipped by [`Self::flush_outbox`]).
    fn route(&mut self, event: EngineEvent) {
        match event {
            EngineEvent::TaskArrived(task) => {
                let target = self.partition.partition_of(task.location);
                if let Some(old) = self.task_home.insert(task.id, target) {
                    if old != target {
                        // Cross-partition re-post: withdraw from the old
                        // region before arriving fresh in the new one.
                        self.send(old, EngineEvent::TaskExpired(task.id));
                    }
                }
                self.send(target, EngineEvent::TaskArrived(task));
            }
            EngineEvent::TaskExpired(id) => {
                // Unknown ids go to partition 0, where the expire is the
                // same no-op a plain engine would apply (and the event
                // accounting stays identical in the 1-partition case).
                let target = self.task_home.remove(&id).unwrap_or(0);
                self.send(target, EngineEvent::TaskExpired(id));
            }
            EngineEvent::WorkerCheckIn(worker) => {
                let target = self.partition.partition_of(worker.location);
                match self.worker_home.get(&worker.id).copied() {
                    // A departed entry is routing history, not residency:
                    // the queued leave clears any commitment before this
                    // check-in applies, so register fresh at the target.
                    Some(entry) if entry.departed => {
                        self.worker_home.insert(
                            worker.id,
                            WorkerEntry {
                                home: target,
                                record: worker,
                                departed: false,
                            },
                        );
                        self.send(target, EngineEvent::WorkerCheckIn(worker));
                    }
                    Some(entry) if entry.home == target => {
                        self.pending_handoff.remove(&worker.id);
                        self.worker_home.insert(
                            worker.id,
                            WorkerEntry {
                                record: worker,
                                ..entry
                            },
                        );
                        self.send(entry.home, EngineEvent::WorkerCheckIn(worker));
                    }
                    Some(entry) if self.committed.contains(&worker.id) => {
                        // Re-registration while en route: the engine keeps
                        // the commitment, so the worker stays with it and
                        // the handoff waits.
                        self.pending_handoff.insert(worker.id);
                        self.worker_home.insert(
                            worker.id,
                            WorkerEntry {
                                record: worker,
                                ..entry
                            },
                        );
                        self.send(entry.home, EngineEvent::WorkerCheckIn(worker));
                    }
                    Some(entry) => {
                        self.pending_handoff.remove(&worker.id);
                        self.handoff(worker.id, entry.home, worker);
                    }
                    None => {
                        self.worker_home.insert(
                            worker.id,
                            WorkerEntry {
                                home: target,
                                record: worker,
                                departed: false,
                            },
                        );
                        self.send(target, EngineEvent::WorkerCheckIn(worker));
                    }
                }
            }
            EngineEvent::WorkerMoved(id, to) => {
                let target = self.partition.partition_of(to);
                match self.worker_home.get(&id).copied() {
                    // Departed: the engine applies the queued leave first,
                    // making this move its usual absent-worker no-op.
                    Some(entry) if entry.departed => {
                        self.send(entry.home, EngineEvent::WorkerMoved(id, to));
                    }
                    Some(mut entry) => {
                        entry.record.location = to;
                        if entry.home == target {
                            self.pending_handoff.remove(&id);
                            self.worker_home.insert(id, entry);
                            self.send(entry.home, EngineEvent::WorkerMoved(id, to));
                        } else if self.committed.contains(&id) {
                            // En route: stays with its task's partition (the
                            // index clamps the position onto border cells);
                            // hand off once the commitment clears.
                            self.pending_handoff.insert(id);
                            self.worker_home.insert(id, entry);
                            self.send(entry.home, EngineEvent::WorkerMoved(id, to));
                        } else {
                            self.pending_handoff.remove(&id);
                            self.handoff(id, entry.home, entry.record);
                        }
                    }
                    // Unknown worker: forward to the target partition where
                    // the move is the plain engine's no-op.
                    None => self.send(target, EngineEvent::WorkerMoved(id, to)),
                }
            }
            EngineEvent::WorkerLeft(id) => {
                // Route the leave to the worker's home but keep the entry
                // (tombstoned) until the next tick applies it: a plain
                // engine only removes the worker at the tick, so commands
                // in the submit-to-tick window (an answer delivery, say)
                // must still reach the engine that holds the commitment.
                self.pending_handoff.remove(&id);
                let target = match self.worker_home.get_mut(&id) {
                    Some(entry) => {
                        entry.departed = true;
                        entry.home
                    }
                    None => 0, // no-op there; keeps 1-partition accounting identical
                };
                self.send(target, EngineEvent::WorkerLeft(id));
            }
        }
    }

    /// Queues one event, routed by location, for the next tick.
    pub fn submit(&mut self, event: EngineEvent) {
        self.route(event);
        self.flush_outbox();
    }

    /// Queues many events (in order) for the next tick, shipping one
    /// batched submit per partition.
    pub fn submit_all<E: IntoIterator<Item = EngineEvent>>(&mut self, events: E) {
        for event in events {
            self.route(event);
        }
        self.flush_outbox();
    }

    /// Runs one lockstep engine round at time `now` on **every** partition
    /// concurrently (tick commands are dispatched to all clients before any
    /// reply is collected), merges the per-partition reports in partition
    /// order, refreshes the router's committed-worker view and resolves any
    /// deferred handoffs whose commitment has cleared.
    pub fn tick(&mut self, now: f64) -> TickReport {
        // Every round gets a fresh trace id; the clients propagate it to
        // their partitions (thread or daemon), whose spans all carry it —
        // one id correlates the whole fan-out. Observational only.
        let trace = rdbsc_obs::next_trace_id();
        self.last_trace = trace;
        let root = rdbsc_obs::span(trace, 0, "router.tick");
        let fanout = rdbsc_obs::span(trace, root.id(), "router.fanout");
        let mut ticking = Vec::with_capacity(self.clients.len());
        for slot in 0..self.clients.len() {
            if !self.healthy(slot) {
                continue;
            }
            match self.clients[slot].begin_tick(trace, now) {
                Ok(()) => ticking.push((slot, self.client_gen[slot])),
                Err(e) => self.mark_unhealthy(slot, e),
            }
        }
        // Submit replies are collected only now, after the tick fan-out:
        // each slot's submit reply precedes its tick reply (send order),
        // and deferring the read this far means the submit round trips
        // overlapped with every partition's solve.
        for slot in 0..self.clients.len() {
            self.finish_pending_submit(slot);
        }
        let mut results = Vec::with_capacity(ticking.len());
        for (slot, gen) in ticking {
            if !self.healthy(slot) {
                continue;
            }
            // A generation bump means a promotion swapped the client while
            // this round was in flight: the successor never received this
            // round's begin_tick, so there is no reply to collect.
            if self.client_gen[slot] != gen {
                continue;
            }
            match self.clients[slot].finish_tick() {
                Ok(reply) => results.push(reply),
                Err(e) => self.mark_unhealthy(slot, e),
            }
        }
        drop(fanout);
        self.last_now = now;

        let merge_span = rdbsc_obs::span(trace, root.id(), "router.merge");
        self.committed.clear();
        let mut merged = TickReport {
            now,
            events_applied: 0,
            tasks_expired: 0,
            num_shards: 0,
            largest_shard_pairs: 0,
            strategies: Vec::new(),
            new_assignments: Vec::new(),
            solve_seconds: 0.0,
            shard_solve_seconds: Vec::new(),
            index_maintenance: MaintenanceCounters::default(),
            stages: rdbsc_obs::StageTimings::default(),
        };
        for reply in results {
            let report = reply.report;
            merged.events_applied += report.events_applied;
            merged.tasks_expired += report.tasks_expired;
            merged.num_shards += report.num_shards;
            merged.largest_shard_pairs = merged.largest_shard_pairs.max(report.largest_shard_pairs);
            merged.strategies.extend(report.strategies);
            merged.new_assignments.extend(report.new_assignments);
            // Partitions solve concurrently: the round's wall time is the
            // slowest partition's, not the sum.
            merged.solve_seconds = merged.solve_seconds.max(report.solve_seconds);
            merged.stages.merge_slowest(&report.stages);
            merged
                .shard_solve_seconds
                .extend(report.shard_solve_seconds);
            merged.index_maintenance.relocations += report.index_maintenance.relocations;
            merged.index_maintenance.cells_repaired += report.index_maintenance.cells_repaired;
            merged.index_maintenance.tcell_rebuilds += report.index_maintenance.tcell_rebuilds;
            self.committed.extend(reply.committed);
        }

        // Departed tombstones have served their purpose: every routed
        // leave was in its engine's queue before this tick, so the workers
        // are gone now and the routing entries can go too.
        self.worker_home.retain(|_, entry| !entry.departed);

        // Deferred handoffs: commitments may have cleared (answer banked
        // before the tick, task expired during it). BTreeSet order makes the
        // resolution sequence deterministic.
        let pending: Vec<WorkerId> = self.pending_handoff.iter().copied().collect();
        for id in pending {
            if self.committed.contains(&id) {
                continue;
            }
            self.pending_handoff.remove(&id);
            let Some(entry) = self.worker_home.get(&id).copied() else {
                continue;
            };
            if self.partition.partition_of(entry.record.location) != entry.home {
                self.handoff(id, entry.home, entry.record);
            }
        }
        self.flush_outbox();
        drop(merge_span);
        merged
    }

    /// Does any partition have pending events or live tasks? (The idle
    /// check behind [`crate::handle::EngineHandle::tick_if_active`]; ticks
    /// stay lockstep, so one active partition ticks all of them.)
    pub fn is_active(&mut self) -> bool {
        (0..self.clients.len()).any(|slot| self.call(slot, |c| c.is_active()) == Some(true))
    }

    /// Banks an en-route worker's answer in its partition; a now-free
    /// boundary-crossing worker is immediately handed off to the partition
    /// of its last reported position. Returns `false` when the worker was
    /// not en route.
    pub fn record_answer(&mut self, worker: WorkerId, contribution: Contribution) -> bool {
        let Some(entry) = self.worker_home.get(&worker).copied() else {
            return false;
        };
        let Some(banked) = self.call(entry.home, |c| c.record_answer(worker, contribution)) else {
            return false;
        };
        if banked {
            self.committed.remove(&worker);
            if self.pending_handoff.remove(&worker)
                && self.partition.partition_of(entry.record.location) != entry.home
            {
                self.handoff(worker, entry.home, entry.record);
                self.flush_outbox();
            }
        }
        banked
    }

    /// Releases an en-route worker (gave up / rejected) in its partition,
    /// performing a deferred handoff if one is waiting on it.
    pub fn release_worker(&mut self, worker: WorkerId) {
        let Some(entry) = self.worker_home.get(&worker).copied() else {
            return;
        };
        if self
            .call(entry.home, |c| c.release_worker(worker))
            .is_none()
        {
            return;
        }
        self.committed.remove(&worker);
        if self.pending_handoff.remove(&worker)
            && self.partition.partition_of(entry.record.location) != entry.home
        {
            self.handoff(worker, entry.home, entry.record);
            self.flush_outbox();
        }
    }

    /// Is the worker currently en route (in any partition)?
    pub fn is_committed(&self, worker: WorkerId) -> bool {
        self.committed.contains(&worker)
    }

    /// The standing committed pairs across all partitions, ordered by
    /// `(partition, task, worker)` — partition-major concatenation of the
    /// per-engine sorted listings.
    pub fn committed_assignments(&mut self) -> Vec<ValidPair> {
        (0..self.clients.len())
            .filter_map(|slot| self.call(slot, |c| c.assignments()))
            .flatten()
            .collect()
    }

    /// One consistent snapshot per surviving partition, in partition order
    /// (lost partitions are absent — see the module docs' failure model).
    pub fn partition_snapshots(&mut self) -> Vec<EngineSnapshot> {
        (0..self.clients.len())
            .filter_map(|slot| self.call(slot, |c| c.snapshot()))
            .collect()
    }

    /// The merged serving snapshot: counters summed, objective folded
    /// (minimum reliability over covered partitions, diversity summed).
    pub fn snapshot(&mut self) -> EngineSnapshot {
        merge_snapshots(&self.partition_snapshots())
    }

    /// The partitions whose index currently holds the worker. The handoff
    /// invariant says this has at most one element once queues are drained;
    /// the property tests assert exactly that.
    pub fn partitions_holding(&mut self, id: WorkerId) -> Vec<usize> {
        (0..self.clients.len())
            .filter(|&slot| self.call(slot, |c| c.has_worker(id)) == Some(true))
            .collect()
    }

    /// Graceful shutdown with drain ordering: ship any buffered routed
    /// events, run one final drain tick so queued events apply and deferred
    /// handoffs resolve, capture the final merged snapshot, then drain and
    /// stop every partition (a daemon answers 503 to commands after its
    /// drain, then exits on the shutdown command). Returns the final
    /// snapshot so callers can assert nothing queued was dropped.
    ///
    /// # Panics
    ///
    /// If called twice.
    pub fn shutdown(&mut self) -> EngineSnapshot {
        assert!(!self.shut, "PartitionedEngine::shutdown called twice");
        self.flush_outbox();
        if self.is_active() {
            // The drain tick: applies whatever the queues hold and fires
            // any deferred handoffs whose commitment has cleared. Re-using
            // the last tick time keeps the engines' monotone-time rule.
            self.tick(self.last_now);
        }
        let snapshot = self.snapshot();
        for slot in 0..self.clients.len() {
            if !self.healthy(slot) {
                continue;
            }
            // Best effort from here on: an already-dead partition must not
            // stop the others from being released.
            if let Err(e) = self.clients[slot].drain() {
                eprintln!("partition {slot} drain failed: {e}");
            }
            if let Err(e) = self.clients[slot].shutdown() {
                eprintln!("partition {slot} shutdown failed: {e}");
            }
        }
        // Standbys that were never promoted still hold live processes or
        // threads; release them too (best effort, same as above).
        for (slot, promoter) in self.promoters.iter_mut().enumerate() {
            if let Some(promoter) = promoter {
                if let Err(e) = promoter.shutdown() {
                    eprintln!("partition {slot} standby shutdown failed: {e}");
                }
            }
        }
        self.shut = true;
        snapshot
    }
}

/// Folds per-partition snapshots into one platform-wide view (lockstep
/// ticks, summed counters, merged objective).
pub fn merge_snapshots(parts: &[EngineSnapshot]) -> EngineSnapshot {
    let mut merged = EngineSnapshot {
        now: parts.first().map(|p| p.now).unwrap_or(0.0),
        ticks: parts.first().map(|p| p.ticks).unwrap_or(0),
        events_applied: 0,
        pending_events: 0,
        live_tasks: 0,
        live_workers: 0,
        committed_workers: 0,
        banked_answers: 0,
        total_assignments: 0,
        objective: EngineObjective {
            min_reliability: f64::INFINITY,
            total_std: 0.0,
            covered_tasks: 0,
        },
        index_counters: MaintenanceCounters::default(),
        wal: None,
    };
    for p in parts {
        merged.events_applied += p.events_applied;
        merged.pending_events += p.pending_events;
        merged.live_tasks += p.live_tasks;
        merged.live_workers += p.live_workers;
        merged.committed_workers += p.committed_workers;
        merged.banked_answers += p.banked_answers;
        merged.total_assignments += p.total_assignments;
        merged.objective.total_std += p.objective.total_std;
        merged.objective.covered_tasks += p.objective.covered_tasks;
        if p.objective.covered_tasks > 0 {
            merged.objective.min_reliability = merged
                .objective
                .min_reliability
                .min(p.objective.min_reliability);
        }
        merged.index_counters.relocations += p.index_counters.relocations;
        merged.index_counters.cells_repaired += p.index_counters.cells_repaired;
        merged.index_counters.tcell_rebuilds += p.index_counters.tcell_rebuilds;
        if let Some(w) = p.wal {
            // Durability counters sum across partitions; the checkpoint
            // epoch reported is the most recent one (with lockstep ticks
            // and a shared interval it is every partition's).
            let m = merged.wal.get_or_insert_with(Default::default);
            m.segments += w.segments;
            m.segments_retired += w.segments_retired;
            m.bytes_appended += w.bytes_appended;
            m.records_appended += w.records_appended;
            m.fsyncs += w.fsyncs;
            m.checkpoints += w.checkpoints;
            m.last_checkpoint_tick = m.last_checkpoint_tick.max(w.last_checkpoint_tick);
            m.recovered_records += w.recovered_records;
            m.recovered_checkpoint |= w.recovered_checkpoint;
        }
    }
    if merged.objective.covered_tasks == 0 {
        merged.objective.min_reliability = 1.0;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use rdbsc_cluster::RegionPartition;
    use rdbsc_geo::{AngleRange, Point};
    use rdbsc_index::geometry::GridGeometry;
    use rdbsc_index::GridIndex;
    use rdbsc_model::{Confidence, Task, TimeWindow};

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

    fn partitioned(n: usize) -> PartitionedEngine {
        let geometry = GridGeometry::new(Rect::unit(), 0.1);
        let partition = RegionPartition::uniform(geometry, n);
        PartitionedEngine::build(partition, EngineConfig::default(), |rect| {
            GridIndex::new(rect, 0.1)
        })
    }

    /// A two-sided script: tasks and workers in the left (x < 0.5) and right
    /// halves, matching a 2-way uniform split's vertical boundary.
    fn two_sided_events() -> Vec<EngineEvent> {
        let mut events = Vec::new();
        for i in 0..6u32 {
            let x = if i % 2 == 0 { 0.2 } else { 0.8 };
            events.push(EngineEvent::TaskArrived(task(i, x, 0.5, 0.0, 5.0)));
            events.push(EngineEvent::WorkerCheckIn(worker(i, x, 0.45, 0.3)));
        }
        events
    }

    #[test]
    fn single_partition_matches_plain_engine() {
        let mut plain =
            AssignmentEngine::new(GridIndex::new(Rect::unit(), 0.1), EngineConfig::default());
        let mut split = partitioned(1);
        let events = two_sided_events();
        plain.submit_all(events.clone());
        split.submit_all(events);

        let a = plain.tick(0.0);
        let b = split.tick(0.0);
        assert_eq!(a.new_assignments, b.new_assignments);
        assert_eq!(a.events_applied, b.events_applied);
        assert_eq!(a.num_shards, b.num_shards);
        assert_eq!(a.strategies, b.strategies);
        assert_eq!(plain.committed_assignments(), split.committed_assignments());

        // Answers flow identically.
        let pair = a.new_assignments[0];
        assert!(plain.record_answer(pair.worker, pair.contribution));
        assert!(split.record_answer(pair.worker, pair.contribution));
        assert_eq!(
            plain.tick(0.5).new_assignments,
            split.tick(0.5).new_assignments
        );
        assert_eq!(split.handoffs(), 0);
    }

    #[test]
    fn events_route_to_the_owning_partition() {
        let mut split = partitioned(2);
        split.submit_all(two_sided_events());
        let report = split.tick(0.0);
        assert!(!report.new_assignments.is_empty());
        let snaps = split.partition_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].live_tasks, 3);
        assert_eq!(snaps[1].live_tasks, 3);
        assert_eq!(snaps[0].live_workers, 3);
        assert_eq!(snaps[1].live_workers, 3);
        let merged = split.snapshot();
        assert_eq!(merged.live_tasks, 6);
        assert_eq!(merged.live_workers, 6);
    }

    #[test]
    fn transport_stats_name_the_in_process_backend() {
        let mut split = partitioned(2);
        split.submit_all(two_sided_events());
        split.tick(0.0);
        let transports = split.transport_stats();
        assert_eq!(transports.len(), 2);
        for (i, t) in transports.iter().enumerate() {
            assert_eq!(t.partition, i);
            assert_eq!(t.kind, "in-process");
            assert_eq!(t.endpoint, format!("rdbsc-partition-{i}"));
            assert!(t.stats.requests >= 2, "submit + tick each count");
            assert_eq!(t.stats.bytes_sent, 0);
        }
    }

    #[test]
    fn free_worker_crossing_the_boundary_is_handed_off() {
        let mut split = partitioned(2);
        split.submit(EngineEvent::WorkerCheckIn(worker(0, 0.2, 0.5, 0.3)));
        split.tick(0.0);
        assert_eq!(split.partitions_holding(WorkerId(0)), vec![0]);

        split.submit(EngineEvent::WorkerMoved(WorkerId(0), Point::new(0.8, 0.5)));
        split.tick(0.1);
        assert_eq!(split.handoffs(), 1);
        assert_eq!(split.partitions_holding(WorkerId(0)), vec![1]);

        // A task near its new home is served by the new partition's engine.
        split.submit(EngineEvent::TaskArrived(task(0, 0.82, 0.5, 0.0, 5.0)));
        let report = split.tick(0.2);
        assert_eq!(report.new_assignments.len(), 1);
        assert_eq!(report.new_assignments[0].worker, WorkerId(0));
    }

    #[test]
    fn committed_worker_handoff_waits_for_the_answer() {
        let mut split = partitioned(2);
        split.submit(EngineEvent::TaskArrived(task(0, 0.2, 0.5, 0.0, 8.0)));
        split.submit(EngineEvent::WorkerCheckIn(worker(0, 0.25, 0.5, 0.4)));
        let report = split.tick(0.0);
        assert_eq!(report.new_assignments.len(), 1);
        let pair = report.new_assignments[0];
        assert!(split.is_committed(pair.worker));

        // The committed worker reports from the far side of the boundary:
        // no handoff yet — the commitment pins it to partition 0.
        split.submit(EngineEvent::WorkerMoved(pair.worker, Point::new(0.8, 0.5)));
        split.tick(0.5);
        assert_eq!(split.handoffs(), 0);
        assert_eq!(split.partitions_holding(pair.worker), vec![0]);
        assert_eq!(split.committed_assignments().len(), 1);

        // The answer banks in partition 0 (where the task lives) and the
        // handoff fires immediately after.
        assert!(split.record_answer(pair.worker, pair.contribution));
        assert_eq!(split.handoffs(), 1);
        assert_eq!(split.snapshot().banked_answers, 1);
        split.tick(1.0);
        assert_eq!(split.partitions_holding(pair.worker), vec![1]);
        assert!(split.snapshot().objective.min_reliability > 0.0);
    }

    #[test]
    fn expiration_releases_and_then_hands_off() {
        let mut split = partitioned(2);
        split.submit(EngineEvent::TaskArrived(task(0, 0.2, 0.5, 0.0, 1.0)));
        split.submit(EngineEvent::WorkerCheckIn(worker(0, 0.25, 0.5, 0.4)));
        let report = split.tick(0.0);
        assert_eq!(report.new_assignments.len(), 1);
        split.submit(EngineEvent::WorkerMoved(WorkerId(0), Point::new(0.9, 0.5)));
        split.tick(0.5); // still committed, still partition 0
        assert_eq!(split.partitions_holding(WorkerId(0)), vec![0]);

        // The task expires without an answer: the engine releases the
        // traveller and the post-tick resolution hands it off.
        let late = split.tick(2.0);
        assert_eq!(late.tasks_expired, 1);
        assert_eq!(split.handoffs(), 1);
        split.tick(2.1);
        assert_eq!(split.partitions_holding(WorkerId(0)), vec![1]);
    }

    #[test]
    fn oscillation_between_ticks_settles_in_one_partition() {
        let mut split = partitioned(2);
        split.submit(EngineEvent::WorkerCheckIn(worker(0, 0.2, 0.5, 0.3)));
        split.tick(0.0);
        // Two boundary crossings within one inter-tick window.
        split.submit(EngineEvent::WorkerMoved(WorkerId(0), Point::new(0.8, 0.5)));
        split.submit(EngineEvent::WorkerMoved(WorkerId(0), Point::new(0.2, 0.5)));
        split.tick(0.1);
        assert_eq!(split.handoffs(), 2);
        assert_eq!(split.partitions_holding(WorkerId(0)), vec![0]);
        assert_eq!(split.snapshot().live_workers, 1);
    }

    #[test]
    fn answer_after_queued_leave_still_banks_like_the_plain_engine() {
        // A leave is only applied at the next tick; an answer delivered in
        // the submit-to-tick window must still reach the engine holding the
        // commitment — on one partition this must match the plain engine
        // byte for byte.
        let drive_plain = |mut engine: AssignmentEngine<GridIndex>| {
            engine.submit(EngineEvent::TaskArrived(task(0, 0.2, 0.5, 0.0, 8.0)));
            engine.submit(EngineEvent::WorkerCheckIn(worker(0, 0.25, 0.5, 0.4)));
            let pair = engine.tick(0.0).new_assignments[0];
            engine.submit(EngineEvent::WorkerLeft(pair.worker));
            let banked = engine.record_answer(pair.worker, pair.contribution);
            engine.tick(0.5);
            (banked, engine.num_workers(), engine.num_banked_answers())
        };
        let plain = drive_plain(AssignmentEngine::new(
            GridIndex::new(Rect::unit(), 0.1),
            EngineConfig::default(),
        ));
        assert_eq!(plain, (true, 0, 1), "plain engine banks, then removes");

        for partitions in [1, 2] {
            let mut split = partitioned(partitions);
            split.submit(EngineEvent::TaskArrived(task(0, 0.2, 0.5, 0.0, 8.0)));
            split.submit(EngineEvent::WorkerCheckIn(worker(0, 0.25, 0.5, 0.4)));
            let pair = split.tick(0.0).new_assignments[0];
            split.submit(EngineEvent::WorkerLeft(pair.worker));
            assert!(
                split.record_answer(pair.worker, pair.contribution),
                "{partitions}-partition answer in the leave window must bank"
            );
            split.tick(0.5);
            assert_eq!(split.snapshot().live_workers, 0);
            assert_eq!(split.snapshot().banked_answers, 1);
            assert!(split.partitions_holding(pair.worker).is_empty());
            // The tombstoned routing entry is cleaned up by the tick; a
            // later move is the usual unknown-worker no-op.
            split.submit(EngineEvent::WorkerMoved(pair.worker, Point::new(0.9, 0.5)));
            split.tick(1.0);
            assert!(split.partitions_holding(pair.worker).is_empty());
        }
    }

    #[test]
    fn worker_left_removes_everywhere() {
        let mut split = partitioned(2);
        split.submit(EngineEvent::WorkerCheckIn(worker(0, 0.2, 0.5, 0.3)));
        split.submit(EngineEvent::WorkerMoved(WorkerId(0), Point::new(0.8, 0.5)));
        split.submit(EngineEvent::WorkerLeft(WorkerId(0)));
        split.tick(0.0);
        assert!(split.partitions_holding(WorkerId(0)).is_empty());
        assert_eq!(split.snapshot().live_workers, 0);
    }

    #[test]
    fn cross_partition_task_repost_withdraws_the_old_copy() {
        let mut split = partitioned(2);
        split.submit(EngineEvent::TaskArrived(task(0, 0.2, 0.5, 0.0, 5.0)));
        split.tick(0.0);
        assert_eq!(split.partition_snapshots()[0].live_tasks, 1);
        split.submit(EngineEvent::TaskArrived(task(0, 0.8, 0.5, 0.0, 5.0)));
        split.tick(0.1);
        let snaps = split.partition_snapshots();
        assert_eq!(snaps[0].live_tasks, 0, "old copy withdrawn");
        assert_eq!(snaps[1].live_tasks, 1, "new copy lives right");
    }

    /// Delegates to an in-process partition until "killed", then answers
    /// every command with a transport error — the in-process analogue of a
    /// daemon dying mid-run.
    struct KillableClient {
        inner: InProcessClient,
        dead: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl KillableClient {
        fn fail(&self) -> Result<(), PartitionError> {
            if self.dead.load(std::sync::atomic::Ordering::SeqCst) {
                Err(PartitionError::Transport {
                    endpoint: self.inner.endpoint(),
                    detail: "connection refused (killed)".into(),
                })
            } else {
                Ok(())
            }
        }
    }

    impl PartitionClient for KillableClient {
        fn kind(&self) -> &'static str {
            self.inner.kind()
        }
        fn endpoint(&self) -> String {
            self.inner.endpoint()
        }
        fn counters(&self) -> std::sync::Arc<crate::protocol::ProtocolCounters> {
            self.inner.counters()
        }
        fn send(
            &mut self,
            request: crate::protocol::PartitionRequest,
        ) -> Result<(), PartitionError> {
            self.fail()?;
            self.inner.send(request)
        }
        fn recv(&mut self) -> Result<crate::protocol::PartitionReply, PartitionError> {
            self.fail()?;
            self.inner.recv()
        }
    }

    #[test]
    fn lost_partition_degrades_instead_of_panicking() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let geometry = GridGeometry::new(Rect::unit(), 0.1);
        let partition = RegionPartition::uniform(geometry, 2);
        let config = EngineConfig::default();
        let dead = Arc::new(AtomicBool::new(false));
        let clients: Vec<Box<dyn PartitionClient>> = (0..2)
            .map(|i| {
                let engine = AssignmentEngine::new(
                    GridIndex::new(partition.region_rect(i), 0.1),
                    config.clone(),
                );
                let inner = InProcessClient::spawn(i, engine);
                if i == 1 {
                    Box::new(KillableClient {
                        inner,
                        dead: Arc::clone(&dead),
                    }) as Box<dyn PartitionClient>
                } else {
                    Box::new(inner)
                }
            })
            .collect();
        let mut split = PartitionedEngine::new(partition, clients);

        split.submit_all(two_sided_events());
        let report = split.tick(0.0);
        assert!(report.new_assignments.len() >= 2, "both regions assign");
        assert!(split.unhealthy_partitions().is_empty());

        // Partition 1 dies mid-run: the next tick must not unwind.
        dead.store(true, Ordering::SeqCst);
        let report = split.tick(0.5);
        let lost = split.unhealthy_partitions();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].partition, 1);
        assert_eq!(lost[0].endpoint, "rdbsc-partition-1");
        assert!(
            lost[0].error.contains("connection refused"),
            "{}",
            lost[0].error
        );
        // The surviving region still reports (3 live tasks keep it active).
        assert!(split.is_active());
        assert_eq!(split.partition_snapshots().len(), 1);
        assert_eq!(split.snapshot().live_tasks, 3);
        let _ = report;

        // Events for the lost region are dropped and counted; the healthy
        // region keeps serving new work.
        split.submit(EngineEvent::TaskArrived(task(10, 0.8, 0.5, 0.0, 9.0)));
        split.submit(EngineEvent::TaskArrived(task(11, 0.2, 0.2, 0.0, 9.0)));
        split.submit(EngineEvent::WorkerCheckIn(worker(11, 0.2, 0.25, 0.4)));
        let report = split.tick(1.0);
        assert_eq!(split.events_dropped(), 1);
        assert!(
            report
                .new_assignments
                .iter()
                .any(|p| p.worker == WorkerId(11)),
            "surviving region assigns"
        );
        assert_eq!(
            split.unhealthy_partitions().len(),
            1,
            "first error wins, no duplicates"
        );

        // Shutdown stays graceful: drains the survivor, skips the corpse.
        let final_snapshot = split.shutdown();
        assert_eq!(final_snapshot.pending_events, 0);
    }

    /// A submit is confirmed only when its reply is received, behind the
    /// slot's next request. A slot lost before that has not confirmed the
    /// batch, so as far as the router can know it was never applied: it is
    /// counted dropped, once.
    #[test]
    fn a_slot_lost_with_a_submit_in_flight_counts_the_batch_as_dropped() {
        use std::sync::atomic::Ordering;

        let (mut split, dead, _standby) = killable_split();
        split.submit_all(two_sided_events());
        dead.store(true, Ordering::SeqCst);
        split.tick(0.0);
        let lost = split.unhealthy_partitions();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].partition, 1);
        assert_eq!(
            split.events_dropped(),
            6,
            "slot 1's three tasks and three workers"
        );
        split.tick(0.5);
        assert_eq!(split.events_dropped(), 6, "the lost batch is counted once");
        split.shutdown();
    }

    /// Hands out a pre-built standby client when promoted; the in-process
    /// analogue of `rdbsc-server::RemoteStandbyPromoter`.
    struct FakePromoter {
        slot: usize,
        standby: Option<InProcessClient>,
        fail: bool,
        shut: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl StandbyPromoter for FakePromoter {
        fn endpoint(&self) -> String {
            format!("standby-{}", self.slot)
        }
        fn promote(&mut self) -> Result<Box<dyn PartitionClient>, String> {
            if self.fail {
                return Err("standby unreachable".into());
            }
            Ok(Box::new(self.standby.take().expect("promoted once")))
        }
        fn shutdown(&mut self) -> Result<(), String> {
            self.shut.store(true, std::sync::atomic::Ordering::SeqCst);
            if let Some(mut standby) = self.standby.take() {
                let _ = standby.drain();
                let _ = standby.shutdown();
            }
            Ok(())
        }
    }

    /// A 2-way split whose slot 1 is killable, with slot 1's routed
    /// sub-stream returned so a test can grow a byte-identical standby.
    fn killable_split() -> (
        PartitionedEngine,
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        AssignmentEngine<GridIndex>,
    ) {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let geometry = GridGeometry::new(Rect::unit(), 0.1);
        let partition = RegionPartition::uniform(geometry, 2);
        let config = EngineConfig::default();
        let standby = AssignmentEngine::new(
            GridIndex::new(partition.region_rect(1), 0.1),
            config.clone(),
        );
        let dead = Arc::new(AtomicBool::new(false));
        let clients: Vec<Box<dyn PartitionClient>> = (0..2)
            .map(|i| {
                let engine = AssignmentEngine::new(
                    GridIndex::new(partition.region_rect(i), 0.1),
                    config.clone(),
                );
                let inner = InProcessClient::spawn(i, engine);
                if i == 1 {
                    Box::new(KillableClient {
                        inner,
                        dead: Arc::clone(&dead),
                    }) as Box<dyn PartitionClient>
                } else {
                    Box::new(inner)
                }
            })
            .collect();
        (PartitionedEngine::new(partition, clients), dead, standby)
    }

    #[test]
    fn transport_failure_promotes_the_armed_standby() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (mut split, dead, standby) = killable_split();

        // The standby replays slot 1's routed sub-stream through the same
        // protocol methods a real follower applies shipped records with —
        // the in-process stand-in for log shipping. Determinism makes it
        // byte-identical to the primary by construction.
        let mut sub = Vec::new();
        for i in [1u32, 3, 5] {
            sub.push(EngineEvent::TaskArrived(task(i, 0.8, 0.5, 0.0, 5.0)));
            sub.push(EngineEvent::WorkerCheckIn(worker(i, 0.8, 0.45, 0.3)));
        }
        let mut standby = InProcessClient::spawn(1, standby);
        standby.begin_submit(0, sub).unwrap();
        standby.finish_submit().unwrap();
        standby.begin_tick(0, 0.0).unwrap();
        standby.finish_tick().unwrap();

        let shut = Arc::new(AtomicBool::new(false));
        split.set_standby_promoter(
            1,
            Box::new(FakePromoter {
                slot: 1,
                standby: Some(standby),
                fail: false,
                shut: Arc::clone(&shut),
            }),
        );
        assert_eq!(split.standbys_armed(), 1);

        split.submit_all(two_sided_events());
        split.tick(0.0);
        let acknowledged = split.partition_snapshots()[1].clone();

        // The primary dies mid-run: the next tick promotes inline instead
        // of degrading. The promoted slot skips the detection round (its
        // begin_tick never happened), so its state is still exactly the
        // acknowledged pre-kill snapshot.
        dead.store(true, Ordering::SeqCst);
        split.tick(0.5);
        assert!(
            split.unhealthy_partitions().is_empty(),
            "slot stayed healthy"
        );
        assert_eq!(split.standbys_armed(), 0, "promotion is one-shot");
        let promotions = split.promotions();
        assert_eq!(promotions.len(), 1);
        assert_eq!(promotions[0].partition, 1);
        assert_eq!(promotions[0].old_endpoint, "rdbsc-partition-1");
        assert_eq!(promotions[0].new_endpoint, "rdbsc-partition-1");
        assert!(promotions[0].error.contains("connection refused"));
        assert_eq!(
            split.partition_snapshots()[1],
            acknowledged,
            "promoted standby serves the acknowledged state, bit for bit"
        );

        // The region keeps serving from the standby: new work routed right
        // of the boundary assigns there.
        split.submit(EngineEvent::TaskArrived(task(10, 0.85, 0.5, 0.0, 9.0)));
        split.submit(EngineEvent::WorkerCheckIn(worker(10, 0.85, 0.45, 0.4)));
        let report = split.tick(1.0);
        assert!(
            report
                .new_assignments
                .iter()
                .any(|p| p.worker == WorkerId(10)),
            "promoted region assigns new work"
        );
        assert_eq!(split.events_dropped(), 0, "no events lost across failover");

        let final_snapshot = split.shutdown();
        assert_eq!(final_snapshot.pending_events, 0);
        assert!(
            !shut.load(Ordering::SeqCst),
            "fired promoter is not re-shut"
        );
    }

    #[test]
    fn failed_promotion_falls_back_to_the_unhealthy_path() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (mut split, dead, standby) = killable_split();
        drop(standby);
        let shut = Arc::new(AtomicBool::new(false));
        split.set_standby_promoter(
            1,
            Box::new(FakePromoter {
                slot: 1,
                standby: None,
                fail: true,
                shut: Arc::clone(&shut),
            }),
        );

        split.submit_all(two_sided_events());
        split.tick(0.0);
        dead.store(true, Ordering::SeqCst);
        split.tick(0.5);

        let lost = split.unhealthy_partitions();
        assert_eq!(lost.len(), 1, "failed promotion degrades, not panics");
        assert_eq!(lost[0].partition, 1);
        assert!(split.promotions().is_empty());
        assert_eq!(
            split.standbys_armed(),
            0,
            "the attempt consumed the promoter"
        );
        split.shutdown();
    }

    #[test]
    fn shutdown_releases_an_unfired_standby() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let (mut split, _dead, standby) = killable_split();
        let shut = Arc::new(AtomicBool::new(false));
        split.set_standby_promoter(
            1,
            Box::new(FakePromoter {
                slot: 1,
                standby: Some(InProcessClient::spawn(1, standby)),
                fail: false,
                shut: Arc::clone(&shut),
            }),
        );
        split.submit_all(two_sided_events());
        split.tick(0.0);
        split.shutdown();
        assert!(shut.load(Ordering::SeqCst), "armed standby was stopped");
    }

    #[test]
    fn graceful_shutdown_drains_queued_events_and_deferred_handoffs() {
        // The regression this locks in: a shutdown right after a submit
        // used to stop the engines with the events still queued — they were
        // never applied. The graceful path runs a final drain tick first.
        let mut split = partitioned(2);
        split.submit_all(two_sided_events());
        // Nothing has ticked yet: all 12 events are still queued.
        assert_eq!(split.snapshot().pending_events, 12);
        let final_snapshot = split.shutdown();
        assert_eq!(
            final_snapshot.pending_events, 0,
            "drain tick applied the queue"
        );
        assert_eq!(final_snapshot.events_applied, 12);
        assert_eq!(final_snapshot.live_tasks, 6);
        assert_eq!(final_snapshot.live_workers, 6);

        // Deferred-handoff flush: a committed worker whose answer lands in
        // the submit-to-shutdown window is handed off by the drain tick.
        let mut split = partitioned(2);
        split.submit(EngineEvent::TaskArrived(task(0, 0.2, 0.5, 0.0, 8.0)));
        split.submit(EngineEvent::WorkerCheckIn(worker(0, 0.25, 0.5, 0.4)));
        let pair = split.tick(0.0).new_assignments[0];
        split.submit(EngineEvent::WorkerMoved(pair.worker, Point::new(0.8, 0.5)));
        split.tick(0.5); // commitment pins the worker left of the boundary
        assert!(split.record_answer(pair.worker, pair.contribution));
        assert_eq!(split.handoffs(), 1, "answer released the deferred handoff");
        let final_snapshot = split.shutdown();
        assert_eq!(
            final_snapshot.pending_events, 0,
            "handoff events were applied"
        );
        assert_eq!(final_snapshot.banked_answers, 1);
        assert_eq!(final_snapshot.live_workers, 1);
    }

    #[test]
    fn merging_one_snapshot_is_the_identity() {
        // One region's snapshot is what a one-region topology reports, so
        // the merge must hand it back unchanged: idle and covered,
        // non-durable and durable.
        let mut split = partitioned(1);
        let idle = split.snapshot();
        assert_eq!(idle.objective.covered_tasks, 0);
        split.submit_all(two_sided_events());
        let pair = split.tick(0.0).new_assignments[0];
        assert!(split.record_answer(pair.worker, pair.contribution));
        split.tick(0.5);
        let covered = split.partition_snapshots().remove(0);
        assert!(covered.objective.covered_tasks > 0);
        assert!(covered.objective.total_std > 0.0);
        let wal = crate::wal::WalStats {
            segments: 2,
            segments_retired: 1,
            bytes_appended: 4096,
            records_appended: 17,
            fsyncs: 9,
            checkpoints: 1,
            last_checkpoint_tick: 64,
            recovered_records: 3,
            recovered_checkpoint: true,
        };
        for snapshot in [idle, covered] {
            let durable = EngineSnapshot {
                wal: Some(wal),
                ..snapshot.clone()
            };
            for s in [snapshot, durable] {
                assert_eq!(merge_snapshots(std::slice::from_ref(&s)), s);
            }
        }
    }
}

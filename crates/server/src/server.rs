//! The server: acceptor + per-connection handler threads + one group
//! committer **per pool shard**, each shard optionally backed by a
//! replica set (`jnvm-repl`).
//!
//! ## Sharded write path and the ack barrier
//!
//! The server runs over N independent pool shards (grid + backend +
//! device each; see [`jnvm_kvstore::ShardedKv`]). Connection handlers
//! never touch the persistent devices for writes. They decode ops, route
//! each by key hash ([`jnvm_kvstore::shard_for_key`]) to its shard's
//! bounded queue (backpressure: producers block while that queue is full)
//! and hold a *ticket* per op. Each shard's committer drains up to
//! `batch_max` ops from its own queue, runs
//! [`jnvm_kvstore::commit_writes`] against its own backend (group commit:
//! 4 fences per group, not per op — the applies are durable before the
//! log retires) and resolves the batch's tickets only
//! after that call returns — i.e. after the group durability point *and*
//! the apply phase, so a GET that waited for the ticket reads the write.
//! K writes spread over N shards pay N *concurrent* fence passes instead
//! of serializing behind one committer. Handlers release replies strictly
//! in request order from a per-connection completion queue
//! (`Completions`): a write's slot when its ticket resolves, a read's at
//! once — a GET executes inline after this connection's earlier writes
//! **to its own key** have resolved, and is concurrent with its
//! unacknowledged writes to other keys (DESIGN.md §8), so a read neither
//! waits out a commit it does not depend on nor cuts the connection's
//! commit group short. Replies are written once per drain, not per reply.
//!
//! ## Replication: acked ⇒ durable on a surviving replica
//!
//! With `--replicas 2` each shard owns a [`jnvm::ReplicaSet`] of two
//! full stacks on independent devices. The committer streams each drained
//! batch to the shard's backup endpoint (`REPL_APPLY` frames over a
//! loopback link; see [`crate::repl`]) **before** committing on the
//! primary, then waits for the backup's cumulative `REPL_ACK` before
//! resolving tickets. The backup applies concurrently with the primary's
//! commit, so the added latency is `max` of the two passes, not their
//! sum — and send-before-commit means the backup's applied state is
//! always a superset-prefix of the primary's, which is what makes
//! failover safe at *every* primary crash point.
//!
//! ## Crash behaviour: promote, degrade, or die
//!
//! Every thread that can touch a device runs under
//! [`jnvm_pmem::catch_crash`]. When the fault-injection engine fires on a
//! replicated shard's **primary**, that shard's committer fails the
//! in-flight batch and everything queued (none of it was acked), quiesces
//! the replication link (close + join the endpoint thread — the
//! exclusive-writer handoff), **promotes** the backup in place and keeps
//! serving; `acked_after_promotion` counts the proof of life. When the
//! **backup** dies (its endpoint stops acking), the committer degrades to
//! solo mode and keeps acking off the primary alone. Only a crash with no
//! redundancy left kills the shard, PR 6 style: writes are answered
//! [`Reply::Err`] at enqueue and GETs routed to it answer `Err` too.
//! Writes that missed their durability point are never answered `Ok`.
//! The kill-during-traffic torture checks exactly these contracts.
//!
//! ## Write accounting
//!
//! `acked`/`nacked`/`failed` are counted when the committer *resolves*
//! each ticket (not when the handler flushes the reply — a send failure
//! must not lose counts), `queued` when a ticket is created, and
//! `rejected` when enqueue refuses (dead shard / shutdown). After a full
//! shutdown every queued ticket is drained and resolved, so
//! `queued == acked + nacked + failed` — the graceful-shutdown
//! regression pins this. A dying shard is marked dead under its queue
//! lock before the crash path drains the queue, so the identity also
//! holds whenever the load has drained after a crash
//! (`kill_during_traffic` checks it at every crash point).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jnvm::ReplicaSet;
use jnvm_kvstore::{
    commit_writes, shard_for_key, Backend, DataGrid, JnvmBackend, KvShard, ReplLag, WriteOp,
};
use jnvm_obs::Histogram;
use jnvm_pmem::{catch_crash, hush_panics, thread_charged_ns, Pmem, StatsSnapshot};

use crate::proto::{
    check_hello, close_value_reply, encode_repl_apply, encode_reply_into, hello_frame,
    open_value_reply, parse_frame, parse_reply, ParseOutcome, Reply, Request,
};
use crate::repl::start_backup_endpoint;

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum ops a committer drains into one batch.
    pub batch_max: usize,
    /// Per-shard bounded-queue capacity; producers block (backpressure)
    /// beyond it.
    pub queue_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_max: 64,
            queue_cap: 256,
        }
    }
}

/// One replica's serving surface (one full stack on its own device).
/// `be` must be the backend `grid` was built over, and `pmem` the device
/// both live on; all writes to the backend must flow through this server
/// while it runs (the group committer's exclusive-writer contract, per
/// shard — and per replica, via the endpoint handoff).
pub struct ShardHandle {
    /// The replica's grid.
    pub grid: Arc<DataGrid>,
    /// The replica's backend.
    pub be: Arc<JnvmBackend>,
    /// The replica's device.
    pub pmem: Arc<Pmem>,
}

impl From<&KvShard> for ShardHandle {
    fn from(shard: &KvShard) -> ShardHandle {
        ShardHandle {
            grid: Arc::clone(&shard.grid),
            be: Arc::clone(&shard.be),
            pmem: Arc::clone(&shard.pmem),
        }
    }
}

/// Counters the server exports (also rendered by STATS).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Writes acknowledged `Ok` — each one durable before its reply left
    /// (on *every* live replica of its shard).
    pub acked_writes: u64,
    /// Writes answered `NotFound` (absent SETF/DEL target).
    pub nacked_writes: u64,
    /// Writes ticketed but failed by a crash before their durability
    /// point (in-flight batch or queue-drain on the promotion/death path).
    pub failed_writes: u64,
    /// Writes that got a ticket at all (acked + nacked + failed once the
    /// queues drain — the graceful-shutdown invariant).
    pub queued_writes: u64,
    /// Writes refused at enqueue (dead shard, or server shutting down).
    pub rejected_writes: u64,
    /// Commit groups issued (4 ordering fences each on the FA path: the
    /// applies are durable before the log retires).
    pub groups: u64,
    /// Batches drained across all committers.
    pub batches: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Pool shards the server runs over.
    pub shards: u64,
    /// Replica stacks across all shards.
    pub replicas: u64,
    /// Shards whose write path died with no redundancy left.
    pub dead_shards: u64,
    /// Backups promoted to primary after a primary crash.
    pub promotions: u64,
    /// Replicated shards running solo (backup lost, or post-promotion).
    pub degraded_shards: u64,
    /// Writes acked by a shard that has failed over — the liveness
    /// witness of promotion.
    pub acked_after_promotion: u64,
    /// Commit groups handed to backup endpoints.
    pub repl_sent: u64,
    /// Commit groups the backups have made durable.
    pub repl_acked: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TicketState {
    Waiting,
    /// Committed and durable; `true` = applied, `false` = target absent.
    Done(bool),
    /// The shard died before this op's durability point.
    Failed,
}

/// One enqueued write, shared by its shard's queue (the committer resolves
/// it) and its connection's completion queue (the handler waits on it).
struct Ticket {
    /// The key written: a later `GET` of it on the connection waits.
    key: String,
    /// Index of the shard whose committer resolves this ticket.
    shard: usize,
    /// When the op entered its shard queue — the base of the commit-ack
    /// latency recorded into the obs registry at resolution.
    enqueued: Instant,
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl Ticket {
    fn new(key: String, shard: usize) -> Ticket {
        Ticket {
            key,
            shard,
            enqueued: Instant::now(),
            state: Mutex::new(TicketState::Waiting),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, s: TicketState) {
        *self.state.lock().expect("ticket lock") = s;
        self.cv.notify_all();
    }

    fn is_resolved(&self) -> bool {
        *self.state.lock().expect("ticket lock") != TicketState::Waiting
    }

    /// Block until resolved. The shard's committer resolves every ticket
    /// it ever dequeues, and its crash path drains the queue and marks the
    /// shard dead under one hold of the queue lock, so no ticket is left
    /// behind; the timeout loop is only a backstop for the handler-panic
    /// path, which marks every shard dead without draining.
    fn wait(&self, shared: &Shared) -> TicketState {
        let mut st = self.state.lock().expect("ticket lock");
        loop {
            match *st {
                TicketState::Waiting => {}
                resolved => return resolved,
            }
            if shared.shards[self.shard].dead.load(Ordering::Acquire) {
                return TicketState::Failed;
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .expect("ticket wait");
            st = g;
        }
    }
}

/// Per-shard serving state: the replica set plus the committer's queue,
/// replication link and crash flag. Each shard's committer owns exactly
/// this shard — the footprint-disjointness the FA group commit asserts
/// holds trivially across shards because their devices are disjoint.
struct ShardState {
    set: ReplicaSet<ShardHandle>,
    /// Committer-side replication link to this shard's backup endpoint.
    /// `None` once solo (never replicated, degraded, or promoted).
    link: Mutex<Option<TcpStream>>,
    /// The backup endpoint thread; joined when the link closes — that
    /// join is the exclusive-writer handoff of the backup's stack.
    endpoint: Mutex<Option<JoinHandle<()>>>,
    /// Replication-lag watermark (groups sent vs. backup durability point).
    lag: ReplLag,
    queue: Mutex<VecDeque<(WriteOp, Arc<Ticket>)>>,
    /// The shard's committer waits here for work.
    queue_cv: Condvar,
    /// Producers wait here for queue space.
    space_cv: Condvar,
    /// This shard's write path died with no replica left to serve.
    dead: AtomicBool,
    groups: AtomicU64,
    batches: AtomicU64,
    /// Modeled device nanoseconds charged to this shard's committer
    /// thread ([`jnvm_pmem::thread_charged_ns`]), updated after every
    /// batch — the commit critical path of this shard.
    charged_ns: AtomicU64,
}

impl ShardState {
    /// The replica currently serving reads and primary commits.
    fn active(&self) -> &ShardHandle {
        self.set.active()
    }
}

struct Shared {
    cfg: ServerConfig,
    shards: Vec<ShardState>,
    shutdown: AtomicBool,
    acked_writes: AtomicU64,
    nacked_writes: AtomicU64,
    failed_writes: AtomicU64,
    queued_writes: AtomicU64,
    rejected_writes: AtomicU64,
    acked_after_promotion: AtomicU64,
    connections: AtomicU64,
    /// Per-connection write ack-latency histograms, merged at conn close.
    latency: Mutex<Histogram>,
}

impl Shared {
    fn route(&self, key: &str) -> usize {
        shard_for_key(key, self.shards.len())
    }

    fn all_dead(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.dead.load(Ordering::Acquire))
    }
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// listener thread until process exit; tests always call `shutdown`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    committers: Vec<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// The server's one entry point — [`crate::Cluster::start`] is how
    /// everything in this workspace reaches it. (The name is pinned by the
    /// frozen `benchmark/` harness, which calls it directly.)
    ///
    /// Bind `127.0.0.1:0` (ephemeral port) and start serving the given
    /// pool shards, spawning one group committer per shard. Keys route to
    /// shards by [`shard_for_key`]; the outer vec must be in shard order
    /// (index `i` serves routing bucket `i`). Each inner vec is that
    /// shard's replica set: `[primary]` for solo — one pool is 1 shard ×
    /// 1 replica — `[primary, backup]` for replicated (a backup endpoint
    /// thread is spawned per backup and the committer's link connected
    /// before serving starts).
    pub fn start_replicated(
        shards: Vec<Vec<ShardHandle>>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(!shards.is_empty(), "the server needs at least one shard");
        assert!(
            shards.iter().all(|r| (1..=2).contains(&r.len())),
            "each shard takes one primary and at most one backup"
        );
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let mut states: Vec<ShardState> = Vec::with_capacity(shards.len());
        for replicas in shards {
            let mut link = None;
            let mut endpoint = None;
            if let Some(backup) = replicas.get(1) {
                let (stream, handle) =
                    start_backup_endpoint(Arc::clone(&backup.grid), Arc::clone(&backup.be))?;
                link = Some(stream);
                endpoint = Some(handle);
            }
            states.push(ShardState {
                set: ReplicaSet::new(replicas),
                link: Mutex::new(link),
                endpoint: Mutex::new(endpoint),
                lag: ReplLag::new(),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                space_cv: Condvar::new(),
                dead: AtomicBool::new(false),
                groups: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                charged_ns: AtomicU64::new(0),
            });
        }
        let shared = Arc::new(Shared {
            cfg,
            shards: states,
            shutdown: AtomicBool::new(false),
            acked_writes: AtomicU64::new(0),
            nacked_writes: AtomicU64::new(0),
            failed_writes: AtomicU64::new(0),
            queued_writes: AtomicU64::new(0),
            rejected_writes: AtomicU64::new(0),
            acked_after_promotion: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            latency: Mutex::new(Histogram::new()),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let committers = (0..shared.shards.len())
            .map(|si| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || committer_loop(&shared, si))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::spawn(move || acceptor_loop(listener, &shared, &handlers))
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            committers,
            handlers,
        })
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True after a (simulated) crash killed **any** shard's write path
    /// with no replica left to promote.
    pub fn is_dead(&self) -> bool {
        self.shared
            .shards
            .iter()
            .any(|s| s.dead.load(Ordering::Acquire))
    }

    /// True once shutdown was requested (SHUTDOWN frame or [`Server::shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        snapshot(&self.shared)
    }

    /// Modeled device nanoseconds charged to each shard's committer so
    /// far, in shard order. The max over shards is the sharded engine's
    /// commit critical path (all committers run concurrently).
    pub fn committer_charged_ns(&self) -> Vec<u64> {
        self.shared
            .shards
            .iter()
            .map(|s| s.charged_ns.load(Ordering::Acquire))
            .collect()
    }

    /// Stop accepting, drain queued writes (each queued ticket is acked
    /// or failed, never silently dropped), join every thread — committers
    /// close their replication links on exit, which shuts the backup
    /// endpoints down in turn.
    pub fn shutdown(mut self) {
        request_shutdown(&self.shared);
        // Unblock the acceptor's blocking accept(). No hello follows: the
        // handler's hello-read loop exits on the shutdown flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for h in self.handlers.lock().expect("handlers lock").drain(..) {
            let _ = h.join();
        }
        for c in self.committers.drain(..) {
            let _ = c.join();
        }
        // Committers quiesce their own links; this catches endpoints whose
        // committer died before the link existed (defensive only).
        for s in &self.shared.shards {
            quiesce_link(s);
        }
    }
}

fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    // Per shard, under its queue lock so the committer's empty-queue exit
    // check and the producers' reject check see a consistent flag.
    for shard in &shared.shards {
        let _q = shard.queue.lock().expect("queue lock");
        shard.queue_cv.notify_all();
        shard.space_cv.notify_all();
    }
}

fn snapshot(shared: &Shared) -> ServerStats {
    ServerStats {
        acked_writes: shared.acked_writes.load(Ordering::Relaxed),
        nacked_writes: shared.nacked_writes.load(Ordering::Relaxed),
        failed_writes: shared.failed_writes.load(Ordering::Relaxed),
        queued_writes: shared.queued_writes.load(Ordering::Relaxed),
        rejected_writes: shared.rejected_writes.load(Ordering::Relaxed),
        groups: shared
            .shards
            .iter()
            .map(|s| s.groups.load(Ordering::Relaxed))
            .sum(),
        batches: shared
            .shards
            .iter()
            .map(|s| s.batches.load(Ordering::Relaxed))
            .sum(),
        connections: shared.connections.load(Ordering::Relaxed),
        shards: shared.shards.len() as u64,
        replicas: shared.shards.iter().map(|s| s.set.len() as u64).sum(),
        dead_shards: shared
            .shards
            .iter()
            .filter(|s| s.dead.load(Ordering::Acquire))
            .count() as u64,
        promotions: shared.shards.iter().map(|s| s.set.promotions()).sum(),
        // Singleton sets are born degraded; only count lost redundancy.
        degraded_shards: shared
            .shards
            .iter()
            .filter(|s| s.set.len() >= 2 && s.set.is_degraded())
            .count() as u64,
        acked_after_promotion: shared.acked_after_promotion.load(Ordering::Relaxed),
        repl_sent: shared.shards.iter().map(|s| s.lag.sent()).sum(),
        repl_acked: shared.shards.iter().map(|s| s.lag.acked()).sum(),
    }
}

/// Run a device read, treating *any* panic as "this replica is crashing".
///
/// A GET racing the exact instant a crash point fires can observe the
/// committer's abandoned in-DRAM state — mid-rehash maps, half-published
/// entries — and trip a data-structure invariant panic rather than a
/// clean `CrashInjected`. Both mean the same thing on the read path: the
/// replica is going down and the request must fail (the next read after
/// failover lands on the survivor). The catch is a plain `catch_unwind`
/// so the payload type does not matter, and the thread is hushed so the
/// expected unwind does not print a backtrace under the torture hook.
fn read_in_crash_window<R>(f: impl FnOnce() -> R) -> Option<R> {
    let _hush = hush_panics();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// Answer a `GET` in place: `read` appends the marshalled record behind an
/// open `Value` header, or finds nothing (`false`). The active replica can
/// freeze under it (crash fired, promotion not done yet — the next read
/// lands on the backup); whatever a failed or unwound read left behind is
/// cut back to the mark, so `out` only ever gains one whole frame.
fn encode_get_reply(out: &mut Vec<u8>, read: impl FnOnce(&mut Vec<u8>) -> bool) {
    let mark = open_value_reply(out);
    let found = read_in_crash_window(|| read(out));
    if found == Some(true) {
        return close_value_reply(out, mark);
    }
    out.truncate(mark);
    let reply = match found {
        Some(_) => Reply::NotFound,
        None => Reply::Err("replica crashed; failing over".into()),
    };
    encode_reply_into(out, &reply);
}

fn acceptor_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let h = std::thread::spawn(move || {
            // Handlers wrap their own device reads in catch_crash and
            // answer Err, so a crash should never unwind to here — this
            // catch is a conservative backstop against a non-crash panic
            // stranding the server. A crash that does reach it cannot be
            // attributed to one shard: mark them all dead.
            if catch_crash(|| handle_conn(&shared, stream)).is_err() {
                for s in &shared.shards {
                    s.dead.store(true, Ordering::Release);
                }
            }
        });
        // Reap the connections that already ended: a long-lived server
        // must not keep one handle per connection ever made. Whatever is
        // left is joined by `Server::shutdown`.
        let mut live = handlers.lock().expect("handlers lock");
        live.retain(|h| !h.is_finished());
        live.push(h);
    }
}

/// Close the committer-side replication link and join the backup endpoint
/// thread. TCP delivers everything written before the close, so the join
/// returns only after the endpoint has applied every streamed group and
/// exited — after this, the caller is the backup stack's only writer.
/// Idempotent; safe whether the endpoint exited on its own (backup crash)
/// or is still draining.
fn quiesce_link(shard: &ShardState) {
    drop(shard.link.lock().expect("link lock").take());
    if let Some(h) = shard.endpoint.lock().expect("endpoint lock").take() {
        let _ = h.join();
    }
}

/// Resolve a committed ticket and do the write accounting. Counting at
/// resolution (not at reply flush) keeps the counters exact even when the
/// client connection died before its replies could be sent.
fn resolve_done(shared: &Shared, shard: &ShardState, ticket: &Ticket, ok: bool) {
    if ok {
        shared.acked_writes.fetch_add(1, Ordering::Relaxed);
        // Exactly one registry sample per acked write, recorded at the
        // same place the counter moves — the obs-invariant suite holds
        // `acked_writes == hist("commit-ack").count` to the digit.
        jnvm_obs::record_latency("commit-ack", ticket.enqueued.elapsed().as_nanos() as u64);
        if shard.set.promotions() > 0 {
            shared.acked_after_promotion.fetch_add(1, Ordering::Relaxed);
        }
    } else {
        shared.nacked_writes.fetch_add(1, Ordering::Relaxed);
    }
    ticket.resolve(TicketState::Done(ok));
}

fn resolve_failed(shared: &Shared, ticket: &Ticket) {
    shared.failed_writes.fetch_add(1, Ordering::Relaxed);
    ticket.resolve(TicketState::Failed);
}

/// Fail the in-flight batch and everything queued behind it — the crash
/// path's "nothing here was acked" sweep. Every ticket is resolved; none
/// is silently dropped. With `last_replica` the shard dies here, under
/// the queue lock `enqueue` checks `dead` under: every producer is either
/// refused at enqueue or failed by this drain, never ticketed on a shard
/// whose committer is gone.
fn fail_batch_and_queue(
    shared: &Shared,
    shard: &ShardState,
    batch: &[Arc<Ticket>],
    last_replica: bool,
) {
    for ticket in batch {
        resolve_failed(shared, ticket);
    }
    let mut q = shard.queue.lock().expect("queue lock");
    for (_, ticket) in q.drain(..) {
        resolve_failed(shared, &ticket);
    }
    // Only after the drain: a handler polling a queued ticket must find it
    // resolved (and counted), never merely orphaned by `dead` — it would
    // answer its client while `failed_writes` is still short of it.
    if last_replica {
        shard.dead.store(true, Ordering::Release);
    }
    shard.space_cv.notify_all();
}

/// Stream the batch to the shard's backup endpoint, chunked into
/// `REPL_APPLY` frames. Returns the last sequence number to await, or
/// `None` when the shard runs solo. A send failure means the backup is
/// gone: degrade in place and commit solo from now on.
fn stream_to_backup(shard: &ShardState, ops: &[WriteOp]) -> Option<u64> {
    if shard.set.is_degraded() {
        return None;
    }
    let mut guard = shard.link.lock().expect("link lock");
    let link = guard.as_mut()?;
    let frames = encode_repl_apply(ops, || shard.lag.next_seq());
    let last_seq = frames.last().map(|(_, seq)| *seq)?;
    for (frame, _) in &frames {
        if link.write_all(frame).is_err() {
            drop(guard);
            degrade_backup(shard);
            return None;
        }
    }
    Some(last_seq)
}

/// Wait for the backup's durability point to reach `target`. Acks are
/// cumulative, so one ack may cover several chunks. Returns `false` on
/// link EOF / error / timeout — the degrade signal.
fn wait_for_backup(shard: &ShardState, target: u64) -> bool {
    let mut guard = shard.link.lock().expect("link lock");
    let Some(link) = guard.as_mut() else {
        return false;
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    while shard.lag.acked() < target {
        // Drain every complete ack already buffered.
        let mut progressed = true;
        while progressed {
            match parse_reply(&buf) {
                Ok(Some((Reply::ReplAck(seq), n))) => {
                    shard.lag.record_acked(seq);
                    buf.drain(..n);
                }
                Ok(Some(_)) | Err(_) => return false,
                Ok(None) => progressed = false,
            }
        }
        if shard.lag.acked() >= target {
            break;
        }
        if Instant::now() >= deadline {
            return false;
        }
        match link.read(&mut tmp) {
            Ok(0) => return false,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return false,
        }
    }
    true
}

/// Backup-side failure: drop the link, join the endpoint, mark the set
/// degraded. The primary keeps serving solo — nothing acked is lost,
/// because acks were always gated on the *primary's* durability too.
fn degrade_backup(shard: &ShardState) {
    quiesce_link(shard);
    shard.set.degrade();
}

fn committer_loop(shared: &Arc<Shared>, si: usize) {
    let shard = &shared.shards[si];
    loop {
        // Split as drained: the ops move into the slice the backup stream
        // and the commit borrow, the tickets stay beside them.
        let (ops, batch): (Vec<WriteOp>, Vec<Arc<Ticket>>) = {
            let mut q = shard.queue.lock().expect("queue lock");
            loop {
                if !q.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::Acquire) || shard.dead.load(Ordering::Acquire)
                {
                    // Empty queue + shutdown/death: every ticket this
                    // shard ever accepted has been resolved. Quiesce the
                    // replication link so the backup endpoint exits too.
                    drop(q);
                    quiesce_link(shard);
                    return;
                }
                let (g, _) = shard
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .expect("queue wait");
                q = g;
            }
            let n = q.len().min(shared.cfg.batch_max);
            let batch = q.drain(..n).unzip();
            shard.space_cv.notify_all();
            batch
        };
        debug_assert!(
            ops.iter().all(|op| shared.route(op.key()) == si),
            "op routed to the wrong shard's committer"
        );
        // Hand the group to the backup *before* the primary's commit: the
        // backup applies concurrently (latency = max of the two passes)
        // and its state stays a superset-prefix of the primary's at every
        // primary crash point.
        let obs_send = jnvm_obs::span_begin();
        let ack_target = stream_to_backup(shard, &ops);
        if ack_target.is_some() {
            jnvm_obs::span_end(jnvm_obs::SpanKind::ReplSend, obs_send);
        }
        let active = shard.active();
        match catch_crash(|| commit_writes(&active.grid, &active.be, &ops)) {
            Ok(out) => {
                if let Some(target) = ack_target {
                    let obs_ack = jnvm_obs::span_begin();
                    let backup_ok = wait_for_backup(shard, target);
                    jnvm_obs::span_end(jnvm_obs::SpanKind::ReplAck, obs_ack);
                    if !backup_ok {
                        // Backup died mid-batch. The primary already
                        // holds the group durably — ack off it alone.
                        degrade_backup(shard);
                    }
                }
                // The group durability point (on every live replica) is
                // behind us: release acks.
                shard.groups.fetch_add(out.groups as u64, Ordering::Relaxed);
                shard.batches.fetch_add(1, Ordering::Relaxed);
                shard.charged_ns.store(thread_charged_ns(), Ordering::Release);
                for (ticket, ok) in batch.iter().zip(out.results.iter()) {
                    resolve_done(shared, shard, ticket, *ok);
                }
            }
            Err(_) => {
                // Power failed mid-batch on the active device: nothing
                // here reached its durability point as a group — refuse
                // to ack any of it.
                let failover = shard.set.backup().is_some();
                fail_batch_and_queue(shared, shard, &batch, !failover);
                if failover {
                    // Failover: quiesce the link (the endpoint finishes
                    // applying everything streamed, then exits; the join
                    // makes this committer the backup's only writer),
                    // promote, keep serving. The frozen primary is never
                    // touched again.
                    quiesce_link(shard);
                    shard.set.promote();
                    continue;
                }
                // No redundancy left: only this shard went down (marked
                // dead by the drain above). The other shards' committers
                // never touch this device and keep committing.
                quiesce_link(shard);
                return;
            }
        }
    }
}

/// Enqueue a write on its shard, blocking while that shard's queue is
/// full (backpressure). Returns the op's ticket.
fn enqueue(shared: &Shared, op: WriteOp) -> Result<Arc<Ticket>, &'static str> {
    let si = shared.route(op.key());
    let shard = &shared.shards[si];
    let key = op.key().to_string();
    let mut q = shard.queue.lock().expect("queue lock");
    loop {
        if shard.dead.load(Ordering::Acquire) {
            return Err("shard crashed");
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return Err("server shutting down");
        }
        if q.len() < shared.cfg.queue_cap {
            break;
        }
        let (g, _) = shard
            .space_cv
            .wait_timeout(q, Duration::from_millis(50))
            .expect("space wait");
        q = g;
    }
    let ticket = Arc::new(Ticket::new(key, si));
    q.push_back((op, Arc::clone(&ticket)));
    shared.queued_writes.fetch_add(1, Ordering::Relaxed);
    shard.queue_cv.notify_one();
    Ok(ticket)
}

/// Reply bytes a connection may encode before it stops parsing and drains:
/// a client that pipelines reads faster than it reads replies blocks the
/// handler on the socket instead of growing the queue.
const REPLY_BACKLOG_MAX: usize = 64 << 10;

enum Slot {
    /// A reply that is already known, encoded.
    Ready(Vec<u8>),
    /// A write whose reply is its ticket's resolution.
    Pending(Arc<Ticket>),
}

/// A connection's in-order completion queue: one slot per unanswered
/// request, in request order. The handler keeps parsing and enqueueing
/// behind pending slots; [`Completions::drain`] turns the queue into reply
/// bytes, so replies leave in request order whatever finished first.
#[derive(Default)]
struct Completions {
    slots: VecDeque<Slot>,
    /// Encoded replies that precede every slot, not yet written.
    out: Vec<u8>,
    /// Reply bytes encoded since the last drain (`out` + `Ready` slots).
    backlog: usize,
}

impl Completions {
    fn push_ready(&mut self, reply: &Reply) {
        self.push_with(|out| encode_reply_into(out, reply));
    }

    /// Queue a reply known now, encoded where it will wait: in the write
    /// buffer itself, or in a slot of its own behind unresolved writes.
    fn push_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        if self.slots.is_empty() {
            let before = self.out.len();
            encode(&mut self.out);
            self.backlog += self.out.len() - before;
        } else {
            let mut bytes = Vec::new();
            encode(&mut bytes);
            self.backlog += bytes.len();
            self.slots.push_back(Slot::Ready(bytes));
        }
    }

    /// The outstanding writes a request must see resolved before it runs:
    /// a `GET`'s own key's, or all of them (`None`). A write to another key
    /// is concurrent with the `GET` — linearizability is per key (DESIGN.md
    /// §8) — and its stripe lock, held from staging to the durability
    /// point, already hides a half-committed group from the read.
    fn wait_set<'a>(&'a self, key: Option<&'a str>) -> impl Iterator<Item = &'a Arc<Ticket>> {
        self.slots.iter().filter_map(move |slot| match slot {
            Slot::Pending(t) if key.is_none_or(|k| k == t.key) => Some(t),
            _ => None,
        })
    }

    /// Block until [`Completions::wait_set`] is resolved — after writing,
    /// as before every wait on an unresolved ticket, the bytes already
    /// encoded: a reply that is ready never sits behind a later commit.
    fn wait(&mut self, shared: &Shared, stream: &mut TcpStream, key: Option<&str>) -> bool {
        if self.wait_set(key).any(|t| !t.is_resolved()) && !self.write_out(stream) {
            return false;
        }
        for ticket in self.wait_set(key) {
            ticket.wait(shared);
        }
        true
    }

    /// Answer everything queued, in request order, with one socket write
    /// (plus one before each wait on an unresolved ticket). A failed ticket
    /// (its shard crashed) answers `Err` but does **not** end the
    /// connection: the other shards are still serving. Returns `false`
    /// only when the connection itself is done for. Counters are NOT
    /// touched here — the committer counts at ticket resolution, so a dead
    /// client socket cannot skew the accounting.
    fn drain(&mut self, shared: &Shared, stream: &mut TcpStream, hist: &mut Histogram) -> bool {
        while let Some(slot) = self.slots.pop_front() {
            let ticket = match slot {
                Slot::Ready(bytes) => {
                    self.out.extend_from_slice(&bytes);
                    continue;
                }
                Slot::Pending(ticket) => ticket,
            };
            if !ticket.is_resolved() && !self.write_out(stream) {
                return false;
            }
            let reply = match ticket.wait(shared) {
                TicketState::Done(true) => {
                    hist.record(ticket.enqueued.elapsed().as_nanos() as u64);
                    Reply::Ok
                }
                TicketState::Done(false) => Reply::NotFound,
                TicketState::Waiting | TicketState::Failed => {
                    Reply::Err("write lost to a crash".into())
                }
            };
            encode_reply_into(&mut self.out, &reply);
        }
        self.backlog = 0;
        self.write_out(stream)
    }

    fn write_out(&mut self, stream: &mut TcpStream) -> bool {
        let ok = self.out.is_empty() || stream.write_all(&self.out).is_ok();
        self.out.clear();
        ok
    }
}

/// Exchange the connect-time hello: send ours, read the client's two
/// bytes (tolerating the read timeout while waiting), check magic +
/// version. Returns `false` when the connection must close — mismatch,
/// socket error, or shutdown arriving before the client's hello (the
/// shutdown self-connect sends nothing, by design).
fn exchange_hello(shared: &Shared, stream: &mut TcpStream) -> bool {
    if stream.write_all(&hello_frame()).is_err() {
        return false;
    }
    let mut theirs = [0u8; 2];
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(5);
    while got < 2 {
        if shared.shutdown.load(Ordering::Acquire) || Instant::now() >= deadline {
            return false;
        }
        match stream.read(&mut theirs[got..]) {
            Ok(0) => return false,
            Ok(n) => got += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return false,
        }
    }
    check_hello(theirs).is_ok()
}

fn handle_conn(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    if !exchange_hello(shared, &mut stream) {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut done = Completions::default();
    let mut hist = Histogram::new();

    'conn: loop {
        // Drain every complete frame already buffered (pipelining).
        let mut consumed = 0;
        loop {
            if done.backlog >= REPLY_BACKLOG_MAX && !done.drain(shared, &mut stream, &mut hist) {
                break 'conn;
            }
            let (req, n) = match parse_frame(&buf[consumed..]) {
                ParseOutcome::Incomplete => break,
                // Unparseable stream: cut the connection — after answering,
                // in order, every request accepted before the garbage.
                ParseOutcome::Malformed(_) => {
                    done.drain(shared, &mut stream, &mut hist);
                    break 'conn;
                }
                ParseOutcome::Frame(req, n) => (req, n),
            };
            consumed += n;
            let op = match req {
                Request::Set(rec) => WriteOp::Set(rec),
                Request::SetField { key, field, value } => WriteOp::SetField { key, field, value },
                Request::Del(key) => WriteOp::Del(key),
                other => {
                    // A GET rides behind this connection's earlier writes
                    // to its own key, so it reads them; every other
                    // non-write request behind all of them.
                    let own_key = match &other {
                        Request::Get(key) => Some(key.as_str()),
                        _ => None,
                    };
                    if !done.wait(shared, &mut stream, own_key) {
                        break 'conn;
                    }
                    let reply = match other {
                        Request::Get(key) => {
                            let shard = &shared.shards[shared.route(&key)];
                            if shard.dead.load(Ordering::Acquire) {
                                // A dead shard's image may hold in-flight
                                // state only recovery may interpret:
                                // refuse reads rather than serve it.
                                Reply::Err("shard crashed".into())
                            } else {
                                // One pass from NVMM to the reply bytes.
                                let grid = &shard.active().grid;
                                done.push_with(|out| {
                                    encode_get_reply(out, |out| grid.read_encoded(&key, out))
                                });
                                continue;
                            }
                        }
                        Request::Len => {
                            match read_in_crash_window(|| {
                                shared
                                    .shards
                                    .iter()
                                    .map(|s| s.active().grid.len() as u64)
                                    .sum::<u64>()
                            }) {
                                Some(total) => Reply::Value(total.to_le_bytes().to_vec()),
                                None => Reply::Err("replica crashed; failing over".into()),
                            }
                        }
                        Request::Stats => Reply::Value(stats_text(shared).into_bytes()),
                        Request::Trace => {
                            Reply::Value(jnvm_obs::trace_text(64).into_bytes())
                        }
                        Request::Metrics => Reply::Value(metrics_text(shared).into_bytes()),
                        Request::Shutdown => {
                            done.push_ready(&Reply::Ok);
                            done.drain(shared, &mut stream, &mut hist);
                            request_shutdown(shared);
                            break 'conn;
                        }
                        // Replication frames belong on the committer ↔
                        // endpoint link, never on a client connection.
                        Request::ReplApply { .. } => {
                            Reply::Err("repl frame on a client connection".into())
                        }
                        Request::Invalid(m) => Reply::Err(m.to_string()),
                        Request::Set(_) | Request::SetField { .. } | Request::Del(_) => {
                            unreachable!("writes handled above")
                        }
                    };
                    done.push_ready(&reply);
                    continue;
                }
            };
            match enqueue(shared, op) {
                Ok(ticket) => done.slots.push_back(Slot::Pending(ticket)),
                Err(msg) => {
                    // Refused before a ticket existed — rejected, not
                    // failed (it never entered the queued population).
                    shared.rejected_writes.fetch_add(1, Ordering::Relaxed);
                    done.push_ready(&Reply::Err(msg.to_string()));
                }
            }
        }
        buf.drain(..consumed);

        // Everything parsed is enqueued; release the replies before
        // blocking on the socket again so single-window clients make
        // progress.
        if !done.drain(shared, &mut stream, &mut hist) {
            break 'conn;
        }

        match stream.read(&mut tmp) {
            Ok(0) => break 'conn,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.all_dead() || shared.shutdown.load(Ordering::Acquire) {
                    break 'conn;
                }
            }
            Err(_) => break 'conn,
        }
    }

    shared
        .latency
        .lock()
        .expect("latency lock")
        .merge(&hist);
}

/// The `METRICS` reply: the obs registry (per-label fence accounting,
/// span totals, latency histograms) plus the server's acked-write count —
/// the two sides of the "one commit-ack sample per acked write"
/// invariant, in one report.
fn metrics_text(shared: &Shared) -> String {
    let mut out = jnvm_obs::metrics_text();
    out.push_str(&format!(
        "acked_writes={}\n",
        shared.acked_writes.load(Ordering::Relaxed)
    ));
    out
}

fn stats_text(shared: &Shared) -> String {
    let s = snapshot(shared);
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut len = 0usize;
    let mut d = StatsSnapshot::default();
    for shard in &shared.shards {
        let unit = shard.active();
        let g = unit.grid.metrics();
        reads += g.reads.load(Ordering::Relaxed);
        writes += g.writes.load(Ordering::Relaxed);
        hits += g.hits.load(Ordering::Relaxed);
        misses += g.misses.load(Ordering::Relaxed);
        if !shard.dead.load(Ordering::Acquire) {
            len += unit.grid.len();
        }
        // Device stats absorb over every replica: replication's fence
        // cost is real and must show up in ordering_points_per_acked.
        for i in 0..shard.set.len() {
            d.absorb(&shard.set.get(i).pmem.stats());
        }
    }
    let lat = shared.latency.lock().expect("latency lock").summary();
    let acked = s.acked_writes.max(1);
    format!(
        "backend={}\nshards={}\nreplicas={}\ndead_shards={}\npromotions={}\ndegraded_shards={}\nlen={}\nreads={}\nwrites={}\nhits={}\nmisses={}\n\
         acked_writes={}\nnacked_writes={}\nfailed_writes={}\nqueued_writes={}\nrejected_writes={}\nacked_after_promotion={}\n\
         repl_sent={}\nrepl_acked={}\nrepl_lag={}\ngroups={}\nbatches={}\nconnections={}\n\
         pwbs={}\npfences={}\npsyncs={}\nordering_points={}\nordering_points_per_acked_write={:.4}\n\
         redundant_pwbs={}\nredundant_fences={}\nsan_violations={}\nack_latency={}\n",
        shared.shards[0].active().be.name(),
        s.shards,
        s.replicas,
        s.dead_shards,
        s.promotions,
        s.degraded_shards,
        len,
        reads,
        writes,
        hits,
        misses,
        s.acked_writes,
        s.nacked_writes,
        s.failed_writes,
        s.queued_writes,
        s.rejected_writes,
        s.acked_after_promotion,
        s.repl_sent,
        s.repl_acked,
        s.repl_sent.saturating_sub(s.repl_acked),
        s.groups,
        s.batches,
        s.connections,
        d.pwbs,
        d.pfences,
        d.psyncs,
        d.ordering_points(),
        d.ordering_points() as f64 / acked as f64,
        d.redundant_pwbs,
        d.redundant_fences,
        d.san_violations,
        lat.display_us(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use jnvm_pmem::PmemConfig;

    /// A read no longer waits for another key's commit — shown on the
    /// queue itself, with tickets no committer will ever resolve: `GET b`
    /// has nothing to wait for, `GET a` exactly the write to `a`, a
    /// barrier (`LEN`, `STATS`, ...) every outstanding write.
    #[test]
    fn a_get_waits_only_for_writes_to_its_own_key() {
        let mut done = Completions::default();
        done.push_ready(&Reply::Ok);
        for key in ["a", "c"] {
            let ticket = Arc::new(Ticket::new(key.into(), 0));
            assert!(!ticket.is_resolved());
            done.slots.push_back(Slot::Pending(ticket));
            done.push_ready(&Reply::NotFound);
        }
        let waits = |key| -> Vec<&str> { done.wait_set(key).map(|t| t.key.as_str()).collect() };
        assert_eq!(waits(Some("b")), [""; 0]);
        assert_eq!(waits(Some("a")), ["a"]);
        assert_eq!(waits(None), ["a", "c"]);
        // The reply ahead of every ticket is already in the write buffer;
        // the two behind them wait their turn in the queue.
        assert_eq!(done.out, crate::proto::encode_reply(&Reply::Ok));
        assert_eq!(done.slots.len(), 4);
    }

    /// No partial frame on a failed read: a `GET` whose in-place encode
    /// finds nothing, or unwinds in the crash window, after it has already
    /// appended payload bytes leaves `out` as it was plus exactly one whole
    /// `NotFound` / `Err` frame; one that succeeds, one `Value` frame.
    #[test]
    fn a_failed_get_leaves_exactly_one_whole_frame() {
        let earlier = crate::proto::encode_reply(&Reply::Ok);
        let frame_after = |read: &dyn Fn(&mut Vec<u8>) -> bool| {
            let mut out = earlier.clone();
            encode_get_reply(&mut out, read);
            assert_eq!(out[..earlier.len()], earlier[..], "earlier replies moved");
            let (reply, n) = parse_reply(&out[earlier.len()..]).unwrap().expect("a whole frame");
            assert_eq!(earlier.len() + n, out.len(), "bytes behind the frame");
            reply
        };
        let append = |out: &mut Vec<u8>| out.extend_from_slice(&[0xAB; 300]);
        assert_eq!(
            frame_after(&|out| {
                append(out);
                false
            }),
            Reply::NotFound
        );
        assert_eq!(
            frame_after(&|out| {
                append(out);
                panic!("replica froze mid-encode")
            }),
            Reply::Err("replica crashed; failing over".into())
        );
        assert_eq!(
            frame_after(&|out| {
                append(out);
                true
            }),
            Reply::Value(vec![0xAB; 300])
        );
    }

    /// The acceptor reaps finished handler threads as new connections
    /// arrive: 200 connections opened and closed must not leave 200 join
    /// handles behind, and shutdown still joins whatever is left.
    #[test]
    fn acceptor_reaps_finished_handlers() {
        let cluster = Cluster::create(1, 1, 4, PmemConfig::crash_sim(8 << 20), true).unwrap();
        let server = cluster.start(ServerConfig::default()).unwrap();
        let open_and_close = || {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            crate::proto::handshake(&mut s).expect("hello");
        };
        for _ in 0..200 {
            open_and_close();
        }
        // Handlers exit asynchronously after their client hangs up; each
        // further connection gives the acceptor one more reaping pass.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            open_and_close();
            let live = server.handlers.lock().unwrap().len();
            if live <= 4 {
                break;
            }
            assert!(Instant::now() < deadline, "{live} handles never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        let connections = server.stats().connections;
        assert!(connections > 200, "connections counter: {connections}");
        server.shutdown();
    }
}

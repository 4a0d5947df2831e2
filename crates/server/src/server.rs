//! The server: acceptor + per-connection handler threads + one group
//! committer **per pool shard**, each shard optionally backed by a
//! replica set (`jnvm-repl`).
//!
//! ## Sharded write path and the ack barrier
//!
//! The server runs over N independent pool shards (grid + backend +
//! device each; see [`jnvm_kvstore::ShardedKv`]). Connection handlers
//! never touch the persistent devices for writes: they decode ops and send
//! each, routed by key hash ([`jnvm_kvstore::shard_for_key`]), down its
//! shard's queue. Who answers a write is settled by who owns what:
//!
//! * The queue is a **bounded channel**. Every handler holds a clone of
//!   each shard's sender, the server one of its own, the shard's committer
//!   the only receiver. `send` blocks while the queue is full
//!   (backpressure) and fails once the receiver is gone — the refusal: an
//!   op no queue took has no ticket.
//! * A queued op travels with its **`Resolver`**, the one value that can
//!   answer the *ticket* its handler waits on. Resolving consumes it;
//!   dropped unresolved, it fails the ticket. A failed batch is a dropped
//!   batch, an abandoned queue a dropped receiver, and a committer that
//!   unwinds for a reason nobody planned still answers all it held.
//! * The committer's **replication link** (stream + backup endpoint
//!   thread) is its local, made before the thread: nobody else can close,
//!   read or join it.
//!
//! A committer takes one blocking `recv` plus whatever else is queued, up
//! to `batch_max`, runs [`jnvm_kvstore::commit_writes`] against its own
//! backend (group commit: 4 fences per group, not per op — the applies
//! are durable before the log retires) and resolves the batch only after
//! that call returns — i.e. after the group durability point *and* the
//! apply phase, so a GET that waited for the ticket reads the write; N
//! shards run N fence passes concurrently. Shutdown is a flag plus dropped
//! senders (the server's at the request, a handler's as it leaves), so a
//! committer's `recv` fails exactly when its queue is empty and no
//! producer can exist.
//!
//! Handlers release replies strictly in request order from a
//! per-connection completion queue (`Completions`): a write's slot when
//! its ticket resolves, a read's at once — a GET executes inline after
//! this connection's earlier writes **to its own key** have resolved, and
//! is concurrent with its unacknowledged writes to other keys (DESIGN.md
//! §8), so a read neither waits out a commit it does not depend on nor
//! cuts the connection's commit group short. Replies are written once per
//! drain, not per reply.
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
//! `queued` counts the ops a queue accepted, `rejected` the ones `enqueue`
//! refused (dead shard, shutdown, committer gone). An accepted op's
//! resolver answers exactly once — `acked` / `nacked` in
//! `Resolver::resolve`, `failed` in its `Drop`, counted *before* the
//! waiter wakes and never at reply flush (a send failure must not lose
//! counts) — and cannot leave the process any other way. So `queued ==
//! acked + nacked + failed` whenever the load has drained, on every exit
//! path: graceful shutdown, failover, shard death (`kill_during_traffic`
//! checks it at every crash point) or a committer that just unwinds.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jnvm::ReplicaSet;
use jnvm_kvstore::{
    commit_writes, shard_for_key, Backend, DataGrid, JnvmBackend, KvShard, ReplLag, WriteOp,
};
use jnvm_pmem::{catch_crash, hush_panics, thread_charged_ns, Pmem, StatsSnapshot};

use crate::proto::{
    check_hello, close_value_reply, encode_repl_apply, encode_reply_into, hello_frame,
    open_value_reply, parse_frame, read_reply, ParseOutcome, Reply, Request,
};
use crate::repl::start_backup_endpoint;

/// Server tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum ops a committer drains into one batch.
    pub batch_max: usize,
    /// Per-shard bounded-queue capacity; producers block (backpressure)
    /// beyond it (0 = every op is handed to the committer directly).
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketState {
    Waiting,
    /// Committed and durable; `true` = applied, `false` = target absent.
    Done(bool),
    /// The shard died before this op's durability point.
    Failed,
}

/// The handler half of one enqueued write; its [`Resolver`] answers it.
struct Ticket {
    /// The key written: a later `GET` of it on the connection waits.
    key: String,
    /// When the op entered its shard queue — the base of the commit-ack
    /// latency recorded into the obs registry at resolution.
    enqueued: Instant,
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl Ticket {
    fn new(key: String) -> Ticket {
        Ticket {
            key,
            enqueued: Instant::now(),
            state: Mutex::new(TicketState::Waiting),
            cv: Condvar::new(),
        }
    }

    /// The resolver's call. It runs from a `Drop`, which must not panic: a
    /// poisoned lock still guards a valid state (only stores happen under it).
    fn resolve(&self, s: TicketState) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = s;
        self.cv.notify_all();
    }

    fn is_resolved(&self) -> bool {
        *self.state.lock().expect("ticket lock") != TicketState::Waiting
    }

    /// Block until resolved. Untimed: the resolver sits in a queue or a
    /// batch until it answers, by `resolve` or by `Drop`.
    fn wait(&self) -> TicketState {
        let mut st = self.state.lock().expect("ticket lock");
        while *st == TicketState::Waiting {
            st = self.cv.wait(st).expect("ticket wait");
        }
        *st
    }
}

/// The committer half of a ticket and the only value that can answer it:
/// consumed by [`Resolver::resolve`], or — dropped in a failed batch, an
/// abandoned queue, an unwinding committer — failing it from `Drop`.
/// Either way the write is counted, then its waiter woken, once.
struct Resolver {
    /// `None` once answered, or when the queue refused the op.
    ticket: Option<Arc<Ticket>>,
    shared: Arc<Shared>,
}

impl Resolver {
    /// Committed and durable (`ok`: applied, else target absent): count it,
    /// then wake the waiter.
    fn resolve(mut self, ok: bool) {
        let ticket = self.ticket.take().expect("answered only here");
        if ok {
            self.shared.acked_writes.fetch_add(1, Ordering::Relaxed);
            // Exactly one registry sample per acked write, recorded at the
            // same place the counter moves — the obs-invariant suite holds
            // `acked_writes == hist("commit-ack").count` to the digit.
            jnvm_obs::record_latency("commit-ack", ticket.enqueued.elapsed().as_nanos() as u64);
        } else {
            self.shared.nacked_writes.fetch_add(1, Ordering::Relaxed);
        }
        ticket.resolve(TicketState::Done(ok));
    }
}

impl Drop for Resolver {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            self.shared.failed_writes.fetch_add(1, Ordering::Relaxed);
            ticket.resolve(TicketState::Failed);
        }
    }
}

/// What travels down a shard's queue.
type Queued = (WriteOp, Resolver);

/// A committer's replication link — the stream to its shard's backup
/// endpoint, and that endpoint's thread — or `None` when the shard is solo.
type Link = Option<(TcpStream, JoinHandle<()>)>;

/// Per-shard serving state everyone may read; the queue's receiver and the
/// replication link are not here — they are the committer's own. Each
/// shard's committer owns exactly this shard — the footprint-disjointness
/// the FA group commit asserts holds trivially across shards because their
/// devices are disjoint.
struct ShardState {
    set: ReplicaSet<ShardHandle>,
    /// Replication-lag watermark (groups sent vs. backup durability point).
    lag: ReplLag,
    /// This shard's write path died with no replica left to serve: reads
    /// of its image are refused, and writes early (`send` refuses the rest).
    dead: AtomicBool,
    groups: AtomicU64,
    batches: AtomicU64,
    /// Modeled device nanoseconds charged to this shard's committer
    /// thread ([`jnvm_pmem::thread_charged_ns`]), updated after every
    /// batch — the commit critical path of this shard.
    charged_ns: AtomicU64,
}

#[derive(Default)]
struct Shared {
    cfg: ServerConfig,
    shards: Vec<ShardState>,
    /// The server's own sender of every shard queue, in shard order: cloned
    /// for each connection, dropped (`None`) when shutdown is requested.
    queues: Mutex<Option<Vec<SyncSender<Queued>>>>,
    shutdown: AtomicBool,
    acked_writes: AtomicU64,
    nacked_writes: AtomicU64,
    failed_writes: AtomicU64,
    queued_writes: AtomicU64,
    rejected_writes: AtomicU64,
    acked_after_promotion: AtomicU64,
    connections: AtomicU64,
}

impl Shared {
    fn route(&self, key: &str) -> usize {
        shard_for_key(key, self.shards.len())
    }

    fn all_dead(&self) -> bool {
        self.shards.iter().all(|s| s.dead.load(Ordering::Acquire))
    }
}

/// A running server. Dropping it without [`Server::shutdown`] leaks the
/// listener thread until process exit; tests always call `shutdown`.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
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
        let mut states = Vec::with_capacity(shards.len());
        let mut queues = Vec::with_capacity(shards.len());
        let mut seats = Vec::with_capacity(shards.len());
        for replicas in shards {
            // A committer's own: the receiver of its shard's queue and the
            // replication link, which exists before the thread it goes to.
            let link = replicas
                .get(1)
                .map(|b| start_backup_endpoint(Arc::clone(&b.grid), Arc::clone(&b.be)))
                .transpose()?;
            let (tx, rx) = sync_channel(cfg.queue_cap);
            queues.push(tx);
            seats.push((rx, link));
            states.push(ShardState {
                set: ReplicaSet::new(replicas),
                lag: ReplLag::new(),
                dead: AtomicBool::new(false),
                groups: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                charged_ns: AtomicU64::new(0),
            });
        }
        let shared = Arc::new(Shared {
            cfg,
            shards: states,
            queues: Mutex::new(Some(queues)),
            ..Shared::default()
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let committers = seats
            .into_iter()
            .enumerate()
            .map(|(si, (rx, link))| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || committer_loop(&shared, si, rx, link))
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
            acceptor,
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
    /// or failed, never silently dropped), join every thread — a committer
    /// leaves when its queue is empty and senderless, closing its
    /// replication link, which shuts the backup endpoint down in turn.
    pub fn shutdown(self) {
        request_shutdown(&self.shared);
        // Unblock the acceptor's blocking accept(). No hello follows: the
        // handler's hello-read loop exits on the shutdown flag.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        for h in self.handlers.lock().expect("handlers lock").drain(..) {
            let _ = h.join();
        }
        for c in self.committers {
            let _ = c.join();
        }
    }
}

/// The flag makes handlers refuse writes and leave, dropping their senders;
/// with the server's own dropped too, each drained committer's `recv` fails.
fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::Release);
    drop(shared.queues.lock().expect("queues lock").take());
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
        // Its own sender of every queue, unless shutdown took the server's.
        let Some(queues) = shared.queues.lock().expect("queues lock").clone() else {
            break;
        };
        let Ok(stream) = stream else { continue };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let h = std::thread::spawn(move || {
            // Handlers wrap their own device reads in catch_crash and
            // answer Err, so a crash should never unwind to here — this
            // catch is a conservative backstop against a non-crash panic
            // stranding the server. A crash that does reach it cannot be
            // attributed to one shard: mark them all dead.
            if catch_crash(|| handle_conn(&shared, &queues, stream)).is_err() {
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

/// Close the replication link and join the backup endpoint thread. TCP
/// delivers everything written before the close, so the join returns only
/// after the endpoint has applied every streamed group and exited — after
/// this, the caller is the backup stack's only writer. Idempotent; safe
/// whether the endpoint already exited (backup crash) or is still draining.
fn quiesce_link(link: &mut Link) {
    if let Some((stream, endpoint)) = link.take() {
        drop(stream);
        let _ = endpoint.join();
    }
}

/// Stream the batch to the shard's backup endpoint, chunked into
/// `REPL_APPLY` frames. Returns the last sequence number to await, or
/// `None` when the shard runs solo. A send failure means the backup is
/// gone: degrade in place and commit solo from now on.
fn stream_to_backup(shard: &ShardState, link: &mut Link, ops: &[WriteOp]) -> Option<u64> {
    let (stream, _) = link.as_mut()?;
    let frames = encode_repl_apply(ops, || shard.lag.next_seq());
    let last_seq = frames.last().map(|(_, seq)| *seq)?;
    for (frame, _) in &frames {
        if stream.write_all(frame).is_err() {
            degrade_backup(shard, link);
            return None;
        }
    }
    Some(last_seq)
}

/// Wait for the backup's durability point to reach `target` (acks are
/// cumulative: one may cover several chunks). Anything but a `REPL_ACK`
/// within [`read_reply`]'s 10 s — EOF, an error, silence — means the backup
/// died mid-batch: degrade, and ack the group off the primary, which holds it.
fn wait_for_backup(shard: &ShardState, link: &mut Link, target: u64) {
    let mut rbuf = Vec::new();
    while shard.lag.acked() < target {
        let Some((stream, _)) = link else { return };
        match read_reply(stream, &mut rbuf) {
            Ok(Some(Reply::ReplAck(seq))) => shard.lag.record_acked(seq),
            _ => return degrade_backup(shard, link),
        }
    }
}

/// Backup-side failure: drop the link, join the endpoint, mark the set
/// degraded. The primary keeps serving solo — nothing acked is lost,
/// because acks were always gated on the *primary's* durability too.
fn degrade_backup(shard: &ShardState, link: &mut Link) {
    quiesce_link(link);
    shard.set.degrade();
}

/// One shard's committer. It owns the queue's receiver, the replication
/// link and every resolver it took off the queue: whichever way it leaves,
/// what it still holds is dropped, which fails those tickets.
fn committer_loop(shared: &Arc<Shared>, si: usize, rx: Receiver<Queued>, mut link: Link) {
    let shard = &shared.shards[si];
    // `recv` fails only on an empty queue whose every sender is gone:
    // shutdown was requested and the last handler has left.
    while let Ok(first) = rx.recv() {
        // Everything queued, up to `batch_max`, split as taken: the ops go
        // to the backup stream and the commit, the resolvers wait beside.
        let more = rx.try_iter().take(shared.cfg.batch_max.saturating_sub(1));
        let (ops, batch): (Vec<_>, Vec<_>) = std::iter::once(first).chain(more).unzip();
        debug_assert!(
            ops.iter().all(|op| shared.route(op.key()) == si),
            "op routed to the wrong shard's committer"
        );
        // Hand the group to the backup *before* the primary's commit: the
        // backup applies concurrently (latency = max of the two passes)
        // and its state stays a superset-prefix of the primary's at every
        // primary crash point.
        let obs_send = jnvm_obs::span_begin();
        let ack_target = stream_to_backup(shard, &mut link, &ops);
        if ack_target.is_some() {
            jnvm_obs::span_end(jnvm_obs::SpanKind::ReplSend, obs_send);
        }
        let active = shard.set.active();
        match catch_crash(|| commit_writes(&active.grid, &active.be, &ops)) {
            Ok(out) => {
                if let Some(target) = ack_target {
                    let obs_ack = jnvm_obs::span_begin();
                    wait_for_backup(shard, &mut link, target);
                    jnvm_obs::span_end(jnvm_obs::SpanKind::ReplAck, obs_ack);
                }
                // The group durability point (on every live replica) is
                // behind us: release acks.
                shard.groups.fetch_add(out.groups as u64, Ordering::Relaxed);
                shard.batches.fetch_add(1, Ordering::Relaxed);
                shard
                    .charged_ns
                    .store(thread_charged_ns(), Ordering::Release);
                if shard.set.promotions() > 0 {
                    let n = out.results.iter().filter(|ok| **ok).count() as u64;
                    shared.acked_after_promotion.fetch_add(n, Ordering::Relaxed);
                }
                for (resolver, ok) in batch.into_iter().zip(out.results) {
                    resolver.resolve(ok);
                }
            }
            // Power failed mid-batch on the active device: nothing here
            // reached its durability point as a group — ack none of it.
            Err(_) if shard.set.backup().is_none() => {
                // No redundancy left: only this shard goes down (no other
                // committer touches this device). Its image is refused to
                // reads; batch and queue fail as they drop, `send` refuses.
                shard.dead.store(true, Ordering::Release);
                break;
            }
            Err(_) => {
                // Failover: fail the batch and everything queued behind it,
                // quiesce the link (the endpoint applies what was streamed
                // and exits; the join makes this committer the backup's only
                // writer), promote, keep serving on it alone.
                drop(batch);
                rx.try_iter().for_each(drop);
                quiesce_link(&mut link);
                shard.set.promote();
            }
        }
    }
    // Shutdown or death: close the link so the backup endpoint exits too.
    quiesce_link(&mut link);
}

/// Enqueue a write on its shard, blocking in `send` while that queue is
/// full (backpressure). Returns the op's ticket, or the counted (`rejected`)
/// refusal of an op no queue took: no ticket then, so never `failed`.
fn enqueue(
    shared: &Arc<Shared>,
    queues: &[SyncSender<Queued>],
    op: WriteOp,
) -> Result<Arc<Ticket>, &'static str> {
    let si = shared.route(op.key());
    let refusal = if shared.shards[si].dead.load(Ordering::Acquire) {
        "shard crashed"
    } else if shared.shutdown.load(Ordering::Acquire) {
        "server shutting down"
    } else {
        let ticket = Arc::new(Ticket::new(op.key().to_string()));
        let resolver = Resolver {
            ticket: Some(Arc::clone(&ticket)),
            shared: Arc::clone(shared),
        };
        match queues[si].send((op, resolver)) {
            Ok(()) => {
                shared.queued_writes.fetch_add(1, Ordering::Relaxed);
                return Ok(ticket);
            }
            // The receiver is gone — the shard died, or its committer unwound.
            Err(SendError((_, mut unsent))) => unsent.ticket = None,
        }
        "shard crashed"
    };
    shared.rejected_writes.fetch_add(1, Ordering::Relaxed);
    Err(refusal)
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
    fn wait(&mut self, stream: &mut TcpStream, key: Option<&str>) -> bool {
        if self.wait_set(key).any(|t| !t.is_resolved()) && !self.write_out(stream) {
            return false;
        }
        for ticket in self.wait_set(key) {
            ticket.wait();
        }
        true
    }

    /// Answer everything queued, in request order, with one socket write
    /// (plus one before each wait on an unresolved ticket). A failed ticket
    /// (its shard crashed) answers `Err` but does **not** end the
    /// connection: the other shards are still serving. Returns `false`
    /// only when the connection itself is done for. Counters are NOT
    /// touched here — the resolver counts as it answers the ticket, so a
    /// dead client socket cannot skew the accounting.
    fn drain(&mut self, stream: &mut TcpStream) -> bool {
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
            let reply = match ticket.wait() {
                TicketState::Done(true) => Reply::Ok,
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

fn handle_conn(shared: &Arc<Shared>, queues: &[SyncSender<Queued>], mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    if !exchange_hello(shared, &mut stream) {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 16 * 1024];
    let mut done = Completions::default();

    'conn: loop {
        // Drain every complete frame already buffered (pipelining).
        let mut consumed = 0;
        loop {
            if done.backlog >= REPLY_BACKLOG_MAX && !done.drain(&mut stream) {
                break 'conn;
            }
            let (req, n) = match parse_frame(&buf[consumed..]) {
                ParseOutcome::Incomplete => break,
                // Unparseable stream: cut the connection — after answering,
                // in order, every request accepted before the garbage.
                ParseOutcome::Malformed(_) => {
                    done.drain(&mut stream);
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
                    if !done.wait(&mut stream, own_key) {
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
                                let grid = &shard.set.active().grid;
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
                                    .map(|s| s.set.active().grid.len() as u64)
                                    .sum::<u64>()
                            }) {
                                Some(total) => Reply::Value(total.to_le_bytes().to_vec()),
                                None => Reply::Err("replica crashed; failing over".into()),
                            }
                        }
                        Request::Stats => Reply::Value(stats_text(shared).into_bytes()),
                        Request::Trace => Reply::Value(jnvm_obs::trace_text(64).into_bytes()),
                        Request::Metrics => Reply::Value(metrics_text(shared).into_bytes()),
                        Request::Shutdown => {
                            done.push_ready(&Reply::Ok);
                            done.drain(&mut stream);
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
            match enqueue(shared, queues, op) {
                Ok(ticket) => done.slots.push_back(Slot::Pending(ticket)),
                Err(why) => done.push_ready(&Reply::Err(why.to_string())),
            }
        }
        buf.drain(..consumed);

        // Everything parsed is enqueued; release the replies before
        // blocking on the socket again so single-window clients make
        // progress.
        if !done.drain(&mut stream) {
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

/// The `STATS` reply. `ack_latency=` is the obs registry's `commit-ack`
/// summary (the one ack histogram), so it reads zero while `JNVM_OBS=off`.
fn stats_text(shared: &Shared) -> String {
    let s = snapshot(shared);
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut len = 0usize;
    let mut d = StatsSnapshot::default();
    for shard in &shared.shards {
        let unit = shard.set.active();
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
    let obs = jnvm_obs::metrics_snapshot();
    let lat = obs.hist_summary("commit-ack").unwrap_or_default();
    let acked = s.acked_writes.max(1);
    format!(
        "backend={}\nshards={}\nreplicas={}\ndead_shards={}\npromotions={}\ndegraded_shards={}\nlen={}\nreads={}\nwrites={}\nhits={}\nmisses={}\n\
         acked_writes={}\nnacked_writes={}\nfailed_writes={}\nqueued_writes={}\nrejected_writes={}\nacked_after_promotion={}\n\
         repl_sent={}\nrepl_acked={}\nrepl_lag={}\ngroups={}\nbatches={}\nconnections={}\n\
         pwbs={}\npfences={}\npsyncs={}\nordering_points={}\nordering_points_per_acked_write={:.4}\n\
         redundant_pwbs={}\nredundant_fences={}\nsan_violations={}\nack_latency={}\n",
        shared.shards[0].set.active().be.name(),
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
    use crate::proto::parse_reply;
    use jnvm_pmem::PmemConfig;

    /// A 1 × 1 server and, beside it, a shard queue of the test's own:
    /// `enqueue` takes the senders it is given, so the test produces into
    /// that queue and plays its committer with the receiver (the server's
    /// real committer idles on the real one).
    fn hand_off(queue_cap: usize) -> (Cluster, Server, [SyncSender<Queued>; 1], Receiver<Queued>) {
        let cluster = Cluster::create(1, 1, 4, PmemConfig::crash_sim(8 << 20), true).unwrap();
        let server = cluster.start(ServerConfig::default()).unwrap();
        let (tx, rx) = sync_channel(queue_cap);
        (cluster, server, [tx], rx)
    }

    fn del(key: &str) -> WriteOp {
        WriteOp::Del(key.into())
    }

    /// `(queued, acked, nacked, failed, rejected)`.
    fn counts(shared: &Shared) -> (u64, u64, u64, u64, u64) {
        let s = snapshot(shared);
        (
            s.queued_writes,
            s.acked_writes,
            s.nacked_writes,
            s.failed_writes,
            s.rejected_writes,
        )
    }

    /// The resolver contract: dropped unresolved it wakes its waiter with
    /// `Failed` and counts one failed write; resolved (and then dropped, as
    /// `resolve` consumes it) it counts once as acked or nacked and never
    /// as failed.
    #[test]
    fn a_resolver_answers_and_counts_its_ticket_exactly_once() {
        let (_cluster, server, queues, rx) = hand_off(8);
        let shared = &server.shared;
        let mut waiters = Vec::new();
        for key in ["dropped", "applied", "absent"] {
            let ticket = enqueue(shared, &queues, del(key)).unwrap();
            waiters.push(std::thread::spawn(move || ticket.wait()));
        }
        assert_eq!(counts(shared), (3, 0, 0, 0, 0));
        let mut resolvers = rx.try_iter().map(|(_, resolver)| resolver);
        drop(resolvers.next().unwrap());
        assert_eq!(counts(shared), (3, 0, 0, 1, 0));
        resolvers.next().unwrap().resolve(true);
        resolvers.next().unwrap().resolve(false);
        assert_eq!(counts(shared), (3, 1, 1, 1, 0));
        let woken: Vec<TicketState> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        use TicketState::{Done, Failed};
        assert_eq!(woken, [Failed, Done(true), Done(false)]);
        server.shutdown();
    }

    /// Backpressure meets a dying shard: with a one-slot queue that is
    /// full, a second producer parks in `send`; when the receiver goes it
    /// is refused — rejected, never queued, no ticket — and the op that
    /// *was* queued fails with the receiver.
    #[test]
    fn a_producer_parked_on_a_full_queue_is_refused_when_the_receiver_goes() {
        let (_cluster, server, queues, rx) = hand_off(1);
        let shared = &server.shared;
        let queued = enqueue(shared, &queues, del("fills-the-queue")).unwrap();
        let gate = std::sync::Barrier::new(2);
        let refusal = std::thread::scope(|s| {
            let parked = s.spawn(|| {
                gate.wait();
                enqueue(shared, &queues, del("one-too-many")).err()
            });
            gate.wait();
            // Give the producer the core so that it is parked in `send`
            // when the receiver goes; arriving a moment after, it meets a
            // disconnected queue and must be refused just the same.
            for _ in 0..1000 {
                std::thread::yield_now();
            }
            drop(rx);
            parked.join().unwrap()
        });
        assert_eq!(refusal, Some("shard crashed"));
        assert_eq!(queued.wait(), TicketState::Failed);
        assert_eq!(counts(shared), (1, 0, 0, 1, 1));
        server.shutdown();
    }

    /// The exit nobody planned: a committer that takes a batch, answers
    /// half of it and unwinds — batch, receiver and all, two more ops still
    /// queued — leaves no waiter blocked and the accounting identity
    /// intact; producers that come later are refused.
    #[test]
    fn a_committer_that_unwinds_strands_no_waiter() {
        let (_cluster, server, queues, rx) = hand_off(8);
        let shared = &server.shared;
        let tickets: Vec<Arc<Ticket>> = (0..6)
            .map(|i| enqueue(shared, &queues, del(&format!("k{i}"))).unwrap())
            .collect();
        let committer = std::thread::spawn(move || {
            let mut batch: Vec<Queued> = rx.try_iter().take(4).collect();
            for (_, resolver) in batch.drain(..2) {
                resolver.resolve(true);
            }
            // An unwind without the panic hook's message.
            std::panic::resume_unwind(Box::new("committer gone"));
        });
        assert!(committer.join().is_err());
        assert!(tickets.iter().all(|t| t.is_resolved()), "stranded waiter");
        let answers: Vec<TicketState> = tickets.iter().map(|t| t.wait()).collect();
        assert_eq!(answers[..2], [TicketState::Done(true); 2]);
        assert_eq!(answers[2..], [TicketState::Failed; 4]);
        let late = enqueue(shared, &queues, del("late"));
        assert_eq!(late.err(), Some("shard crashed"));
        assert_eq!(counts(shared), (6, 2, 0, 4, 1));
        server.shutdown();
    }

    /// A read no longer waits for another key's commit — shown on the
    /// queue itself, with tickets no committer will ever resolve: `GET b`
    /// has nothing to wait for, `GET a` exactly the write to `a`, a
    /// barrier (`LEN`, `STATS`, ...) every outstanding write.
    #[test]
    fn a_get_waits_only_for_writes_to_its_own_key() {
        let mut done = Completions::default();
        done.push_ready(&Reply::Ok);
        for key in ["a", "c"] {
            let ticket = Arc::new(Ticket::new(key.into()));
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
            let (reply, n) = parse_reply(&out[earlier.len()..])
                .unwrap()
                .expect("a whole frame");
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

//! `jnvm-repl`: one shard's replicated commit, and the in-process backup
//! endpoint it streams to.
//!
//! ## The replicated commit: stream → commit → ack → failover
//!
//! A shard is `[primary]` or `[primary, backup]`: full stacks on
//! independent devices, held by one [`Replicas`]. Its committer — the
//! server's, or the in-process kill driver's — owns the shard's [`Link`] to
//! the backup endpoint and commits every batch through
//! [`Replicas::commit`], the only place that streams, waits for acks,
//! promotes or degrades:
//!
//! 1. **stream** the batch to the backup as `REPL_APPLY` frames *before*
//!    the active stack's commit. The backup applies concurrently (latency
//!    = max of the two passes, not their sum), and its applied state is a
//!    superset-prefix of the primary's at every primary crash point —
//!    which is what makes failover safe;
//! 2. **commit** on the active stack ([`commit_writes`]) under
//!    [`catch_crash`];
//! 3. **ack**: wait for the backup's cumulative `REPL_ACK`, so an
//!    [`Committed::Acked`] batch is durable on every live replica;
//! 4. **failover**: an injected crash on the active device closes the link
//!    (the endpoint applies what was streamed and exits; joining it makes
//!    the committer the backup's only writer), promotes the backup and
//!    reports [`Committed::FailedOver`]. With no redundancy left the shard
//!    is [`Committed::Dead`]. A backup that stops acking — a closed link, an
//!    error, 10 s of silence — degrades the shard: the batch is acked off
//!    the primary, which holds it, and the primary runs solo from then on.
//!
//! Both transitions are one-way: re-attaching a replica is re-creation.
//!
//! ## The backup endpoint
//!
//! The committer is the endpoint's only peer: it connects once over
//! loopback, the two sides exchange the protocol hello, and from then on
//! the link carries only `REPL_APPLY` frames downstream and `REPL_ACK`
//! replies upstream. The endpoint applies each group with its *own*
//! [`commit_writes`] pass — its own 4 fences (the applies are durable
//! before the log retires), on its own thread, against its own device
//! (persistence domains are per thread, so the backup's durability point
//! belongs to this thread's fences) — and acks the group's sequence number
//! only after that call returns. An ack therefore means *durable on the
//! backup*.
//!
//! Exit conditions, all silent closes of the link:
//!
//! * **EOF** — the committer closed its [`Link`] (shutdown, degrade or
//!   promotion). TCP delivers everything written before the close, so by
//!   the time `read` returns 0 every streamed group has been applied.
//! * **injected crash** — the backup's device froze mid-apply. The
//!   endpoint stops acking and closes; the committer degrades.
//! * **malformed frame / non-REPL frame** — the link is corrupt; close.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use jnvm_kvstore::{commit_writes, BatchOutcome, DataGrid, JnvmBackend, ReplLag, WriteOp};
use jnvm_obs::{span_begin, span_end, SpanKind};
use jnvm_pmem::catch_crash;

use crate::proto::{
    encode_repl_apply, encode_reply, handshake, parse_frame, read_reply, ParseOutcome, Reply,
    Request,
};
use crate::server::ShardHandle;

/// One shard's replica stacks and failover state. Index 0 starts active;
/// the one promotion there can be moves it to the backup, index 1.
pub struct Replicas {
    stacks: Vec<ShardHandle>,
    active: AtomicUsize,
    /// No redundancy left: solo from birth, after a promotion, or after the
    /// backup was lost.
    degraded: AtomicBool,
    lag: ReplLag,
}

/// How a batch left [`Replicas::commit`].
pub enum Committed {
    /// Durable on every live replica; the active stack's per-op results.
    Acked(BatchOutcome),
    /// The active device crashed mid-batch and the backup now serves. None
    /// of the batch is acked; the backup may hold it.
    FailedOver,
    /// The active device crashed with no replica left: the shard is dead.
    Dead,
}

/// A committer's replication link: the stream to its shard's backup
/// endpoint and that endpoint's thread, or nothing once the shard runs
/// solo. Dropping it closes the stream and joins the endpoint, which exits
/// only after applying every group streamed before the close.
pub struct Link(Option<(TcpStream, JoinHandle<()>)>);

impl Link {
    fn close(&mut self) {
        if let Some((stream, endpoint)) = self.0.take() {
            drop(stream);
            let _ = endpoint.join();
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.close();
    }
}

impl Replicas {
    /// Wrap a shard's `[primary]` or `[primary, backup]` stacks. A lone
    /// primary is born degraded.
    ///
    /// # Panics
    ///
    /// Panics on any other count of stacks.
    pub fn new(stacks: Vec<ShardHandle>) -> Replicas {
        assert!(
            (1..=2).contains(&stacks.len()),
            "each shard takes one primary and at most one backup"
        );
        Replicas {
            degraded: AtomicBool::new(stacks.len() < 2),
            stacks,
            active: AtomicUsize::new(0),
            lag: ReplLag::new(),
        }
    }

    /// Spawn the backup's endpoint and connect to it (hello exchanged), or
    /// an empty link when the shard runs solo. Call once, before the first
    /// commit.
    pub fn connect(&self) -> io::Result<Link> {
        let Some(b) = self.stacks.get(1).filter(|_| !self.is_degraded()) else {
            return Ok(Link(None));
        };
        let (grid, be) = (Arc::clone(&b.grid), Arc::clone(&b.be));
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let endpoint = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let _ = conn.set_nodelay(true);
            // Blocking reads: the endpoint's only wake-up signals are
            // frames and the committer closing the link.
            if handshake(&mut conn).is_ok() {
                endpoint_loop(&mut conn, &grid, &be);
            }
        });
        // From here on a failure drops the link, which joins the endpoint.
        let mut link = Link(Some((TcpStream::connect(addr)?, endpoint)));
        let (stream, _) = link.0.as_mut().expect("just made");
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        handshake(stream)?;
        Ok(link)
    }

    /// Commit `ops` on the shard: stream them to the backup, commit on the
    /// active stack, await the backup's ack — then promote, degrade or
    /// report the shard dead as the module doc sets out. `link` is the one
    /// [`Replicas::connect`] made.
    pub fn commit(&self, link: &mut Link, ops: &[WriteOp]) -> Committed {
        let sent = span_begin();
        let target = self.stream(link, ops);
        if target.is_some() {
            span_end(SpanKind::ReplSend, sent);
        }
        let active = self.active();
        match catch_crash(|| commit_writes(&active.grid, &active.be, ops)) {
            Ok(out) => {
                if let Some(target) = target {
                    let acked = span_begin();
                    self.await_ack(link, target);
                    span_end(SpanKind::ReplAck, acked);
                }
                Committed::Acked(out)
            }
            Err(_) if self.is_degraded() => Committed::Dead,
            Err(_) => {
                link.close();
                self.active.store(1, Ordering::Release);
                self.degraded.store(true, Ordering::Release);
                Committed::FailedOver
            }
        }
    }

    /// Stream the batch as `REPL_APPLY` frames; the last frame's sequence
    /// number is the ack to await, `None` when the shard runs solo or the
    /// send failed (the backup is gone: degrade).
    fn stream(&self, link: &mut Link, ops: &[WriteOp]) -> Option<u64> {
        let (stream, _) = link.0.as_mut()?;
        let frames = encode_repl_apply(ops, || self.lag.next_seq());
        if frames
            .iter()
            .any(|(frame, _)| stream.write_all(frame).is_err())
        {
            self.degrade(link);
            return None;
        }
        frames.last().map(|(_, seq)| *seq)
    }

    /// Wait for the backup's durability point to reach `target` (acks are
    /// cumulative: one may cover several frames). Anything but a `REPL_ACK`
    /// means the backup died mid-batch: degrade.
    fn await_ack(&self, link: &mut Link, target: u64) {
        let mut rbuf = Vec::new();
        while self.lag.acked() < target {
            let Some((stream, _)) = link.0.as_mut() else {
                return;
            };
            match read_reply(stream, &mut rbuf) {
                Ok(Some(Reply::ReplAck(seq))) => self.lag.record_acked(seq),
                _ => self.degrade(link),
            }
        }
    }

    fn degrade(&self, link: &mut Link) {
        link.close();
        self.degraded.store(true, Ordering::Release);
    }

    /// The stack serving now.
    pub fn active(&self) -> &ShardHandle {
        &self.stacks[self.active.load(Ordering::Acquire)]
    }

    /// Every stack, primary first; a crashed one stays inspectable.
    pub fn stacks(&self) -> &[ShardHandle] {
        &self.stacks
    }

    /// Backups promoted so far: 0 or 1.
    pub fn promotions(&self) -> u64 {
        self.active.load(Ordering::Acquire) as u64
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// True once a replicated shard runs solo: its backup was lost or
    /// promoted. A shard born solo never lost anything.
    pub fn lost_redundancy(&self) -> bool {
        self.stacks.len() == 2 && self.is_degraded()
    }

    /// The shard's replication-lag watermark.
    pub fn lag(&self) -> &ReplLag {
        &self.lag
    }
}

fn endpoint_loop(conn: &mut TcpStream, grid: &DataGrid, be: &JnvmBackend) {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 64 * 1024];
    loop {
        let mut consumed = 0;
        loop {
            let (req, n) = match parse_frame(&buf[consumed..]) {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Malformed(_) => return,
                ParseOutcome::Frame(req, n) => (req, n),
            };
            consumed += n;
            let Request::ReplApply { seq, ops } = req else {
                // Only replication traffic belongs on this link.
                return;
            };
            match catch_crash(|| commit_writes(grid, be, &ops)) {
                Ok(_) => {
                    // The group is durable on the backup's device: ack it.
                    if conn.write_all(&encode_reply(&Reply::ReplAck(seq))).is_err() {
                        return;
                    }
                }
                // Injected crash on the backup's device: never ack again,
                // never touch the frozen device again. The closed link is
                // the committer's degrade signal.
                Err(_) => return,
            }
        }
        buf.drain(..consumed);
        match conn.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use jnvm_kvstore::{Backend, Record};
    use jnvm_pmem::{silence_crash_panics, FaultPlan, PmemConfig};

    /// One shard of `replicas` stacks, its replicated commit and its link.
    fn shard(replicas: usize) -> (Cluster, Replicas, Link) {
        silence_crash_panics();
        let cluster = Cluster::create(1, replicas, 4, PmemConfig::crash_sim(8 << 20))
            .expect("valid topology");
        let set = Replicas::new(cluster.handles().remove(0));
        let link = set.connect().expect("connect the backup endpoint");
        (cluster, set, link)
    }

    /// A SET of `key` and a DEL of a key that is not there.
    fn batch(key: &str) -> Vec<WriteOp> {
        vec![
            WriteOp::Set(Record::ycsb(key, &[key.as_bytes().to_vec()])),
            WriteOp::Del("absent".into()),
        ]
    }

    fn serves(set: &Replicas, replica: usize) -> bool {
        Arc::ptr_eq(&set.active().pmem, &set.stacks()[replica].pmem)
    }

    /// Power-fail `replica`'s device at its next device op.
    fn crash_next(cluster: &Cluster, replica: usize) {
        let dev = cluster.device(0, replica).expect("in range");
        dev.arm_faults(FaultPlan::crash_at(0));
    }

    fn thaw(cluster: &Cluster) {
        for dev in &cluster.pmems()[0] {
            dev.disarm_faults();
        }
    }

    /// A primary crash fails over to the backup, which holds every group
    /// streamed to it — the failed batch included — and serves on; the
    /// next crash, on the promoted stack, finds no replica left.
    #[test]
    fn a_primary_crash_fails_over_once_and_the_next_crash_is_dead() {
        let (cluster, set, mut link) = shard(2);
        assert!(matches!(
            set.commit(&mut link, &batch("a")),
            Committed::Acked(_)
        ));
        assert_eq!((set.lag().sent(), set.lag().acked()), (1, 1));
        crash_next(&cluster, 0);
        assert!(matches!(
            set.commit(&mut link, &batch("b")),
            Committed::FailedOver
        ));
        assert!(serves(&set, 1));
        assert_eq!(set.promotions(), 1);
        assert!(set.lost_redundancy());
        let Committed::Acked(out) = set.commit(&mut link, &batch("c")) else {
            panic!("the promoted backup must ack");
        };
        assert_eq!(out.results, [true, false]);
        for key in ["a", "b", "c"] {
            assert!(set.active().be.read(key).is_some(), "{key} missing");
        }
        crash_next(&cluster, 1);
        assert!(matches!(
            set.commit(&mut link, &batch("d")),
            Committed::Dead
        ));
        assert_eq!(set.promotions(), 1, "no second promotion");
        thaw(&cluster);
    }

    /// A backup crash acks the batch off the primary and leaves it serving
    /// solo: redundancy lost, nothing promoted.
    #[test]
    fn a_backup_crash_acks_off_the_primary_and_never_promotes() {
        let (cluster, set, mut link) = shard(2);
        crash_next(&cluster, 1);
        let Committed::Acked(out) = set.commit(&mut link, &batch("a")) else {
            panic!("a backup crash is no failover");
        };
        assert_eq!(out.results, [true, false]);
        assert!(set.lost_redundancy());
        assert_eq!(set.promotions(), 0);
        assert!(serves(&set, 0));
        assert!(set.active().be.read("a").is_some());
        assert_eq!((set.lag().sent(), set.lag().acked()), (1, 0));
        thaw(&cluster);
    }

    /// A shard born solo has no redundancy to lose: its crash is death.
    #[test]
    fn a_solo_crash_is_dead() {
        let (cluster, set, mut link) = shard(1);
        assert!(!set.lost_redundancy());
        crash_next(&cluster, 0);
        assert!(matches!(
            set.commit(&mut link, &batch("a")),
            Committed::Dead
        ));
        assert_eq!(set.promotions(), 0);
        assert!(serves(&set, 0));
        thaw(&cluster);
    }
}

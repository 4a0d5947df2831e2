//! # jnvm-server — a wire-protocol persistent KV server with group commit
//!
//! The serving layer the ROADMAP's north star asks for: a TCP front end
//! over the [`jnvm_kvstore::DataGrid`] + [`jnvm_kvstore::JnvmBackend`]
//! stack, speaking a small length-prefixed protocol
//! (GET/SET/SETF/DEL/LEN/STATS/SHUTDOWN) with per-connection pipelining
//! and bounded-queue backpressure.
//!
//! ## Acked ⇒ durable
//!
//! The server's write path is built around one invariant: **a reply is
//! released only after the write's group durability point**. Worker
//! (connection) threads never touch the persistent devices on the write
//! path — they decode ops and enqueue them. One committer thread *per
//! pool shard* drains its shard's queue and runs
//! [`jnvm_kvstore::commit_writes`], which stages each op as its own
//! failure-atomic block and commits whole groups behind a shared fence
//! pair. Only when the group call returns (staging flushed, commit points
//! durable, entries applied) are the batch's tickets resolved and the OK
//! replies sent. A crash at *any* device operation therefore cannot lose
//! an acknowledged write — exactly what the kill-during-traffic torture
//! in [`torture`] sweeps for.
//!
//! Group commit is the amortization story: `k` pipelined writes cost
//! 4 fences per *group* (the applies are durable before the log retires),
//! not 4 per op, so ordering points per acked write
//! drop well below one under load (asserted via `jnvm-pmem` stats).
//! Sharding is the concurrency story on top: keys route to `N`
//! independent pools ([`jnvm_kvstore::shard_for_key`]), so `K` writes
//! spread over `N` shards pay `N` *concurrent* fence passes instead of
//! serializing behind one committer, and a crash on one shard's device
//! kills only that shard — the others keep committing (the shard-aware
//! torture pins the isolation).
//!
//! The crate ships two binaries — `jnvm-server` (standalone server over a
//! fresh crash-sim pool) and `jnvm-loadgen` (pipelined load generator
//! whose run history goes through the `jnvm-lincheck` checker) — and the
//! [`loadgen`] / [`torture`] libraries the tests, CI and
//! `jnvm-faultsim lincheck` drive.

pub mod args;
pub mod cluster;
pub mod loadgen;
pub mod proto;
pub mod repl;
pub mod server;
pub mod torture;

pub use args::Args;
pub use cluster::Cluster;
pub use loadgen::{key_for, op_for, run_loadgen, value_for, ConnReport, LoadReport, LoadgenConfig};
pub use proto::{
    encode_reply, encode_request, handshake, handshake_proto_error, parse_frame, parse_reply,
    read_reply, ParseOutcome, ProtoError, Reply, Request, PROTO_VERSION,
};
pub use repl::{Committed, Replicas};
pub use server::{Server, ServerConfig, ServerStats, ShardHandle};
pub use torture::{kill_during_traffic, traffic_op_count, KillReport, TortureConfig};

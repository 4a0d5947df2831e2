//! Kill-during-traffic: inject a crash point while live loadgen
//! connections drive the server, then reopen the pool(s), run recovery,
//! and hold the server to its word — **the client history, closed over
//! the recovered image, is durably linearizable**: every `Ok`-acked write
//! is present, no record is torn, and no op of a connection took effect
//! ahead of that connection's earlier op on the same key.
//!
//! ## One oracle
//!
//! The loadgen records every request it sends as an interval-stamped
//! event. After the kill,
//! [`check_recovered`](jnvm_lincheck::History::check_recovered) appends
//! the recovered state of every key the run touched and runs
//! `jnvm-lincheck` over the whole history. The checker carries the
//! server's per-key promise to a pipelining connection (DESIGN.md §8): a
//! `SETF` answered `NotFound` behind its connection's acked `SET`, a `GET`
//! that overtook its own key's write, and a lost acked write all have no
//! linearization. The traffic model is the loadgen's
//! [`op_for`](crate::op_for) as recorded, and the sequential spec is the
//! checker's: this module keeps no copy of either.
//!
//! ## Shard-aware killing
//!
//! The server runs over `pool_shards` independent devices. The crash is
//! armed on **one** shard's device (`crash_shard`); when it fires, that
//! shard's committer unwinds and the shard goes dead, while the other
//! shards keep accepting and committing writes — the failure-isolation
//! contract of the sharded engine. Verification therefore also checks, at
//! early crash points, that acks kept flowing *after* the first error
//! reply ([`KillReport::acked_after_first_error`]).
//!
//! ## Replicated killing and failover
//!
//! With `replicas = 2` every shard owns a primary and a backup stack on
//! independent devices, and the ack contract strengthens to **acked ⇒
//! durable on every live replica**. The crash is armed on one replica of
//! one shard (`crash_replica`; 0 = primary):
//!
//! * a **primary** crash makes the shard promote its backup in place and
//!   resume acking ([`KillReport::promotions`],
//!   [`KillReport::acked_after_promotion`]); verification re-opens the
//!   **surviving** replica of each shard and checks the history there —
//!   an acked write missing from the promoted backup is exactly the bug
//!   this torture exists to catch. The crashed primary's image is then
//!   audited against the survivor by
//!   [`audit_failover`](jnvm_lincheck::History::audit_failover): per key,
//!   the backup must be *ahead or equal* in the key's write order (groups
//!   stream to the backup before the primary's commit);
//!   [`KillReport::divergent_keys`] counts where the two images differ.
//! * a **backup** crash degrades the shard to solo mode; nothing acked is
//!   lost (acks were always gated on the primary's durability too) and
//!   verification runs against the primaries.

use std::sync::Arc;

use jnvm::RecoveryOptions;
use jnvm_kvstore::{Record, ShardedKv};
use jnvm_lincheck::FieldVals;
use jnvm_pmem::{silence_crash_panics, FaultPlan, Pmem, PmemConfig};

use crate::cluster::{grid_cfg, Cluster};
use crate::loadgen::{run_loadgen, LoadReport, LoadgenConfig, OpOutcome};
use crate::server::{ServerConfig, ServerStats};

/// Experiment shape.
#[derive(Debug, Clone, Copy)]
pub struct TortureConfig {
    /// Traffic to run while the crash is armed.
    pub load: LoadgenConfig,
    /// Per-pool backend map shards (in-pool sharding; orthogonal to pool
    /// sharding).
    pub shards: usize,
    /// Independent pool shards (devices), each with its own committer.
    pub pool_shards: usize,
    /// Replicas per shard (1 = unreplicated, 2 = primary + backup).
    pub replicas: usize,
    /// Which shard's replica set the crash is armed on.
    pub crash_shard: usize,
    /// Which replica of that shard crashes (0 = primary, 1 = backup).
    pub crash_replica: usize,
    /// Simulated pool size in bytes — per replica.
    pub pool_bytes: u64,
    /// Worker threads for the post-kill recovery pass (`1` is the
    /// sequential oracle; the reopened heap is identical either way —
    /// see `tests/recovery_equivalence.rs` and `tests/sharded_recovery.rs`).
    pub recovery_threads: usize,
    /// Server tunables.
    pub server: ServerConfig,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            load: LoadgenConfig::default(),
            shards: 16,
            pool_shards: 1,
            replicas: 1,
            crash_shard: 0,
            crash_replica: 0,
            pool_bytes: 64 << 20,
            recovery_threads: 1,
            server: ServerConfig::default(),
        }
    }
}

/// Result of one kill-during-traffic experiment.
#[derive(Debug, Clone, Copy)]
pub struct KillReport {
    /// Whether the armed point actually fired (points past the end of the
    /// op stream complete the traffic instead; verification still runs).
    pub injected: bool,
    /// Persistence-relevant device ops counted while armed (on the crash
    /// replica's device).
    pub ops_counted: u64,
    /// `Ok`-acked writes across connections.
    pub acked_writes: u64,
    /// `Ok` outcomes observed *after* a connection's first `Err` reply,
    /// summed over connections — nonzero means service continued past the
    /// crash (other shards, or the crash shard itself after promotion).
    pub acked_after_first_error: u64,
    /// Backups promoted to primary (server counter).
    pub promotions: u64,
    /// Replicated shards running solo at shutdown (server counter).
    pub degraded_shards: u64,
    /// Writes acked by a shard that had failed over — the liveness
    /// witness of promotion (server counter).
    pub acked_after_promotion: u64,
    /// Keys on the crash shard whose crashed-primary image differs from
    /// the survivor's (always an *allowed* divergence — the audit fails
    /// instead if the backup is ever **behind** the primary).
    pub divergent_keys: u64,
    /// Per-key partitions the durable-linearizability checker verified.
    pub lincheck_keys: u64,
    /// History events (client ops + post-recovery observations) checked.
    pub lincheck_events: u64,
    /// Server counters at shutdown.
    pub server: ServerStats,
}

/// What one armed run leaves behind: the devices (stacks already torn
/// down), what the clients saw, and whether the crash fired.
struct ArmedRun {
    /// `pmems[shard][replica]`, thawed and resynchronized.
    pmems: Vec<Vec<Arc<Pmem>>>,
    load: LoadReport,
    /// Server counters after the load drained, before shutdown.
    stats: ServerStats,
    injected: bool,
    /// Persistence-relevant ops counted on the crash device while armed.
    ops_counted: u64,
}

/// The kill-experiment protocol, written once: build a fresh cluster and
/// start its server (pool format and server startup are not part of the
/// crash-point space), arm a crash at `point` on the configured replica's
/// device, run the load, shut down, tear the stacks down while the crash
/// device is still frozen (unwind destructors must not repair the crash
/// image — same sequence as `jnvm_faultsim::torture_point`), then thaw and
/// resynchronize. The topology and the crash target are validated here, by
/// [`Cluster`]: an unservable configuration is an `Err` before anything
/// runs.
fn run_armed(point: u64, cfg: &TortureConfig) -> Result<ArmedRun, String> {
    silence_crash_panics();
    let cluster = Cluster::create(
        cfg.pool_shards,
        cfg.replicas,
        cfg.shards,
        PmemConfig::crash_sim(cfg.pool_bytes),
        true,
    )?;
    let crash_dev = Arc::clone(cluster.device(cfg.crash_shard, cfg.crash_replica)?);
    let server = cluster
        .start(cfg.server)
        .map_err(|e| format!("bind server: {e}"))?;
    crash_dev.arm_faults(FaultPlan::crash_at(point));
    let load = run_loadgen(server.addr(), &cfg.load);
    let stats = server.stats();
    // While a shard lives the server keeps every connection open, so each
    // request sent was answered (`Err` included). Silence means a handler is
    // stuck behind a ticket nobody answered — it would hang the joins in
    // `shutdown` too, so the server and its stacks are leaked instead.
    if stats.dead_shards < stats.shards {
        if let Some(c) = load.per_conn.iter().find(|c| c.replied() < c.sent) {
            let (replied, sent) = (c.replied(), c.sent);
            std::mem::forget((server, cluster));
            return Err(format!(
                "point {point}: conn {} got {replied} replies to {sent} requests",
                c.conn
            ));
        }
    }
    server.shutdown();
    let injected = crash_dev.faults_frozen();
    let pmems = cluster.into_pmems();
    let ops_counted = crash_dev.disarm_faults();
    if injected {
        crash_dev.resync_cache();
    }
    Ok(ArmedRun {
        pmems,
        load,
        stats,
        injected,
        ops_counted,
    })
}

/// Count pass: run the full traffic with the crash point past the end of
/// any op stream and return how many persistence-relevant ops the crash
/// replica's device performs — the size of that device's crash-point
/// space. The interleaving varies run to run; sweeps over this total are
/// representative, not exact. `Err` on an unservable topology or an
/// out-of-range crash target.
pub fn traffic_op_count(cfg: &TortureConfig) -> Result<u64, String> {
    Ok(run_armed(u64::MAX, cfg)?.ops_counted)
}

/// One kill-during-traffic experiment: build fresh pools + server, arm a
/// crash at `point` on the chosen replica's device, run the load, then
/// reopen + recover the **surviving** replica of every shard and check the
/// client history, closed over that image, for durable linearizability —
/// keys on shards that never crashed included. After a primary kill the
/// crashed image is also audited for divergence against the survivor.
/// Returns `Err` with a description on any violated invariant, and on an
/// unservable topology or out-of-range crash target.
pub fn kill_during_traffic(point: u64, cfg: &TortureConfig) -> Result<KillReport, String> {
    let ArmedRun {
        pmems,
        mut load,
        stats,
        injected,
        ops_counted,
    } = run_armed(point, cfg)?;
    // The load has drained, so every ticket ever issued was answered by
    // its resolver — counted first, woken second — whether a committer
    // resolved it or a dying shard dropped it: a ticket answered any other
    // way would be queued but never counted.
    if stats.queued_writes != stats.acked_writes + stats.nacked_writes + stats.failed_writes {
        return Err(format!(
            "point {point}: write accounting broken: queued {} != acked {} + nacked {} + failed {}",
            stats.queued_writes, stats.acked_writes, stats.nacked_writes, stats.failed_writes
        ));
    }
    let reopen = |devs: &[Arc<Pmem>], what: &str| {
        ShardedKv::open(
            devs,
            true,
            grid_cfg(),
            RecoveryOptions::parallel(cfg.recovery_threads.max(1)),
        )
        .map(|(kv, _reports)| kv)
        .map_err(|e| format!("reopen {what} after crash at point {point}: {e}"))
    };
    let fields = |rec: Option<Record>| -> Option<FieldVals> {
        rec.map(|rec| rec.fields.values().map(<[u8]>::to_vec).collect())
    };

    // The survivor view: after a primary kill the crash shard's backup is
    // what promotion left serving; every other shard (and every shard on
    // a backup kill) survives on its primary.
    let promoted = injected && cfg.replicas > 1 && cfg.crash_replica == 0;
    let survivors: Vec<Arc<Pmem>> = pmems
        .iter()
        .enumerate()
        .map(|(s, reps)| {
            let r = if promoted && s == cfg.crash_shard { 1 } else { 0 };
            Arc::clone(&reps[r])
        })
        .collect();
    let kv2 = reopen(&survivors, "survivors")?;
    let lincheck = load
        .history
        .check_recovered(|key| fields(kv2.read(key)))
        .map_err(|v| format!("point {point}: durable-linearizability violation: {v}"))?;

    // Divergence audit of the crashed primary against the survivor it
    // handed over to, in each crash-shard key's write order.
    let divergent = if promoted {
        let pkv = reopen(&pmems[cfg.crash_shard][..1], "crashed primary")?;
        let history = &load.history;
        let crash_keys = history
            .keys()
            .into_iter()
            .filter(|k| kv2.route(k) == cfg.crash_shard);
        history
            .audit_failover(crash_keys, |k| fields(pkv.read(k)), |k| fields(kv2.read(k)))
            .map_err(|e| format!("point {point}: {e}"))?
    } else {
        0
    };

    Ok(KillReport {
        injected,
        ops_counted,
        acked_writes: load.acked_writes,
        acked_after_first_error: acked_after_first_error(&load),
        promotions: stats.promotions,
        degraded_shards: stats.degraded_shards,
        acked_after_promotion: stats.acked_after_promotion,
        divergent_keys: divergent as u64,
        lincheck_keys: lincheck.keys as u64,
        lincheck_events: lincheck.events as u64,
        server: stats,
    })
}

/// `Ok` outcomes after each connection's first `Err`, summed. With one
/// dead shard out of several — or a shard failing over to its backup —
/// connections keep getting acks, so an early crash should leave this
/// well above zero.
fn acked_after_first_error(load: &LoadReport) -> u64 {
    let mut total = 0u64;
    for conn in &load.per_conn {
        let mut seen_err = false;
        for o in &conn.outcomes {
            match o {
                OpOutcome::Err => seen_err = true,
                OpOutcome::Ok if seen_err => total += 1,
                _ => {}
            }
        }
    }
    total
}

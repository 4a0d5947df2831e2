//! Per-layer costs, taken from outside the program: every number here comes
//! from calling a layer's public functions on this thread with a
//! harness-side span or timer around the call. (Spans *inside* the server,
//! keyed by request, are ROADMAP item 4.)
//!
//! Two parts. [`replay`] pushes the head of a workload's own op stream
//! through the layers in the order the server does, one span per call, so
//! the layers can be summed against the end-to-end figure. [`probe`] times
//! each layer's primitives on small fixed inputs, the same in every run.
//! Both are single-threaded, so their device counts repeat exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use jnvm::{JnvmBuilder, PObject};
use jnvm_heap::{BlockHeap, HeapConfig};
use jnvm_jpdt::{PBytes, PStringHashMap};
use jnvm_kvstore::{
    commit_writes, commit_writes_replicated, decode_record, encode_record, register_kvstore,
    shard_for_key, PRecord, ReplLag, ReplicaStack, WriteOp,
};
use jnvm_pmem::{thread_charged_ns, LatencyProfile, Pmem, PmemConfig, SanitizeMode, StatsSnapshot};
use jnvm_server::proto::encode_repl_apply;
use jnvm_server::{
    encode_reply, encode_request, parse_frame, parse_reply, ParseOutcome, Reply, Request,
};

use crate::rig::Rig;
use crate::workload::Workload;

/// One harness-side span. `parent` is an index into the same trace, or
/// `-1` for the root span of an op.
struct Span {
    op: u64,
    parent: i64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written out once, after the timing is done.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, op: u64, parent: i64, layer: &'static str, name: &'static str) -> i64 {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            parent,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as i64 - 1
    }

    fn end(&mut self, id: i64) {
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Time `f` as a child span of `parent`.
    fn child<R>(
        &mut self,
        op: u64,
        parent: i64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(op, parent, layer, name);
        let r = f();
        self.end(id);
        r
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"op\": {}, \"parent\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.op, s.parent, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the layer replay of one workload measured.
pub struct Replay {
    pub ops: u64,
    pub spans: u64,
    /// Nanoseconds per op spent in each layer's spans (child spans only:
    /// they do not nest, so they add up).
    pub layer_ns_per_op: BTreeMap<&'static str, f64>,
    /// Device counters of the whole replay, all devices.
    pub device: StatsSnapshot,
    /// Latency-model nanoseconds charged to this thread by the replay.
    pub charged_ns: u64,
    pub gets: u64,
    /// Device reads issued by the `DataGrid::read` calls alone.
    pub get_device_reads: u64,
}

impl Replay {
    pub fn layers_sum_ns_per_op(&self) -> f64 {
        self.layer_ns_per_op.values().sum()
    }
}

/// Push ops `0..n` of `w` through
/// `encode_request → parse_frame → {DataGrid::read → encode_record |
/// commit_writes[_replicated] in batches of `batch`} → encode_reply →
/// parse_reply` on fresh preloaded pools, and write the spans to `trace`.
pub fn replay(w: &Workload, n: u64, batch: usize, trace: &Path) -> std::io::Result<Replay> {
    let rig = Rig::format_and_preload(w);
    let primary = rig.kv(0);
    let backup = (rig.replicas() > 1).then(|| rig.kv(1));
    let lags: Vec<ReplLag> = (0..w.shards).map(|_| ReplLag::new()).collect();
    let mut pending: Vec<Vec<(u64, WriteOp)>> = vec![Vec::new(); w.shards];
    let mut tr = Tracer {
        t0: Instant::now(),
        spans: Vec::with_capacity(n as usize * 8),
    };
    let (mut gets, mut get_device_reads) = (0u64, 0u64);
    let before = rig.device_stats();
    let charged_before = thread_charged_ns();

    // Commit one shard's pending batch the way its committer would, then
    // answer every write in it.
    let flush = |tr: &mut Tracer, root: i64, shard: usize, ops: &mut Vec<(u64, WriteOp)>| {
        if ops.is_empty() {
            return;
        }
        let last = ops[ops.len() - 1].0;
        let batch: Vec<WriteOp> = ops.iter().map(|(_, op)| op.clone()).collect();
        let stack = primary.shard(shard);
        let results = if let Some(backup) = backup {
            let frames = tr.child(last, root, "server.proto", "encode_repl_apply", || {
                encode_repl_apply(&batch, || lags[shard].next_seq())
            });
            for (frame, _) in &frames {
                black_box(tr.child(last, root, "server.proto", "parse_frame", || {
                    parse_frame(frame)
                }));
            }
            let b = backup.shard(shard);
            tr.child(
                last,
                root,
                "kvstore.group",
                "commit_writes_replicated",
                || {
                    commit_writes_replicated(
                        ReplicaStack {
                            grid: &stack.grid,
                            be: &stack.be,
                        },
                        Some(ReplicaStack {
                            grid: &b.grid,
                            be: &b.be,
                        }),
                        &batch,
                        &lags[shard],
                    )
                },
            )
        } else {
            tr.child(last, root, "kvstore.group", "commit_writes", || {
                commit_writes(&stack.grid, &stack.be, &batch)
            })
        };
        for ((i, _), ok) in ops.drain(..).zip(results.results) {
            assert!(ok, "replay: op {i} refused");
            let bytes = tr.child(i, root, "server.proto", "encode_reply", || {
                encode_reply(&Reply::Ok)
            });
            let _ = black_box(tr.child(i, root, "server.proto", "parse_reply", || {
                parse_reply(&bytes)
            }));
        }
    };

    for i in 0..n {
        let root = tr.begin(i, -1, "harness", "op");
        let req = tr.child(i, root, "harness", "generate", || w.request(i, w.op(i)));
        let frame = tr.child(i, root, "harness", "encode_request", || {
            encode_request(&req)
        });
        let parsed = tr.child(i, root, "server.proto", "parse_frame", || {
            parse_frame(&frame)
        });
        let ParseOutcome::Frame(req, _) = parsed else {
            panic!("replay: op {i} does not parse");
        };
        let write = match req {
            Request::Get(key) => {
                let shard = tr.child(i, root, "kvstore.sharded", "shard_for_key", || {
                    shard_for_key(&key, w.shards)
                });
                // The server answers a GET only after the connection's
                // earlier writes: so does the replay.
                for (s, ops) in pending.iter_mut().enumerate() {
                    flush(&mut tr, root, s, ops);
                }
                let reads_before = primary.shard(shard).pmem.stats().reads;
                let rec = tr
                    .child(i, root, "kvstore.grid", "read", || {
                        primary.shard(shard).grid.read(&key)
                    })
                    .unwrap_or_else(|| panic!("replay: op {i} found no record"));
                get_device_reads += primary.shard(shard).pmem.stats().reads - reads_before;
                gets += 1;
                let payload = tr.child(i, root, "kvstore.codec", "encode_record", || {
                    encode_record(&rec)
                });
                let bytes = tr.child(i, root, "server.proto", "encode_reply", || {
                    encode_reply(&Reply::Value(payload))
                });
                let _ = black_box(tr.child(i, root, "server.proto", "parse_reply", || {
                    parse_reply(&bytes)
                }));
                None
            }
            Request::Set(rec) => Some(WriteOp::Set(rec)),
            Request::SetField { key, field, value } => {
                Some(WriteOp::SetField { key, field, value })
            }
            Request::Del(key) => Some(WriteOp::Del(key)),
            other => panic!("replay: op {i} parsed as {other:?}"),
        };
        if let Some(op) = write {
            let shard = tr.child(i, root, "kvstore.sharded", "shard_for_key", || {
                shard_for_key(op.key(), w.shards)
            });
            pending[shard].push((i, op));
            if pending[shard].len() >= batch {
                flush(&mut tr, root, shard, &mut pending[shard]);
            }
        }
        tr.end(root);
    }
    let root = tr.begin(n, -1, "harness", "drain");
    for (s, ops) in pending.iter_mut().enumerate() {
        flush(&mut tr, root, s, ops);
    }
    tr.end(root);

    let charged_ns = thread_charged_ns() - charged_before;
    let device = rig.device_stats().delta(&before);
    let mut layer_ns_per_op: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in tr.spans.iter().filter(|s| s.parent >= 0) {
        *layer_ns_per_op.entry(s.layer).or_default() += (s.end_ns - s.start_ns) as f64 / n as f64;
    }
    tr.write_jsonl(trace)?;
    Ok(Replay {
        ops: n,
        spans: tr.spans.len() as u64,
        layer_ns_per_op,
        device,
        charged_ns,
        gets,
        get_device_reads,
    })
}

/// Mean nanoseconds of `f` over `n` calls, timed as one stretch.
fn mean_ns(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn device(latency: LatencyProfile, bytes: u64) -> Arc<Pmem> {
    let mut cfg = PmemConfig::crash_sim(bytes).with_sanitize(SanitizeMode::Off);
    cfg.latency = latency;
    Pmem::new(cfg)
}

/// The cost of each layer's primitives on fixed inputs. The `pmem.*`
/// figures use a device with latency injection off, so they are the
/// simulator's own bookkeeping cost per primitive; everything above runs
/// on the workloads' device model (`optane_like`).
pub fn probe(out: &mut BTreeMap<String, f64>) {
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    const N: u64 = 200_000;
    const LINES: u64 = 1 << 16;

    // pmem: successive differences isolate each primitive.
    let p = device(LatencyProfile::off(), 8 << 20);
    let addr = |i: u64| (i % LINES) * 64;
    let write = mean_ns(N, |i| p.write_u64(addr(i), i));
    let write_pwb = mean_ns(N, |i| {
        p.write_u64(addr(i), i);
        p.pwb(addr(i));
    });
    p.pfence();
    let write_pwb_fence = mean_ns(N, |i| {
        p.write_u64(addr(i), i);
        p.pwb(addr(i));
        p.pfence();
    });
    put(
        "pmem.read_u64_ns",
        mean_ns(N, |i| {
            black_box(p.read_u64(addr(i)));
        }),
    );
    put("pmem.write_u64_ns", write);
    put("pmem.pwb_ns", (write_pwb - write).max(0.0));
    put("pmem.pfence_ns", (write_pwb_fence - write_pwb).max(0.0));

    // heap: a one-block object, allocated then freed.
    let p = device(LatencyProfile::optane_like(), 64 << 20);
    let heap = BlockHeap::format(Arc::clone(&p), HeapConfig::default()).expect("format heap");
    const OBJECTS: u64 = 50_000;
    let mut masters = Vec::with_capacity(OBJECTS as usize);
    let before = p.stats();
    put(
        "heap.alloc_chain_ns",
        mean_ns(OBJECTS, |_| {
            masters.push(heap.alloc_chain(1, 100).expect("heap has room"))
        }),
    );
    put(
        "heap.alloc_pwbs",
        p.stats().delta(&before).pwbs as f64 / OBJECTS as f64,
    );
    put(
        "heap.free_object_ns",
        mean_ns(OBJECTS, |i| heap.free_object(masters[i as usize])),
    );

    // core: failure-atomic blocks that each replace one 100-byte field.
    let p = device(LatencyProfile::optane_like(), 64 << 20);
    let rt = register_kvstore(JnvmBuilder::new())
        .create(Arc::clone(&p), HeapConfig::default())
        .expect("create runtime");
    let value = vec![0xabu8; 100];
    let recs: Vec<PRecord> = (0..64)
        .map(|_| PRecord::create(&rt, std::slice::from_ref(&value)).expect("record"))
        .collect();
    rt.pfence();
    let stage = |r: &PRecord| rt.fa_stage(|| r.set_field(0, &value).expect("set_field")).0;
    // One unmeasured group of the largest size: it grows the log pool,
    // which pays fences of its own that the steady state does not.
    rt.fa_commit_group(recs.iter().map(stage).collect());
    let mut stage_ns = 0.0;
    let mut staged_blocks = 0u64;
    for (k, rounds) in [(1usize, 400u64), (8, 100), (64, 25)] {
        let mut commit_ns = 0.0;
        let before = p.stats();
        for _ in 0..rounds {
            let t = Instant::now();
            let group: Vec<_> = recs[..k].iter().map(stage).collect();
            stage_ns += t.elapsed().as_nanos() as f64;
            staged_blocks += k as u64;
            let t = Instant::now();
            rt.fa_commit_group(group);
            commit_ns += t.elapsed().as_nanos() as f64;
        }
        let d = p.stats().delta(&before);
        put(
            &format!("core.fa_commit_group_ns_per_block.k{k}"),
            commit_ns / (rounds * k as u64) as f64,
        );
        if k == 8 {
            put(
                "core.fa_fences_per_group",
                (d.pfences + d.psyncs) as f64 / rounds as f64,
            );
            put(
                "core.fa_pwbs_per_block",
                d.pwbs as f64 / (rounds * 8) as f64,
            );
        }
    }
    put("core.fa_stage_ns", stage_ns / staged_blocks as f64);

    // jpdt: the persistent string map, outside any failure-atomic block.
    const KEYS: u64 = 20_000;
    let map = PStringHashMap::new(&rt).expect("map");
    let val = PBytes::new(&rt, &value).expect("blob").addr();
    let key = |i: u64| format!("user{i:012}");
    let before = p.stats();
    put(
        "jpdt.pmap_put_ns",
        mean_ns(KEYS, |i| {
            map.put(key(i), val).expect("put");
        }),
    );
    put(
        "jpdt.pmap_put_pwbs",
        p.stats().delta(&before).pwbs as f64 / KEYS as f64,
    );
    put(
        "jpdt.pmap_get_ns",
        mean_ns(KEYS, |i| {
            black_box(map.get(&key(i * 7919 % KEYS)));
        }),
    );
    put(
        "jpdt.pmap_remove_ns",
        mean_ns(KEYS, |i| {
            black_box(map.remove(&key(i)));
        }),
    );

    // kvstore and the wire protocol, on a preloaded primary + backup pair.
    let w = Workload::probe();
    let rig = Rig::format_and_preload(&w);
    let (a, b) = (rig.kv(0).shard(0), rig.kv(1).shard(0));
    let rec = w.preload_record(17);
    let payload = encode_record(&rec);
    put(
        "kvstore.codec_encode_ns",
        mean_ns(N, |_| {
            black_box(encode_record(black_box(&rec)));
        }),
    );
    put(
        "kvstore.codec_decode_ns",
        mean_ns(N, |_| {
            black_box(decode_record(black_box(&payload)));
        }),
    );
    let name = w.key_name(17);
    put(
        "kvstore.shard_for_key_ns",
        mean_ns(N, |_| {
            black_box(shard_for_key(black_box(&name), 4));
        }),
    );
    const READS: u64 = 20_000;
    let before = a.pmem.stats();
    put(
        "kvstore.grid_read_ns",
        mean_ns(READS, |i| {
            black_box(a.grid.read(&w.key_name(i * 7919 % w.records)));
        }),
    );
    put(
        "kvstore.grid_read_device_reads",
        a.pmem.stats().delta(&before).reads as f64 / READS as f64,
    );

    let setf = |i: u64| WriteOp::SetField {
        key: w.key_name(i * 7919 % w.records),
        field: (i % 10) as usize,
        value: w.value(i, 0),
    };
    const WRITES: u64 = 6_400;
    let mut next = 0u64;
    for size in [1u64, 8, 64] {
        let before = a.pmem.stats();
        let t = Instant::now();
        for _ in 0..WRITES / size {
            let ops: Vec<WriteOp> = (next..next + size).map(setf).collect();
            next += size;
            black_box(commit_writes(&a.grid, &a.be, &ops));
        }
        let ns = t.elapsed().as_nanos() as f64;
        let d = a.pmem.stats().delta(&before);
        put(
            &format!("kvstore.commit_writes_ns_per_op.b{size}"),
            ns / WRITES as f64,
        );
        put(
            &format!("kvstore.commit_writes_fences_per_op.b{size}"),
            (d.pfences + d.psyncs) as f64 / WRITES as f64,
        );
        put(
            &format!("kvstore.commit_writes_pwbs_per_op.b{size}"),
            d.pwbs as f64 / WRITES as f64,
        );
    }
    let lag = ReplLag::new();
    let t = Instant::now();
    for _ in 0..WRITES / 8 {
        let ops: Vec<WriteOp> = (next..next + 8).map(setf).collect();
        next += 8;
        black_box(commit_writes_replicated(
            ReplicaStack {
                grid: &a.grid,
                be: &a.be,
            },
            Some(ReplicaStack {
                grid: &b.grid,
                be: &b.be,
            }),
            &ops,
            &lag,
        ));
    }
    put(
        "kvstore.commit_writes_replicated_ns_per_op.b8",
        t.elapsed().as_nanos() as f64 / WRITES as f64,
    );
    let (mut groups, t) = (0usize, Instant::now());
    for round in 0..WRITES / 64 {
        let ops: Vec<WriteOp> = (0..64)
            .map(|j| WriteOp::Set(w.record(w.records + round * 64 + j, round * 64 + j)))
            .collect();
        groups += commit_writes(&a.grid, &a.be, &ops).groups;
    }
    put(
        "kvstore.commit_writes_insert_ns_per_op.b64",
        t.elapsed().as_nanos() as f64 / WRITES as f64,
    );
    put(
        "kvstore.commit_writes_insert_groups_per_batch.b64",
        groups as f64 / (WRITES / 64) as f64,
    );

    let frames = [
        (
            "server.proto_parse_get_ns",
            encode_request(&Request::Get(name.clone())),
        ),
        (
            "server.proto_parse_setf_ns",
            encode_request(&Request::SetField {
                key: name.clone(),
                field: 3,
                value: w.value(1, 3),
            }),
        ),
        (
            "server.proto_parse_set_ns",
            encode_request(&Request::Set(rec.clone())),
        ),
    ];
    for (metric, frame) in &frames {
        put(
            metric,
            mean_ns(N, |_| {
                black_box(parse_frame(black_box(frame)));
            }),
        );
    }
    let reply = Reply::Value(payload);
    put(
        "server.proto_encode_value_reply_ns",
        mean_ns(N, |_| {
            black_box(encode_reply(black_box(&reply)));
        }),
    );
    let group: Vec<WriteOp> = (0..8).map(setf).collect();
    let mut seq = 0u64;
    put(
        "server.proto_encode_repl_apply_ns_per_op",
        mean_ns(N / 8, |_| {
            black_box(encode_repl_apply(black_box(&group), || {
                seq += 1;
                seq
            }));
        }) / 8.0,
    );
}

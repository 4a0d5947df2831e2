//! The metrics this benchmark reports, by name. `BENCHMARK.json` lists the
//! same names (`tests/contract.rs` holds the two together).

/// `(name, unit, better, bound)`. The bound is the share of the parent's
/// median by which the metric may worsen before a change is a regression.
///
/// Only one wall-clock figure is gated besides the set-up time the
/// contract asks for, and both at the largest bound allowed: the sandbox's
/// speed drifts by ±15 % and more over seconds to minutes, and every other
/// timing tried (p50, p99, recovery) moved by more than 25 % between
/// identical runs on a bad hour (README, "Steadiness"). They are reported
/// by the traced run. The counts repeat to three digits.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("nvmm_bytes_per_user_byte", "ratio", "lower", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
];

/// Persist-ordering labels that get a `fences.*` / `pwbs.*` row of their
/// own; every other label is summed under `other`.
pub const OBS_LABELS: [&str; 8] = [
    "fa-commit",
    "fa-retire",
    "log-publish",
    "chain-extend",
    "pmap-publish",
    "record-field-publish",
    "pool-carve",
    "unattributed",
];

/// `(name, unit, better)`, traced run only, ungated.
pub const PER_LAYER: [(&str, &str, &str); 101] = [
    // pmem: simulator self-cost per primitive (latency injection off) ...
    ("pmem.read_u64_ns", "ns", "lower"),
    ("pmem.write_u64_ns", "ns", "lower"),
    ("pmem.pwb_ns", "ns", "lower"),
    ("pmem.pfence_ns", "ns", "lower"),
    // ... and the workload's device work, from its replay and its traced load.
    ("pmem.sim_self_ns_per_op", "ns", "lower"),
    ("pmem.modeled_ns_per_op", "ns", "lower"),
    ("pmem.fences_per_acked_write", "count", "lower"),
    ("pmem.pwbs_per_acked_write", "count", "lower"),
    ("pmem.bytes_written_per_user_byte", "ratio", "lower"),
    ("pmem.reads_per_op", "count", "lower"),
    ("heap.alloc_chain_ns", "ns", "lower"),
    ("heap.free_object_ns", "ns", "lower"),
    ("heap.alloc_pwbs", "count", "lower"),
    ("core.fa_stage_ns", "ns", "lower"),
    ("core.fa_commit_group_ns_per_block.k1", "ns", "lower"),
    ("core.fa_commit_group_ns_per_block.k8", "ns", "lower"),
    ("core.fa_commit_group_ns_per_block.k64", "ns", "lower"),
    ("core.fa_fences_per_group", "count", "lower"),
    ("core.fa_pwbs_per_block", "count", "lower"),
    ("core.recovery_wall_s", "s", "lower"),
    ("core.recovery_replay_s", "s", "lower"),
    ("core.recovery_mark_s", "s", "lower"),
    ("core.recovery_sweep_s", "s", "lower"),
    ("core.recovery_live_objects", "count", "lower"),
    ("jpdt.pmap_get_ns", "ns", "lower"),
    ("jpdt.pmap_put_ns", "ns", "lower"),
    ("jpdt.pmap_remove_ns", "ns", "lower"),
    ("jpdt.pmap_put_pwbs", "count", "lower"),
    ("kvstore.codec_encode_ns", "ns", "lower"),
    ("kvstore.codec_decode_ns", "ns", "lower"),
    ("kvstore.grid_read_ns", "ns", "lower"),
    ("kvstore.grid_read_device_reads", "count", "lower"),
    ("kvstore.shard_for_key_ns", "ns", "lower"),
    ("kvstore.commit_writes_ns_per_op.b1", "ns", "lower"),
    ("kvstore.commit_writes_ns_per_op.b8", "ns", "lower"),
    ("kvstore.commit_writes_ns_per_op.b64", "ns", "lower"),
    ("kvstore.commit_writes_fences_per_op.b1", "count", "lower"),
    ("kvstore.commit_writes_fences_per_op.b8", "count", "lower"),
    ("kvstore.commit_writes_fences_per_op.b64", "count", "lower"),
    ("kvstore.commit_writes_pwbs_per_op.b1", "count", "lower"),
    ("kvstore.commit_writes_pwbs_per_op.b8", "count", "lower"),
    ("kvstore.commit_writes_pwbs_per_op.b64", "count", "lower"),
    ("kvstore.commit_writes_insert_ns_per_op.b64", "ns", "lower"),
    (
        "kvstore.commit_writes_insert_groups_per_batch.b64",
        "count",
        "lower",
    ),
    (
        "kvstore.commit_writes_replicated_ns_per_op.b8",
        "ns",
        "lower",
    ),
    ("server.proto_parse_get_ns", "ns", "lower"),
    ("server.proto_parse_setf_ns", "ns", "lower"),
    ("server.proto_parse_set_ns", "ns", "lower"),
    ("server.proto_encode_value_reply_ns", "ns", "lower"),
    ("server.proto_encode_repl_apply_ns_per_op", "ns", "lower"),
    // server, in situ (traced load).
    ("server.ops_per_group", "count", "higher"),
    ("server.groups_per_batch", "count", "lower"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.ack_p50_us", "us", "lower"),
    ("server.ack_p99_us", "us", "lower"),
    ("server.client_minus_ack_p50_us", "us", "lower"),
    ("server.committer_modeled_ns_per_write", "ns", "lower"),
    ("server.repl_sent", "count", "lower"),
    ("server.repl_acked", "count", "higher"),
    // obs: per acknowledged write, by persist-ordering label.
    ("obs.fences.fa-commit", "count", "lower"),
    ("obs.fences.fa-retire", "count", "lower"),
    ("obs.fences.log-publish", "count", "lower"),
    ("obs.fences.chain-extend", "count", "lower"),
    ("obs.fences.pmap-publish", "count", "lower"),
    ("obs.fences.record-field-publish", "count", "lower"),
    ("obs.fences.pool-carve", "count", "lower"),
    ("obs.fences.unattributed", "count", "lower"),
    ("obs.fences.other", "count", "lower"),
    ("obs.pwbs.fa-commit", "count", "lower"),
    ("obs.pwbs.fa-retire", "count", "lower"),
    ("obs.pwbs.log-publish", "count", "lower"),
    ("obs.pwbs.chain-extend", "count", "lower"),
    ("obs.pwbs.pmap-publish", "count", "lower"),
    ("obs.pwbs.record-field-publish", "count", "lower"),
    ("obs.pwbs.pool-carve", "count", "lower"),
    ("obs.pwbs.unattributed", "count", "lower"),
    ("obs.pwbs.other", "count", "lower"),
    ("obs.label_sum_minus_device", "count", "lower"),
    // client: the untraced window of the traced run, split by op type
    // (0 where the workload has no such op), with the ungated tails.
    ("client.throughput_ops_s", "ops/s", "higher"),
    ("client.op_p50_us", "us", "lower"),
    ("client.op_p99_us", "us", "lower"),
    ("client.read_p50_us", "us", "lower"),
    ("client.read_p99_us", "us", "lower"),
    ("client.read_p999_us", "us", "lower"),
    ("client.write_p50_us", "us", "lower"),
    ("client.write_p99_us", "us", "lower"),
    ("client.write_p999_us", "us", "lower"),
    ("client.last_fifth_throughput_ratio", "ratio", "higher"),
    // replay: nanoseconds per op by layer, the workload's own op stream.
    ("replay.server_proto_ns_per_op", "ns", "lower"),
    ("replay.kvstore_sharded_ns_per_op", "ns", "lower"),
    ("replay.kvstore_grid_ns_per_op", "ns", "lower"),
    ("replay.kvstore_codec_ns_per_op", "ns", "lower"),
    ("replay.kvstore_group_ns_per_op", "ns", "lower"),
    ("replay.device_reads_per_get", "count", "lower"),
    ("harness.gen_encode_ns_per_op", "ns", "lower"),
    ("harness.obs_log_overhead_pct", "%", "lower"),
    ("harness.layers_sum_ns_per_op", "ns", "lower"),
    ("harness.wall_ns_per_op", "ns", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
    ("harness.replay_ops", "count", "higher"),
    ("harness.spans_written", "count", "higher"),
];

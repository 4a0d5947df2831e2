//! The request decoder under hostile input, with host work as counts.
//!
//! `parse_frame` is fed arbitrary bytes, and streams of valid `SET` /
//! `SETF` / `REPL_APPLY` frames with one byte mutated, delivered in
//! arbitrary `read`-sized pieces the way a connection's reader buffers
//! them. It must never panic, must answer with whole frames, a typed
//! `Malformed` or `Invalid`, or a wait for more bytes, and must never size
//! an allocation from a length it has not checked against the input. A
//! well-formed `SET` of a 10-field YCSB record costs exactly the record's
//! 2 allocations (its key and its one buffer), a replicated `SET` the same
//! plus the frame's share of the op vector, and encoding a commit group for
//! the backup allocates per frame, not per op.

#[path = "../../kvstore/tests/support/alloc_counter.rs"]
mod alloc_counter;

use alloc_counter::allocs;
use jnvm_kvstore::{Record, WriteOp};
use jnvm_server::proto::encode_repl_apply;
use jnvm_server::{encode_request, parse_frame, ParseOutcome, Request};
use proptest::prelude::*;

/// The largest allocation one parse may make per buffered byte: a
/// replicated op takes at least 5 input bytes and 80 bytes of vector slot,
/// a record's buffer is smaller than its encoding, and nothing else is
/// sized from the input.
const ALLOC_PER_INPUT_BYTE: usize = 16;

/// One request per spec: `kind` picks SET / SETF / REPL_APPLY.
fn request(kind: u8, key: String, values: Vec<Vec<u8>>, field: usize) -> Request {
    match kind {
        0 => Request::Set(Record::ycsb(&key, &values)),
        1 => Request::SetField {
            key,
            field,
            value: values.concat(),
        },
        _ => Request::ReplApply {
            seq: field as u64,
            ops: vec![
                WriteOp::Set(Record::ycsb(&key, &values)),
                WriteOp::SetField {
                    key: key.clone(),
                    field,
                    value: values.concat(),
                },
                WriteOp::Del(key),
            ],
        },
    }
}

/// What a connection's reader made of a byte stream.
struct Parsed {
    frames: Vec<Request>,
    /// The typed reason the stream was cut, if it was.
    malformed: Option<&'static str>,
}

/// Feed `stream` to `parse_frame` in pieces of the given sizes (cycled),
/// parsing every whole frame buffered after each piece, as the server's
/// connection loop does. Checks each call's consumption and allocations.
fn drive(stream: &[u8], pieces: &[usize]) -> Parsed {
    let mut buf = Vec::new();
    let mut at = 0;
    let mut frames = Vec::new();
    for &piece in pieces.iter().cycle() {
        if at == stream.len() {
            break;
        }
        let end = (at + piece.max(1)).min(stream.len());
        buf.extend_from_slice(&stream[at..end]);
        at = end;
        loop {
            let (used, outcome) = allocs(|| parse_frame(&buf));
            assert!(
                used.largest <= ALLOC_PER_INPUT_BYTE * buf.len() + 64,
                "a {}-B buffer sized a {}-B allocation",
                buf.len(),
                used.largest
            );
            match outcome {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Frame(req, n) => {
                    assert!(0 < n && n <= buf.len(), "consumed {n} of {}", buf.len());
                    frames.push(req);
                    buf.drain(..n);
                }
                ParseOutcome::Malformed(why) => {
                    return Parsed {
                        frames,
                        malformed: Some(why),
                    }
                }
            }
        }
    }
    Parsed {
        frames,
        malformed: None,
    }
}

fn spec() -> impl Strategy<Value = (u8, String, Vec<Vec<u8>>, usize)> {
    (
        0u8..3,
        "[a-z0-9]{1,12}",
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 0..6),
        0usize..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_or_oversize(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        pieces in proptest::collection::vec(1usize..64, 1..8),
    ) {
        drive(&bytes, &pieces);
    }

    /// Bytes that follow the framing but not the body grammar.
    #[test]
    fn framed_garbage_bodies_never_panic_or_oversize(
        op in 1u8..11,
        body in proptest::collection::vec(any::<u8>(), 0..200),
        pieces in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let mut frame = vec![0x4e, op];
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&body);
        drive(&frame, &pieces);
    }

    /// Unmutated, every split of the stream yields its frames, in order.
    /// With one byte mutated, every frame wholly before that byte still
    /// parses to its original; what follows is frames, a typed rejection,
    /// or a wait for more bytes.
    #[test]
    fn one_mutated_byte_is_frames_or_a_typed_error(
        specs in proptest::collection::vec(spec(), 1..4),
        pos in any::<usize>(),
        flip in 1u8..=255,
        pieces in proptest::collection::vec(1usize..96, 1..8),
    ) {
        let reqs: Vec<Request> = specs
            .into_iter()
            .map(|(kind, key, values, field)| request(kind, key, values, field))
            .collect();
        let encoded: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
        let stream = encoded.concat();

        let clean = drive(&stream, &pieces);
        prop_assert_eq!(&clean.frames, &reqs);
        prop_assert_eq!(clean.malformed, None);

        let pos = pos % stream.len();
        let mut mutated = stream;
        mutated[pos] ^= flip;
        let parsed = drive(&mutated, &pieces);
        let mut end = 0;
        for (i, bytes) in encoded.iter().enumerate() {
            end += bytes.len();
            if end > pos {
                break;
            }
            prop_assert_eq!(parsed.frames.get(i), Some(&reqs[i]));
        }
    }
}

#[test]
fn parsing_a_ycsb_set_takes_the_records_two() {
    let values: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 100]).collect();
    let rec = Record::ycsb("user42", &values);
    let frame = encode_request(&Request::Set(rec.clone()));
    let (used, outcome) = allocs(|| parse_frame(&frame));
    match outcome {
        ParseOutcome::Frame(Request::Set(back), n) => {
            assert_eq!(n, frame.len());
            assert_eq!(back, rec);
        }
        other => panic!("expected a SET frame, got {other:?}"),
    }
    assert_eq!(used.count, 2, "key + one buffer, and nothing else");
}

/// `SET`s of new 4 × 64 B records, as `insert_delete_2x2`'s committer
/// sends them to the backup.
fn insert_group(n: usize) -> Vec<WriteOp> {
    (0..n)
        .map(|i| {
            WriteOp::Set(Record::ycsb(
                &format!("user{i:012}"),
                &vec![vec![i as u8; 64]; 4],
            ))
        })
        .collect()
}

/// The backup's parse of a `REPL_APPLY` frame: the op vector once, then
/// each `SET`'s key and buffer.
#[test]
fn parsing_a_repl_apply_of_sets_takes_two_per_op() {
    let ops = insert_group(4);
    let frames = encode_repl_apply(&ops, || 7);
    assert_eq!(frames.len(), 1);
    let (used, outcome) = allocs(|| parse_frame(&frames[0].0));
    match outcome {
        ParseOutcome::Frame(Request::ReplApply { seq: 7, ops: back }, _) => assert_eq!(back, ops),
        other => panic!("expected a REPL_APPLY frame, got {other:?}"),
    }
    assert_eq!(
        used.count,
        1 + 2 * 4,
        "the op vector + key and buffer per SET"
    );
}

/// The committer's encode of a commit group: every record is written
/// straight into its frame, sized before the first op goes in.
#[test]
fn encoding_a_repl_apply_allocates_per_frame_not_per_op() {
    let ops = insert_group(64);
    let (used, frames) = allocs(|| encode_repl_apply(&ops, || 1));
    assert_eq!(frames.len(), 1);
    assert_eq!(used.count, 2, "the frame list + the one frame");
    assert_eq!(
        used.largest,
        frames[0].0.len(),
        "the frame is sized exactly"
    );
}

/// A SET whose body carries bytes after its last field is a different
/// record than the one acknowledged: it is refused, the frame boundary
/// still sound.
#[test]
fn a_set_body_with_a_trailing_tail_is_invalid() {
    let mut body = jnvm_kvstore::encode_record(&Record::ycsb("k", &[b"v".to_vec()]));
    body.extend_from_slice(b"tail");
    let mut frame = vec![0x4e, 2];
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    assert!(matches!(
        parse_frame(&frame),
        ParseOutcome::Frame(Request::Invalid("record does not decode"), n) if n == frame.len()
    ));
}

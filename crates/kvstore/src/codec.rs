//! The volatile record type and its binary marshalling codec.
//!
//! The codec is intentionally a real serializer (length-prefixed fields
//! with names, the key and every value copied out on decode): Figure 8 of
//! the paper shows that marshalling — not the file system — dominates the
//! cost of the external design, so the cost here must be genuine CPU work.
//! Field names are the exception: a wire name that equals its positional
//! YCSB name borrows it from [`ycsb_field_name`]'s table, so decoding a
//! YCSB record allocates only its key, its field vector and its values.
//! The codec is exact: a count or length that does not fit its header word
//! is refused on encode, and bytes after the last field are refused on
//! decode.

use std::borrow::Cow;

/// A volatile key-value record: named fields with byte-string values
/// (YCSB's data model: 10 fields of 100 B by default).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    /// Record key.
    pub key: String,
    /// Ordered `(name, value)` fields. Names are positional
    /// ([`ycsb_field_name`]) and borrowed from its static table; only a
    /// name that differs from its position's (or one past the table) owns
    /// a heap string.
    pub fields: Vec<(Cow<'static, str>, Vec<u8>)>,
}

/// The positional names [`ycsb_field_name`] and [`decode_record`] borrow.
const NAMES: [&str; 16] = [
    "field0", "field1", "field2", "field3", "field4", "field5", "field6", "field7", "field8",
    "field9", "field10", "field11", "field12", "field13", "field14", "field15",
];

/// Positional YCSB field name; the common widths borrow from one table.
pub fn ycsb_field_name(i: usize) -> Cow<'static, str> {
    match NAMES.get(i) {
        Some(n) => Cow::Borrowed(n),
        None => Cow::Owned(format!("field{i}")),
    }
}

impl Record {
    /// Build a YCSB-style record with positional field names.
    pub fn ycsb(key: &str, values: &[Vec<u8>]) -> Record {
        Record {
            key: key.to_string(),
            fields: values
                .iter()
                .enumerate()
                .map(|(i, v)| (ycsb_field_name(i), v.clone()))
                .collect(),
        }
    }

    /// Total value bytes.
    pub fn value_bytes(&self) -> usize {
        self.fields.iter().map(|(_, v)| v.len()).sum()
    }
}

const MAGIC: u16 = 0x4a52; // "JR"

/// `n` as a header word of type `T`.
///
/// # Panics
/// If `n` does not fit: a truncated count or length would encode a
/// different record than the one asked for.
fn header_word<T: TryFrom<usize>>(n: usize, what: &str) -> T {
    T::try_from(n).unwrap_or_else(|_| panic!("record {what} {n} does not fit its header word"))
}

/// Append a marshalled record's header: magic, field count, key.
///
/// # Panics
/// If `nfields` exceeds `u16::MAX` or the key exceeds `u32::MAX` bytes.
pub fn write_record_header(out: &mut Vec<u8>, key: &str, nfields: usize) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&header_word::<u16>(nfields, "field count").to_le_bytes());
    out.extend_from_slice(&header_word::<u32>(key.len(), "key length").to_le_bytes());
    out.extend_from_slice(key.as_bytes());
}

/// Append one field's header; the caller appends its `value_len` bytes next.
///
/// # Panics
/// If the name or `value_len` exceeds `u32::MAX` bytes.
pub fn write_field_header(out: &mut Vec<u8>, name: &str, value_len: usize) {
    out.extend_from_slice(&header_word::<u32>(name.len(), "name length").to_le_bytes());
    out.extend_from_slice(&header_word::<u32>(value_len, "value length").to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Marshal a record to bytes.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        16 + rec.key.len() + rec.fields.iter().map(|(n, v)| 8 + n.len() + v.len()).sum::<usize>(),
    );
    write_record_header(&mut out, &rec.key, rec.fields.len());
    for (name, value) in &rec.fields {
        write_field_header(&mut out, name, value.len());
        out.extend_from_slice(value);
    }
    out
}

/// Unmarshal a record. Returns `None` on malformed input, including bytes
/// after the last field. A name equal to its positional YCSB name is
/// borrowed; any other name is owned, so every record round-trips exactly.
pub fn decode_record(bytes: &[u8]) -> Option<Record> {
    fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if b.len() < n {
            return None;
        }
        let (head, tail) = b.split_at(n);
        *b = tail;
        Some(head)
    }
    let mut b = bytes;
    let magic = u16::from_le_bytes(take(&mut b, 2)?.try_into().ok()?);
    if magic != MAGIC {
        return None;
    }
    let nfields = u16::from_le_bytes(take(&mut b, 2)?.try_into().ok()?) as usize;
    let keylen = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
    let key = String::from_utf8(take(&mut b, keylen)?.to_vec()).ok()?;
    // Every field takes at least its 8 header bytes: a count the input
    // cannot hold sizes no allocation.
    if nfields > b.len() / 8 {
        return None;
    }
    let mut fields = Vec::with_capacity(nfields);
    for i in 0..nfields {
        let namelen = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
        let datalen = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
        let name = std::str::from_utf8(take(&mut b, namelen)?).ok()?;
        let name = match NAMES.get(i) {
            Some(&positional) if positional == name => Cow::Borrowed(positional),
            _ => Cow::Owned(name.to_owned()),
        };
        let data = take(&mut b, datalen)?.to_vec();
        fields.push((name, data));
    }
    b.is_empty().then_some(Record { key, fields })
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The decoder never panics and round-trips every encodable record.
        #[test]
        fn decode_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
            let _ = decode_record(&bytes); // must not panic
        }

        #[test]
        fn encode_decode_round_trip(
            key in "[a-zA-Z0-9_-]{0,40}",
            fields in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..120), 0..12),
        ) {
            let rec = Record::ycsb(&key, &fields);
            prop_assert_eq!(decode_record(&encode_record(&rec)), Some(rec));
        }

        /// Arbitrary names round-trip byte for byte — positional ones at the
        /// wrong index (`"field3"` at position 5) included — and a decoded
        /// name borrows the static table iff it is its position's name.
        #[test]
        fn names_round_trip_and_only_positional_names_borrow(
            names in proptest::collection::vec(
                prop_oneof![
                    "[a-z0-9_]{0,12}",
                    (0usize..20).prop_map(|i| format!("field{i}")),
                ],
                0..20,
            ),
        ) {
            let rec = Record {
                key: "k".to_string(),
                fields: names.into_iter().map(|n| (Cow::Owned(n), vec![1u8])).collect(),
            };
            let back = decode_record(&encode_record(&rec)).expect("decodes");
            prop_assert_eq!(&back, &rec);
            for (i, (name, _)) in back.fields.iter().enumerate() {
                let positional = matches!(ycsb_field_name(i), Cow::Borrowed(p) if p == name);
                prop_assert_eq!(matches!(name, Cow::Borrowed(_)), positional);
            }
        }

        /// Truncation at any point yields None, never a wrong record.
        #[test]
        fn truncation_never_misdecodes(cut in 0usize..200) {
            let rec = Record::ycsb("userX", &[vec![1u8; 50], vec![2u8; 50]]);
            let bytes = encode_record(&rec);
            if cut < bytes.len() {
                let out = decode_record(&bytes[..cut]);
                prop_assert!(out.is_none());
            }
        }

        /// Zero-field records (the wire protocol can legally carry them)
        /// round-trip for any key.
        #[test]
        fn zero_field_record_round_trips(key in "[a-zA-Z0-9_:.-]{0,64}") {
            let rec = Record { key, fields: vec![] };
            prop_assert_eq!(decode_record(&encode_record(&rec)), Some(rec));
        }

        /// Flipping any single byte of a valid encoding never panics the
        /// decoder (attacker-shaped input from the wire).
        #[test]
        fn single_byte_corruption_never_panics(pos in 0usize..64, bit in 0u8..8) {
            let rec = Record::ycsb("k", &[vec![7u8; 20], vec![]]);
            let mut bytes = encode_record(&rec);
            if pos < bytes.len() {
                bytes[pos] ^= 1 << bit;
            }
            let _ = decode_record(&bytes); // must not panic
        }
    }

    /// The field-count word is a u16: a record with exactly `u16::MAX`
    /// fields (the wire maximum) round-trips losslessly.
    #[test]
    fn max_field_count_round_trips() {
        let rec = Record {
            key: "max".to_string(),
            fields: (0..u16::MAX as usize)
                .map(|i| (ycsb_field_name(i), Vec::new()))
                .collect(),
        };
        let bytes = encode_record(&rec);
        let back = decode_record(&bytes).expect("max-field record must decode");
        assert_eq!(back.fields.len(), u16::MAX as usize);
        assert_eq!(back, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count past the `u16` header word is refused, not truncated (65 537
    /// fields once encoded a count of 1 and decoded as a 1-field record).
    #[test]
    #[should_panic(expected = "field count 65537 does not fit")]
    fn field_count_past_its_header_word_is_refused() {
        encode_record(&Record::ycsb("k", &vec![vec![]; 65_537]));
    }

    #[test]
    #[should_panic(expected = "value length 4294967296 does not fit")]
    fn value_length_past_its_header_word_is_refused() {
        write_field_header(&mut Vec::new(), "field0", 1 << 32);
    }

    /// Bytes after the last field are not a different record's tail to drop.
    #[test]
    fn trailing_bytes_are_refused() {
        let mut bytes = encode_record(&Record::ycsb("k", &[b"v".to_vec()]));
        bytes.push(0);
        assert!(decode_record(&bytes).is_none());
    }

    #[test]
    fn round_trip() {
        let rec = Record::ycsb("user42", &[vec![1, 2, 3], vec![], vec![0xff; 100]]);
        let bytes = encode_record(&rec);
        let back = decode_record(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn empty_record() {
        let rec = Record {
            key: String::new(),
            fields: vec![],
        };
        assert_eq!(decode_record(&encode_record(&rec)).unwrap(), rec);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode_record(b"").is_none());
        assert!(decode_record(b"xx").is_none());
        assert!(decode_record(&[0x4a, 0x52, 5, 0, 255, 255, 255, 255]).is_none());
        let mut ok = encode_record(&Record::ycsb("k", &[vec![1]]));
        ok.truncate(ok.len() - 1);
        assert!(decode_record(&ok).is_none());
    }

    #[test]
    fn ycsb_names_are_positional() {
        let rec = Record::ycsb("k", &[vec![1], vec![2]]);
        assert_eq!(rec.fields[0].0, Cow::Borrowed("field0"));
        assert_eq!(rec.fields[1].0, Cow::Borrowed("field1"));
        assert!(rec.fields.iter().all(|(n, _)| matches!(n, Cow::Borrowed(_))));
        assert_eq!(rec.value_bytes(), 2);
    }
}

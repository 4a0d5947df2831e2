//! The volatile record type and its binary marshalling codec.
//!
//! The codec is intentionally a real serializer (length-prefixed fields
//! with names, the key and every value copied out on decode): Figure 8 of
//! the paper shows that marshalling — not the file system — dominates the
//! cost of the external design, so the cost here must be genuine CPU work.
//!
//! A [`Record`] is its key and one buffer ([`Fields`]): every value behind
//! its own length word, back to back. A name equal to its positional YCSB
//! name (`"field0".."field15"`, [`ycsb_field_name`]) is not stored at all;
//! a record with any other name keeps every name in one side buffer of the
//! same framing, so every record round-trips exactly. Building, decoding or
//! reading back a YCSB record therefore allocates its key and its buffer.
//! The codec is exact: a count or length that does not fit its header word
//! is refused on encode, and bytes after the last field are refused on
//! decode.

use std::borrow::Cow;
use std::fmt;

/// A volatile key-value record: named fields with byte-string values
/// (YCSB's data model: 10 fields of 100 B by default).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    /// Record key.
    pub key: String,
    /// Ordered `(name, value)` fields.
    pub fields: Fields,
}

/// A record's ordered `(name, value)` fields, in one buffer.
///
/// Each value sits behind its `u32` length word, back to back, so finding
/// field `i` walks `i` length words. Names are not stored while every one
/// is its position's `ycsb_field_name`; from the first other name on,
/// `names` holds every field's name in the same framing. That keeps one
/// representation per content, so equality is the buffers'.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Fields {
    values: Vec<u8>,
    /// Empty while every name is positional.
    names: Vec<u8>,
    len: usize,
}

/// The positional names [`ycsb_field_name`] and [`Fields`] borrow.
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

/// Append `name` behind its length word.
fn push_name(names: &mut Vec<u8>, name: &str) {
    names.extend_from_slice(&header_word::<u32>(name.len(), "name length").to_le_bytes());
    names.extend_from_slice(name.as_bytes());
}

/// The length word at the front of `buf`.
fn item_len(buf: &[u8]) -> usize {
    u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize
}

/// Split the item at the front of `buf` from the items behind it.
fn split_item(buf: &[u8]) -> (&[u8], &[u8]) {
    buf[4..].split_at(item_len(buf))
}

impl Fields {
    /// Empty fields with room for `nfields` values of `value_bytes` in all.
    pub(crate) fn with_capacity(nfields: usize, value_bytes: usize) -> Fields {
        Fields {
            values: Vec::with_capacity(4 * nfields + value_bytes),
            names: Vec::new(),
            len: 0,
        }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a record with no field.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `(name, value)` pairs, in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            values: &self.values,
            names: &self.names,
            next: 0,
            len: self.len,
        }
    }

    /// The values, in order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &[u8]> {
        self.iter().map(|(_, value)| value)
    }

    /// Value `i`.
    ///
    /// # Panics
    /// If there is no field `i`, as slice indexing does.
    pub fn value(&self, i: usize) -> &[u8] {
        let at = self
            .offset(i)
            .unwrap_or_else(|| panic!("field {i} of a {}-field record", self.len));
        split_item(&self.values[at..]).0
    }

    /// Append a field.
    ///
    /// # Panics
    /// If the name or the value exceeds `u32::MAX` bytes.
    pub(crate) fn push(&mut self, name: &str, value: &[u8]) {
        self.push_with(name, |values| values.extend_from_slice(value));
    }

    /// Append a field whose value `write` appends to the buffer.
    pub(crate) fn push_with(&mut self, name: &str, write: impl FnOnce(&mut Vec<u8>)) {
        if !self.names.is_empty() {
            push_name(&mut self.names, name);
        } else if NAMES.get(self.len) != Some(&name) {
            for positional in &NAMES[..self.len] {
                push_name(&mut self.names, positional);
            }
            push_name(&mut self.names, name);
        }
        let at = self.values.len();
        self.values.extend_from_slice(&[0; 4]);
        write(&mut self.values);
        let len = header_word::<u32>(self.values.len() - at - 4, "value length");
        self.values[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.len += 1;
    }

    /// Buffer offset of field `i`'s length word.
    fn offset(&self, i: usize) -> Option<usize> {
        if i >= self.len {
            return None;
        }
        Some((0..i).fold(0, |at, _| at + 4 + item_len(&self.values[at..])))
    }
}

/// Iterator over a record's `(name, value)` pairs.
pub struct Iter<'a> {
    values: &'a [u8],
    names: &'a [u8],
    next: usize,
    len: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == self.len {
            return None;
        }
        let (value, rest) = split_item(self.values);
        self.values = rest;
        // No names stored: every one is positional, so within the table.
        let name = if self.names.is_empty() {
            NAMES[self.next]
        } else {
            let (name, rest) = split_item(self.names);
            self.names = rest;
            std::str::from_utf8(name).expect("names are pushed as str")
        };
        self.next += 1;
        Some((name, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Fields {
    type Item = (&'a str, &'a [u8]);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl<N: AsRef<str>, V: AsRef<[u8]>> FromIterator<(N, V)> for Fields {
    fn from_iter<I: IntoIterator<Item = (N, V)>>(iter: I) -> Fields {
        let mut fields = Fields::default();
        for (name, value) in iter {
            fields.push(name.as_ref(), value.as_ref());
        }
        fields
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Record {
    /// Build a YCSB-style record with positional field names.
    pub fn ycsb(key: &str, values: &[Vec<u8>]) -> Record {
        let mut fields = Fields::with_capacity(values.len(), values.iter().map(Vec::len).sum());
        for (i, value) in values.iter().enumerate() {
            fields.push(&ycsb_field_name(i), value);
        }
        Record {
            key: key.to_string(),
            fields,
        }
    }

    /// Replace value `i`, splicing the buffer. `false`, and nothing
    /// changed, when there is no field `i`.
    ///
    /// # Panics
    /// If the value exceeds `u32::MAX` bytes.
    pub fn set_field(&mut self, i: usize, value: &[u8]) -> bool {
        let Some(at) = self.fields.offset(i) else {
            return false;
        };
        let len = header_word::<u32>(value.len(), "value length");
        let (start, old_end) = (at + 4, at + 4 + item_len(&self.fields.values[at..]));
        let new_end = start + value.len();
        let values = &mut self.fields.values;
        // A new length moves the fields behind it in one `memmove`; then the
        // value is copied in.
        if new_end != old_end {
            let total = values.len() - old_end + new_end;
            if new_end > old_end {
                values.resize(total, 0);
            }
            values.copy_within(old_end..old_end + (total - new_end), new_end);
            values.truncate(total);
        }
        values[start..new_end].copy_from_slice(value);
        values[at..start].copy_from_slice(&len.to_le_bytes());
        true
    }

    /// Total value bytes.
    pub fn value_bytes(&self) -> usize {
        self.fields.values.len() - 4 * self.fields.len
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

/// Length of [`encode_record`]'s bytes for `rec`.
pub fn encoded_len(rec: &Record) -> usize {
    let names: usize = rec.fields.iter().map(|(name, _)| name.len()).sum();
    8 + rec.key.len() + 8 * rec.fields.len() + names + rec.value_bytes()
}

/// Marshal a record to bytes.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(rec));
    encode_record_into(rec, &mut out);
    out
}

/// Append [`encode_record`]'s bytes for `rec` to `out`.
pub fn encode_record_into(rec: &Record, out: &mut Vec<u8>) {
    write_record_header(out, &rec.key, rec.fields.len());
    for (name, value) in &rec.fields {
        write_field_header(out, name, value.len());
        out.extend_from_slice(value);
    }
}

/// Unmarshal a record. Returns `None` on malformed input, including bytes
/// after the last field. Every value is checked and copied into the
/// record's one buffer, sized once from the input; a positional name is
/// not stored, any other name is, so every record round-trips exactly.
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
    // cannot hold sizes no allocation, and the values fit in what is left.
    if nfields > b.len() / 8 {
        return None;
    }
    let mut fields = Fields::with_capacity(nfields, b.len() - 8 * nfields);
    for _ in 0..nfields {
        let namelen = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
        let datalen = u32::from_le_bytes(take(&mut b, 4)?.try_into().ok()?) as usize;
        let name = std::str::from_utf8(take(&mut b, namelen)?).ok()?;
        fields.push(name, take(&mut b, datalen)?);
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
            let bytes = encode_record(&rec);
            prop_assert_eq!(bytes.len(), encoded_len(&rec));
            prop_assert_eq!(decode_record(&bytes), Some(rec));
        }

        /// Arbitrary names round-trip byte for byte — positional ones at the
        /// wrong index (`"field3"` at position 5) included — and a record
        /// stores names iff one of them is not its position's.
        #[test]
        fn names_round_trip_and_only_other_names_are_stored(
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
                fields: names.iter().map(|n| (n, [1u8])).collect(),
            };
            let back = decode_record(&encode_record(&rec)).expect("decodes");
            prop_assert_eq!(&back, &rec);
            let got: Vec<&str> = back.fields.iter().map(|(name, _)| name).collect();
            prop_assert_eq!(&got, &names);
            let positional = names.iter().enumerate().all(|(i, n)| NAMES.get(i) == Some(&n.as_str()));
            prop_assert_eq!(back.fields.names.is_empty(), positional);
        }

        /// Any sequence of `set_field` calls, values growing and shrinking,
        /// leaves the record a `Vec<Vec<u8>>` model holds, and the result
        /// round-trips through the codec.
        #[test]
        fn set_field_matches_a_vec_of_values(
            start in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..12),
            sets in proptest::collection::vec(
                (0usize..14, proptest::collection::vec(any::<u8>(), 0..80)),
                0..24,
            ),
        ) {
            let mut model = start.clone();
            let mut rec = Record::ycsb("k", &start);
            for (i, value) in &sets {
                prop_assert_eq!(rec.set_field(*i, value), *i < model.len());
                if let Some(slot) = model.get_mut(*i) {
                    slot.clone_from(value);
                }
                prop_assert_eq!(&rec, &Record::ycsb("k", &model));
            }
            let values: Vec<&[u8]> = rec.fields.values().collect();
            prop_assert_eq!(values, model.iter().map(Vec::as_slice).collect::<Vec<_>>());
            prop_assert_eq!(rec.value_bytes(), model.iter().map(Vec::len).sum::<usize>());
            prop_assert_eq!(decode_record(&encode_record(&rec)), Some(rec));
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
            let rec = Record { key, fields: Fields::default() };
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
                .map(|i| (ycsb_field_name(i), b""))
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

    /// The wire bytes of the one-buffer record are the ones the record of
    /// per-field vectors encoded: positional names, an empty value, and a
    /// record whose second name is not its position's.
    #[test]
    fn encoded_bytes_are_pinned() {
        let ycsb = Record::ycsb("k1", &[b"ab".to_vec(), vec![]]);
        let want: &[u8] = &[
            0x52, 0x4a, 2, 0, 2, 0, 0, 0, b'k', b'1', //
            6, 0, 0, 0, 2, 0, 0, 0, b'f', b'i', b'e', b'l', b'd', b'0', b'a', b'b', //
            6, 0, 0, 0, 0, 0, 0, 0, b'f', b'i', b'e', b'l', b'd', b'1',
        ];
        assert_eq!(encode_record(&ycsb), want);
        let named = Record {
            key: "k".to_string(),
            fields: [("field0", &b"x"[..]), ("id", &b"yz"[..])]
                .into_iter()
                .collect(),
        };
        let want: &[u8] = &[
            0x52, 0x4a, 2, 0, 1, 0, 0, 0, b'k', //
            6, 0, 0, 0, 1, 0, 0, 0, b'f', b'i', b'e', b'l', b'd', b'0', b'x', //
            2, 0, 0, 0, 2, 0, 0, 0, b'i', b'd', b'y', b'z',
        ];
        assert_eq!(encode_record(&named), want);
        assert_eq!(decode_record(want), Some(named));
    }

    #[test]
    fn empty_record() {
        let rec = Record {
            key: String::new(),
            fields: Fields::default(),
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
    fn ycsb_names_are_positional_and_not_stored() {
        let rec = Record::ycsb("k", &[vec![1], vec![2]]);
        let names: Vec<&str> = rec.fields.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["field0", "field1"]);
        assert!(rec.fields.names.is_empty());
        assert_eq!(rec.fields.value(1), [2]);
        assert_eq!(rec.value_bytes(), 2);
    }

    /// Past the static table a positional name is stored like any other.
    #[test]
    fn names_past_the_table_are_stored() {
        let rec = Record::ycsb("k", &vec![vec![7]; 17]);
        assert!(!rec.fields.names.is_empty());
        assert_eq!(rec.fields.iter().last(), Some(("field16", &[7u8][..])));
        assert_eq!(decode_record(&encode_record(&rec)), Some(rec));
    }

    #[test]
    fn set_field_past_the_last_field_changes_nothing() {
        let mut rec = Record::ycsb("k", &[b"a".to_vec()]);
        assert!(!rec.set_field(1, b"b"));
        assert!(rec.set_field(0, b"longer"));
        assert_eq!(rec, Record::ycsb("k", &[b"longer".to_vec()]));
    }
}

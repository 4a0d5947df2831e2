//! On-media layout: superblock fields and the one-word block header of
//! Table 2.

use crate::error::HeapError;

/// Bytes reserved at the start of the pool for the superblock.
pub const SUPERBLOCK_BYTES: u64 = 4096;

/// Size in bytes of the per-block header word.
pub const HEADER_BYTES: u64 = 8;

/// The null block index. Block 0 lies inside the superblock region and is
/// never allocatable, so 0 doubles as "no next block" / "null reference".
pub const NULL_BLOCK: u64 = 0;

/// Maximum class id representable in the 15-bit header field.
pub const CLASS_ID_MAX: u16 = (1 << 15) - 1;

/// Reserved class id marking a pool span (§4.4 small-object pools) in its
/// master word. A span is not an ordinary master: recovery treats it
/// specially, reclaiming individual slots.
pub const CLASS_ID_POOL: u16 = 1;

/// First class id handed out to user classes by the `jnvm` registry.
/// Ids below this are reserved for the heap/runtime.
pub const FIRST_USER_CLASS_ID: u16 = 16;

/// Bytes of a pool span (§4.4 small-object pools): the run of blocks one
/// pool header and one meta word cover, at least one block. Spans fill
/// their own region at the top of the heap (see `BlockHeap::take_span`).
pub const SPAN_BYTES: u64 = 4096;

// Superblock field offsets (bytes from pool start). The two cursors share
// the first cache line, so one line's image holds both.
pub(crate) const SB_MAGIC: u64 = 0;
pub(crate) const SB_VERSION: u64 = 8;
pub(crate) const SB_BLOCK_SIZE: u64 = 12;
pub(crate) const SB_NBLOCKS: u64 = 16;
pub(crate) const SB_BUMP: u64 = 24;
pub(crate) const SB_SPAN_FLOOR: u64 = 32;
pub(crate) const SB_DATA_START: u64 = 40;
pub(crate) const SB_ROOT_SLOTS: u64 = 48;
pub(crate) const ROOT_SLOT_COUNT: u64 = 8;

pub(crate) const HEAP_MAGIC: u64 = 0x4a4e564d48454150; // "JNVMHEAP"
/// Bumped whenever what the heap holds changes in a way an older build
/// would misread: 3 is the failure-atomic redo log of one-word entry heads,
/// its entries starting on the log's second cache line (an older pool may
/// hold a committed log of version-2 two-word heads or version-1 block
/// copies, which must be refused, not mis-replayed); 4 keeps the same bytes
/// but puts mutable objects with references — map entries, records — in
/// pool slots, which a version-3 build's recovery would mis-trace; 5 (log
/// format 4) puts the class id in an ALLOC entry, because a slot a
/// failure-atomic block allocates has no mini-header on media until the
/// block applies, and keeps a string map entry's key inside the entry — a
/// version-4 build would replay such an allocation with class id 0 and
/// read a key's length as the reference to a key object; 6 lets a reference
/// word carry a tag above [`REF_ADDR_MASK`] — a kvstore record's reference
/// to a field value holds the value's slack there, and the value stores no
/// length word — which a version-5 build would trace as an address, and
/// whose value's first 8 bytes it would read as a length; 7 moves a
/// record's field count from its first payload word into the tag of the
/// reference to it, and starts its reference array at payload offset 0 —
/// a version-6 build would read a field reference as the count; 8 (log
/// format 5) adds the LINK entry and makes the log's first word its
/// length, nonzero while committed — a version-7 build would read that
/// length as its committed flag and refuse a LINK as an unknown kind; 9
/// moves pool slots out of single pool blocks into 4-KiB spans of their
/// own region at the top of the heap, on an 8-byte class ladder, adds the
/// span floor to the superblock, and takes a key's map shard from the high
/// half of its hash — a version-8 build would read a span's interior as
/// block headers and look keys up in the wrong map.
pub(crate) const HEAP_VERSION: u32 = 9;

/// The address bits of a persistent reference word. Every heap address is
/// below 2^48 (the redo log's entry heads and a header's `next` field rely
/// on it too), so a class may keep a tag in the 16 bits above: recovery
/// masks a reference word before it checks or visits the target, and
/// nullifies a dangling one by storing 0 — null is the word 0, tag and all.
pub const REF_ADDR_MASK: u64 = (1 << 48) - 1;

/// Decoded block header (and pooled-object mini-header — same format).
///
/// Encoding: `id` in bits 49..64, `valid` in bit 48, `next` (block index) in
/// bits 0..48, exactly 15 + 1 + 48 bits as in Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Class id; 0 for slave and free blocks.
    pub id: u16,
    /// Validity bit (§3.2.3): an object is alive only if reachable *and*
    /// valid.
    pub valid: bool,
    /// Next block of the object's chain, or [`NULL_BLOCK`].
    pub next: u64,
}

impl BlockHeader {
    /// Header of a free block: all zeroes.
    pub const FREE: BlockHeader = BlockHeader {
        id: 0,
        valid: false,
        next: NULL_BLOCK,
    };

    /// Encode into the on-media word.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds 15 bits or `next` exceeds 48 bits (debug
    /// assertions; both are enforced by construction elsewhere).
    pub fn encode(&self) -> u64 {
        debug_assert!(self.id <= CLASS_ID_MAX);
        debug_assert!(self.next < (1u64 << 48));
        ((self.id as u64) << 49) | ((self.valid as u64) << 48) | (self.next & ((1u64 << 48) - 1))
    }

    /// Decode from the on-media word.
    pub fn decode(word: u64) -> BlockHeader {
        BlockHeader {
            id: (word >> 49) as u16,
            valid: (word >> 48) & 1 == 1,
            next: word & ((1u64 << 48) - 1),
        }
    }

    /// A slave block belonging to some object, pointing at the next one.
    pub fn slave(next: u64) -> BlockHeader {
        BlockHeader {
            id: 0,
            valid: false,
            next,
        }
    }

    /// A master block of class `id`, initially invalid (§4.1.4: "a master
    /// block is necessarily in the invalid state" right after allocation).
    pub fn master(id: u16, next: u64) -> Result<BlockHeader, HeapError> {
        if id == 0 || id > CLASS_ID_MAX {
            return Err(HeapError::BadClassId(id));
        }
        Ok(BlockHeader {
            id,
            valid: false,
            next,
        })
    }

    /// True for a valid master block (Table 2 row 1).
    pub fn is_valid_master(&self) -> bool {
        self.id != 0 && self.valid
    }

    /// True for an invalid master block (Table 2 row 2).
    pub fn is_invalid_master(&self) -> bool {
        self.id != 0 && !self.valid
    }

    /// True for a free-or-slave header (Table 2 row 3).
    pub fn is_free_or_slave(&self) -> bool {
        self.id == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let cases = [
            BlockHeader {
                id: 0,
                valid: false,
                next: 0,
            },
            BlockHeader {
                id: 1,
                valid: true,
                next: 0,
            },
            BlockHeader {
                id: CLASS_ID_MAX,
                valid: true,
                next: (1u64 << 48) - 1,
            },
            BlockHeader {
                id: 1234,
                valid: false,
                next: 99_999,
            },
        ];
        for h in cases {
            assert_eq!(BlockHeader::decode(h.encode()), h);
        }
    }

    #[test]
    fn table2_states() {
        let valid_master = BlockHeader {
            id: 7,
            valid: true,
            next: 3,
        };
        assert!(valid_master.is_valid_master());
        assert!(!valid_master.is_invalid_master());
        assert!(!valid_master.is_free_or_slave());

        let invalid_master = BlockHeader {
            id: 7,
            valid: false,
            next: 3,
        };
        assert!(invalid_master.is_invalid_master());
        assert!(!invalid_master.is_valid_master());

        let slave = BlockHeader::slave(5);
        assert!(slave.is_free_or_slave());
        assert_eq!(slave.next, 5);

        assert!(BlockHeader::FREE.is_free_or_slave());
        assert_eq!(BlockHeader::FREE.encode(), 0);
    }

    #[test]
    fn master_rejects_bad_ids() {
        assert!(BlockHeader::master(0, 0).is_err());
        assert!(BlockHeader::master(CLASS_ID_MAX, 0).is_ok());
    }

    #[test]
    fn valid_bit_is_bit_48() {
        let h = BlockHeader {
            id: 0x7fff,
            valid: true,
            next: 0,
        };
        assert_eq!(h.encode() >> 48 & 1, 1);
        let h2 = BlockHeader {
            id: 0x7fff,
            valid: false,
            next: 0,
        };
        assert_eq!(h2.encode() >> 48 & 1, 0);
    }
}

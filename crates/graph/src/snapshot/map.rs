//! Zero-copy views over the memory-mapped snapshot.
//!
//! A [`MappedSlice`] is a byte range of the map that keeps the mapping alive
//! through a shared `Arc`; the typed accessors reinterpret those bytes as
//! little-endian integer arrays in place. Section payloads start at 8-byte
//! aligned file offsets and the map base is page-aligned (the memmap2 shim's
//! fallback buffer is also 8-byte aligned), so the casts are alignment-sound
//! by construction — the accessors still re-check at runtime and report a
//! typed error instead of invoking undefined behaviour on a malformed file.

use std::sync::Arc;

use crate::ids::{LabelId, NodeId};
use crate::snapshot::error::SnapshotError;

/// A byte range of a snapshot map, holding the map alive.
#[derive(Clone)]
pub struct MappedSlice {
    map: Arc<memmap2::Mmap>,
    offset: usize,
    len: usize,
}

impl MappedSlice {
    /// A view of `map[offset .. offset + len]`. Bounds were checked by the
    /// section-table parser.
    pub(crate) fn new(map: Arc<memmap2::Mmap>, offset: usize, len: usize) -> MappedSlice {
        debug_assert!(offset + len <= map.len());
        MappedSlice { map, offset, len }
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.map[self.offset..self.offset + self.len]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes as a `u32` array (zero-copy).
    pub fn as_u32s(&self) -> Result<&[u32], SnapshotError> {
        cast_words(self.bytes())
    }

    /// The bytes as a `u64` array (zero-copy).
    pub fn as_u64s(&self) -> Result<&[u64], SnapshotError> {
        cast_words(self.bytes())
    }

    /// The bytes as a [`NodeId`] array (zero-copy; `NodeId` is
    /// `repr(transparent)` over `u32`).
    pub fn as_node_ids(&self) -> Result<&[NodeId], SnapshotError> {
        let words = self.as_u32s()?;
        // SAFETY: `NodeId` is `repr(transparent)` over `u32`, so a valid
        // `&[u32]` is a valid `&[NodeId]` of the same length and lifetime.
        Ok(unsafe { std::slice::from_raw_parts(words.as_ptr() as *const NodeId, words.len()) })
    }
}

impl std::fmt::Debug for MappedSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSlice")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .finish()
    }
}

/// A word type whose every bit pattern is a value, so aligned bytes of a
/// whole number of words can be read as it in place.
trait Word: Copy {}
impl Word for u32 {}
impl Word for u64 {}

/// Aligned word cast with typed failure.
fn cast_words<T: Word>(bytes: &[u8]) -> Result<&[T], SnapshotError> {
    let size = std::mem::size_of::<T>();
    if !bytes.len().is_multiple_of(size) {
        return Err(SnapshotError::malformed(format!(
            "section of {} bytes is not a whole number of {} words",
            bytes.len(),
            std::any::type_name::<T>()
        )));
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err(SnapshotError::malformed(format!(
            "section is not aligned for {} access",
            std::any::type_name::<T>()
        )));
    }
    // SAFETY: the pointer is aligned for `T` and `bytes.len() / size` words
    // span exactly `bytes`, both checked above; `T: Word` accepts every bit
    // pattern; the result borrows `bytes`, so it cannot outlive them.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) })
}

/// Whether `(LabelId, NodeId)` tuples can alias interleaved `[label, node]`
/// `u32` pairs in memory.
///
/// Tuples are `repr(Rust)`, whose field order is formally unspecified, so
/// the loader probes the actual layout of this build once instead of
/// assuming it: both fields are `u32` (size 8, no padding), and the probe
/// checks that the label is stored first. When the probe fails the loader
/// falls back to an owned copy of the mixed adjacency — correct either way,
/// zero-copy when possible (every current rustc lays this tuple label-first).
pub(crate) fn pair_layout_is_label_first() -> bool {
    if std::mem::size_of::<(LabelId, NodeId)>() != 8
        || std::mem::align_of::<(LabelId, NodeId)>() != 4
    {
        return false;
    }
    let probe: [(LabelId, NodeId); 2] = [
        (LabelId(0x0102_0304), NodeId(0x0506_0708)),
        (LabelId(0x090A_0B0C), NodeId(0x0D0E_0F10)),
    ];
    // SAFETY: `probe` is 16 initialised bytes (size checked above, no
    // padding between two `u32` fields), any byte is a valid `u8`, and the
    // view does not outlive `probe`.
    let bytes = unsafe { std::slice::from_raw_parts(probe.as_ptr() as *const u8, 16) };
    let mut expected = Vec::with_capacity(16);
    for word in [0x0102_0304u32, 0x0506_0708, 0x090A_0B0C, 0x0D0E_0F10] {
        expected.extend_from_slice(&word.to_ne_bytes());
    }
    bytes == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_layout_probe_passes_on_this_build() {
        // If this ever fails the loader silently degrades to owned copies of
        // the mixed adjacency; the assertion documents which world we're in.
        assert!(pair_layout_is_label_first());
    }

    #[test]
    fn cast_words_rejects_ragged_lengths_and_misaligned_starts() {
        #[repr(C, align(8))]
        struct Aligned([u8; 24]);
        let buf = Aligned([0; 24]);
        let bytes = &buf.0;
        assert_eq!(cast_words::<u32>(&bytes[..8]).unwrap(), &[0, 0]);
        assert_eq!(cast_words::<u64>(&bytes[..16]).unwrap(), &[0, 0]);
        let malformed =
            |r: Result<&[u32], SnapshotError>| matches!(r, Err(SnapshotError::Malformed { .. }));
        assert!(malformed(cast_words(&bytes[..10])));
        assert!(malformed(cast_words(&bytes[1..9])));
        assert!(matches!(
            cast_words::<u64>(&bytes[4..12]),
            Err(SnapshotError::Malformed { .. })
        ));
    }
}

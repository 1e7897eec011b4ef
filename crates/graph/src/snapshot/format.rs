//! The on-disk snapshot container: magic, version, section table, checksums.
//!
//! A snapshot is a single file holding every array the frozen engine needs,
//! laid out so the loader can hand out zero-copy views over a memory map:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "OMEGSNAP"
//! 8       4     format version (u32, little-endian)
//! 12      4     endianness marker 0x0A0B0C0D (u32, little-endian)
//! 16      8     section count (u64, little-endian)
//! 24      32*k  section table: kind u32, param u32, offset u64,
//!               length u64, checksum u64  (one row per section)
//! …             section payloads, each starting at an 8-byte-aligned
//!               offset, zero-padded in between
//! ```
//!
//! All integers are little-endian. Integer-array sections are sequences of
//! little-endian `u32`/`u64` words starting at an 8-byte-aligned file
//! offset, which (with the map base being page-aligned) makes
//! reinterpreting the mapped bytes as `&[u32]`/`&[u64]` sound on
//! little-endian hosts. Each section carries an FNV-1a 64-bit checksum of
//! its payload bytes, verified on open; the header and section table are
//! validated structurally (magic, version, endianness marker, kind tags,
//! alignment and bounds of every row) as [`crate::bytes`] reads them.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::bytes::{Reader, Writer};
use crate::snapshot::error::SnapshotError;
use crate::snapshot::map::MappedSlice;

/// Count of parent-directory fsyncs performed after snapshot renames. A
/// test probe: regression coverage for the crash window where a rename is
/// visible but not yet durable.
static DIR_SYNCS: AtomicU64 = AtomicU64::new(0);

/// Number of parent-directory fsyncs performed by [`SnapshotWriter::write_to`]
/// since process start.
#[doc(hidden)]
pub fn dir_syncs() -> u64 {
    DIR_SYNCS.load(Ordering::Relaxed)
}

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"OMEGSNAP";
/// Format version written and understood by this build.
pub const FORMAT_VERSION: u32 = 1;
/// Marker word proving the file (and, for zero-copy loads, the host) is
/// little-endian.
pub const ENDIAN_MARKER: u32 = 0x0A0B_0C0D;
/// Size of one section-table row in bytes.
const TABLE_ROW: usize = 32;
/// Fixed header size preceding the section table.
const HEADER: usize = 24;

/// What a section holds. The `param` of a [`SectionId`] qualifies the kind
/// (e.g. which label and direction a CSR array belongs to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SectionKind {
    /// Graph-wide counts: node count, label count, edge count, `type` label.
    Meta,
    /// `u64[node_count + 1]` byte offsets into [`SectionKind::NodeLabelBytes`].
    NodeLabelOffsets,
    /// Concatenated UTF-8 node label strings.
    NodeLabelBytes,
    /// `u64[label_count + 1]` byte offsets into [`SectionKind::EdgeLabelBytes`].
    EdgeLabelOffsets,
    /// Concatenated UTF-8 edge label strings.
    EdgeLabelBytes,
    /// One `(label, direction)` CSR offset array, `u32[node_count + 1]`;
    /// `param = label * 2 + direction` (0 = outgoing, 1 = incoming).
    CsrOffsets,
    /// The matching CSR neighbour array, `u32[]`.
    CsrTargets,
    /// Mixed-label CSR offset array, `u32[node_count + 1]`; `param` is the
    /// direction.
    MixedOffsets,
    /// Mixed-label CSR entries, interleaved `(label, node)` `u32` pairs.
    MixedEntries,
    /// The ontology image: hierarchies, domain/range, interned closures.
    Ontology,
    /// Per-label cardinalities (`u64` words: label count, then
    /// `(edges, distinct_tails, distinct_heads)` per label). Optional —
    /// images written before this section existed open fine and recompute
    /// the statistics lazily.
    LabelStats,
}

impl SectionKind {
    /// The wire tag of this kind.
    pub fn tag(self) -> u32 {
        match self {
            SectionKind::Meta => 0,
            SectionKind::NodeLabelOffsets => 1,
            SectionKind::NodeLabelBytes => 2,
            SectionKind::EdgeLabelOffsets => 3,
            SectionKind::EdgeLabelBytes => 4,
            SectionKind::CsrOffsets => 5,
            SectionKind::CsrTargets => 6,
            SectionKind::MixedOffsets => 7,
            SectionKind::MixedEntries => 8,
            SectionKind::Ontology => 9,
            SectionKind::LabelStats => 10,
        }
    }

    /// The kind for a wire tag.
    pub fn from_tag(tag: u32) -> Option<SectionKind> {
        Some(match tag {
            0 => SectionKind::Meta,
            1 => SectionKind::NodeLabelOffsets,
            2 => SectionKind::NodeLabelBytes,
            3 => SectionKind::EdgeLabelOffsets,
            4 => SectionKind::EdgeLabelBytes,
            5 => SectionKind::CsrOffsets,
            6 => SectionKind::CsrTargets,
            7 => SectionKind::MixedOffsets,
            8 => SectionKind::MixedEntries,
            9 => SectionKind::Ontology,
            10 => SectionKind::LabelStats,
            _ => return None,
        })
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SectionKind::Meta => "meta",
            SectionKind::NodeLabelOffsets => "node-label-offsets",
            SectionKind::NodeLabelBytes => "node-label-bytes",
            SectionKind::EdgeLabelOffsets => "edge-label-offsets",
            SectionKind::EdgeLabelBytes => "edge-label-bytes",
            SectionKind::CsrOffsets => "csr-offsets",
            SectionKind::CsrTargets => "csr-targets",
            SectionKind::MixedOffsets => "mixed-offsets",
            SectionKind::MixedEntries => "mixed-entries",
            SectionKind::Ontology => "ontology",
            SectionKind::LabelStats => "label-stats",
        };
        f.write_str(name)
    }
}

/// A section's identity: its kind plus the kind-specific parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SectionId {
    /// What the section holds.
    pub kind: SectionKind,
    /// Kind-specific qualifier (label/direction encoding, or 0).
    pub param: u32,
}

impl SectionId {
    /// A section id with parameter 0.
    pub fn plain(kind: SectionKind) -> SectionId {
        SectionId { kind, param: 0 }
    }

    /// The id of a per-(label, direction) CSR array section.
    pub fn csr(kind: SectionKind, label: u32, incoming: bool) -> SectionId {
        SectionId {
            kind,
            param: label * 2 + incoming as u32,
        }
    }
}

impl fmt::Display for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.param == 0 {
            write!(f, "{}", self.kind)
        } else {
            write!(f, "{}#{}", self.kind, self.param)
        }
    }
}

/// FNV-1a 64-bit checksum over 8-byte little-endian words (the tail is
/// zero-padded): one multiply per word instead of per byte, so verifying a
/// large image at open time runs near memory speed while staying tiny,
/// dependency-free and deterministic across platforms.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash ^= u64::from_le_bytes(word);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Serialises a `u32` slice as a little-endian payload.
pub fn u32_payload(values: impl IntoIterator<Item = u32>) -> Vec<u8> {
    let iter = values.into_iter();
    let mut w = Writer::with_capacity(iter.size_hint().0 * 4);
    iter.for_each(|v| w.put_u32(v));
    w.into_inner()
}

/// Serialises a `u64` slice as a little-endian payload.
pub fn u64_payload(values: impl IntoIterator<Item = u64>) -> Vec<u8> {
    let iter = values.into_iter();
    let mut w = Writer::with_capacity(iter.size_hint().0 * 8);
    iter.for_each(|v| w.put_u64(v));
    w.into_inner()
}

/// Accumulates sections and writes the container file.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(SectionId, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Adds a section. Sections are written in insertion order.
    pub fn add(&mut self, id: SectionId, payload: Vec<u8>) {
        self.sections.push((id, payload));
    }

    /// Writes the container to `path` atomically: the bytes go to a
    /// uniquely named sibling temp file (so concurrent writers — even to
    /// different targets sharing a stem — never interleave), are fsynced,
    /// and only then renamed into place, so a crash never leaves a
    /// half-written snapshot at the target path. The parent directory is
    /// fsynced after the rename: the rename itself is a directory mutation,
    /// and without flushing it a crash can roll the directory back to an
    /// entry-less state even though the file's blocks are durable.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let file_name = path
            .file_name()
            .ok_or_else(|| SnapshotError::malformed("snapshot path has no file name"))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = path.with_file_name(tmp_name);
        let result = self
            .write_file(&tmp)
            .and_then(|()| std::fs::rename(&tmp, path).map_err(SnapshotError::from))
            .and_then(|()| {
                let parent = match path.parent() {
                    Some(dir) if !dir.as_os_str().is_empty() => dir,
                    _ => Path::new("."),
                };
                crate::wal::sync_dir(parent).map_err(SnapshotError::from)?;
                DIR_SYNCS.fetch_add(1, Ordering::Relaxed);
                Ok(())
            });
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result
    }

    fn write_file(&self, path: &Path) -> Result<(), SnapshotError> {
        // Header and section table, payloads laid out 8-byte aligned.
        let table_end = HEADER + self.sections.len() * TABLE_ROW;
        let mut w = Writer::with_capacity(table_end);
        w.put_bytes(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u32(ENDIAN_MARKER);
        w.put_usize(self.sections.len());
        let mut offset = next_aligned(table_end as u64);
        for (id, payload) in &self.sections {
            w.put_u32(id.kind.tag());
            w.put_u32(id.param);
            w.put_u64(offset);
            w.put_usize(payload.len());
            w.put_u64(checksum(payload));
            offset = next_aligned(offset + payload.len() as u64);
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(w.bytes())?;
        let mut written = table_end as u64;
        for (_, payload) in &self.sections {
            let pad = next_aligned(written) - written;
            file.write_all(&[0; 8][..pad as usize])?;
            file.write_all(payload)?;
            written += pad + payload.len() as u64;
        }
        file.flush()?;
        // Durability before the rename: without this, a power loss can make
        // the rename durable while the data blocks are not.
        file.into_inner()
            .map_err(|e| SnapshotError::Io(e.to_string()))?
            .sync_all()?;
        Ok(())
    }
}

/// The next 8-byte-aligned offset at or after `offset`.
fn next_aligned(offset: u64) -> u64 {
    (offset + 7) & !7
}

/// One parsed row of the section table.
#[derive(Debug, Clone, Copy)]
pub struct SectionEntry {
    /// The section's identity.
    pub id: SectionId,
    /// Payload offset in the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Stored FNV-1a checksum of the payload.
    pub checksum: u64,
}

/// An open snapshot: the memory-mapped file plus its parsed, verified
/// section table. Sections are handed out as [`MappedSlice`]s sharing the
/// map through an `Arc`, so views stay valid for as long as any consumer
/// (e.g. a loaded graph) holds them.
#[derive(Debug)]
pub struct SnapshotReader {
    map: Arc<memmap2::Mmap>,
    table: Vec<SectionEntry>,
}

impl SnapshotReader {
    /// Opens and verifies `path`: magic, version, endianness, section table
    /// bounds and every section checksum. Corruption surfaces as a typed
    /// [`SnapshotError`], never a panic.
    pub fn open(path: &Path) -> Result<SnapshotReader, SnapshotError> {
        if cfg!(target_endian = "big") {
            // Zero-copy views reinterpret raw little-endian words.
            return Err(SnapshotError::ForeignEndianness);
        }
        let file = std::fs::File::open(path)?;
        // Safety: snapshots are written once and then treated as immutable;
        // concurrent truncation is outside the supported contract (same as
        // the real memmap2 crate).
        let map = Arc::new(unsafe { memmap2::MmapOptions::new().map(&file)? });
        let bytes: &[u8] = &map;

        let need = |expected: usize| -> Result<(), SnapshotError> {
            if bytes.len() < expected {
                Err(SnapshotError::Truncated {
                    expected: expected as u64,
                    actual: bytes.len() as u64,
                })
            } else {
                Ok(())
            }
        };
        need(HEADER)?;
        let mut r = Reader::new(bytes);
        let found = r.take_array()?;
        if found != MAGIC {
            return Err(SnapshotError::BadMagic { found });
        }
        let version = r.take_u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        if r.take_u32()? != ENDIAN_MARKER {
            return Err(SnapshotError::ForeignEndianness);
        }
        let count = r.take_u64()?;
        let table_end = (count as usize)
            .checked_mul(TABLE_ROW)
            .and_then(|t| t.checked_add(HEADER))
            .ok_or_else(|| SnapshotError::malformed("section count overflows"))?;
        need(table_end)?;

        let mut table = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let kind_tag = r.take_u32()?;
            let kind = SectionKind::from_tag(kind_tag).ok_or_else(|| {
                SnapshotError::malformed(format!("unknown section kind tag {kind_tag}"))
            })?;
            let entry = SectionEntry {
                id: SectionId {
                    kind,
                    param: r.take_u32()?,
                },
                offset: r.take_u64()?,
                len: r.take_u64()?,
                checksum: r.take_u64()?,
            };
            let end = entry.offset.checked_add(entry.len).ok_or_else(|| {
                SnapshotError::malformed(format!("section {} length overflows", entry.id))
            })?;
            if !entry.offset.is_multiple_of(8) {
                return Err(SnapshotError::malformed(format!(
                    "section {} starts at unaligned offset {}",
                    entry.id, entry.offset
                )));
            }
            if end > bytes.len() as u64 {
                return Err(SnapshotError::Truncated {
                    expected: end,
                    actual: bytes.len() as u64,
                });
            }
            table.push(entry);
        }
        // Verify every payload checksum up front: corruption is reported at
        // open time, not as a wrong answer (or panic) mid-query.
        for entry in &table {
            let payload = &bytes[entry.offset as usize..(entry.offset + entry.len) as usize];
            if checksum(payload) != entry.checksum {
                return Err(SnapshotError::ChecksumMismatch { section: entry.id });
            }
        }
        Ok(SnapshotReader { map, table })
    }

    /// The parsed section table, in file order.
    pub fn sections(&self) -> &[SectionEntry] {
        &self.table
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// The payload of section `id`, if present.
    pub fn section(&self, id: SectionId) -> Option<MappedSlice> {
        let entry = self.table.iter().find(|e| e.id == id)?;
        Some(MappedSlice::new(
            Arc::clone(&self.map),
            entry.offset as usize,
            entry.len as usize,
        ))
    }

    /// The payload of section `id`, or a [`SnapshotError::MissingSection`].
    pub fn require(&self, id: SectionId) -> Result<MappedSlice, SnapshotError> {
        self.section(id)
            .ok_or(SnapshotError::MissingSection { section: id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "omega-snapshot-format-{}-{tag}",
            std::process::id()
        ))
    }

    #[test]
    fn round_trips_sections() {
        let path = temp_path("roundtrip");
        let mut w = SnapshotWriter::new();
        w.add(SectionId::plain(SectionKind::Meta), u64_payload([4, 2]));
        w.add(
            SectionId::csr(SectionKind::CsrOffsets, 3, true),
            u32_payload([0, 1, 1, 5]),
        );
        w.write_to(&path).unwrap();

        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.sections().len(), 2);
        let meta = r.require(SectionId::plain(SectionKind::Meta)).unwrap();
        assert_eq!(meta.as_u64s().unwrap(), &[4, 2]);
        let offs = r
            .require(SectionId::csr(SectionKind::CsrOffsets, 3, true))
            .unwrap();
        assert_eq!(offs.as_u32s().unwrap(), &[0, 1, 1, 5]);
        assert!(r.section(SectionId::plain(SectionKind::Ontology)).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(SnapshotError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_version_is_typed() {
        let path = temp_path("version");
        let mut w = SnapshotWriter::new();
        w.add(SectionId::plain(SectionKind::Meta), u64_payload([1]));
        w.write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 0xFF; // clobber the version field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(SnapshotError::UnsupportedVersion { supported: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_typed() {
        let path = temp_path("truncate");
        let mut w = SnapshotWriter::new();
        w.add(SectionId::plain(SectionKind::Meta), u64_payload([1, 2, 3]));
        w.write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        // Cutting into the header is also a typed truncation.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let path = temp_path("checksum");
        let mut w = SnapshotWriter::new();
        w.add(SectionId::plain(SectionKind::Meta), u64_payload([7, 8, 9]));
        w.write_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            SnapshotReader::open(&path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_is_stable_and_tail_sensitive() {
        // Word-wise FNV-1a: empty input is the offset basis, and every byte
        // (including tail bytes) influences the result.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
        assert_ne!(checksum(b"12345678"), checksum(b"12345679"));
        assert_ne!(checksum(b"123456781"), checksum(b"12345678"));
        // A zero tail byte still extends the hashed length... the padded
        // word is identical, so guard lengths via the section table instead.
        assert_eq!(checksum(b"1234"), checksum(b"1234\0"));
    }
}

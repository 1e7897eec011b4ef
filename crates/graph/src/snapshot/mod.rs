//! Snapshot persistence: a frozen graph serialised to one versioned binary
//! image, re-opened by memory-mapping with zero-copy CSR views.
//!
//! The engine's frozen state — per-`(label, direction)` CSR offset and
//! neighbour arrays, the node/label string dictionaries, and (one layer up)
//! the ontology hierarchies with their interned closures — is written once
//! with [`SnapshotWriter`] and opened in milliseconds with
//! [`SnapshotReader`]: the big integer arrays are *not* parsed or copied,
//! they are the file, mapped into memory and wrapped in borrowed storage
//! enums inside [`crate::csr`]. This is the build-once / map-many design of
//! mmap-backed stores: startup cost becomes page-cache warm-up, and the
//! resident set is bounded by the pages a workload actually touches rather
//! than the whole graph.
//!
//! * [`mod@format`] — the container: magic, version, section table,
//!   checksums.
//! * [`map`] — zero-copy typed views over the mapping.
//! * [`image`] — graph encode/decode ([`write_graph_sections`] /
//!   [`read_graph`]).
//! * [`error`] — the typed [`SnapshotError`] (bad magic, version mismatch,
//!   endianness, truncation, checksum failure, malformed structure).
//!
//! The ontology image lives in `omega_ontology::snapshot` (it shares this
//! container via [`SectionKind::Ontology`]), and `omega_core::Database`
//! exposes the user-facing `save_snapshot` / `open_snapshot` pair.

pub mod error;
pub mod format;
pub mod image;
pub mod map;

pub use error::SnapshotError;
pub use format::{
    checksum, dir_syncs, u32_payload, u64_payload, SectionEntry, SectionId, SectionKind,
    SnapshotReader, SnapshotWriter, FORMAT_VERSION, MAGIC,
};
pub use image::{read_graph, write_graph_sections, write_graph_sections_without_stats};
pub use map::MappedSlice;

//! Snapshot persistence: round-trip fidelity, corruption handling, and
//! mapping-lifetime behaviour.
//!
//! The contract under test: a [`Database`] opened from a snapshot image is
//! *indistinguishable* from one rebuilt from the original graph and
//! ontology — identical answer sequences (same tuples, same rank order,
//! same distances) and identical [`EvalStats`] on the exact, APPROX and
//! RELAX query sets — while corruption of the image in any form surfaces as
//! a typed [`SnapshotError`] at open time, never a panic or a wrong answer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use omega::core::{EvalStats, SnapshotError};
use omega::datagen::{
    generate_l4all, generate_yago, l4all_multi_conjunct_queries, l4all_queries,
    yago_multi_conjunct_queries, yago_queries, Dataset, L4AllConfig, YagoConfig,
};
use omega::{Answer, Database, ExecOptions, GraphStore, Ontology};
use proptest::prelude::*;

/// A unique temp path per call (tests and proptest cases run concurrently).
fn temp_snapshot(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "omega-snapshot-test-{}-{tag}-{}.snapshot",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Keeps a temp file until the end of the test even on panic.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn save_and_open(db: &Database, tag: &str) -> (Database, TempFile) {
    let path = temp_snapshot(tag);
    db.save_snapshot(&path).expect("snapshot save");
    let opened = Database::open_snapshot_with(&path, db.options().clone()).expect("snapshot open");
    (opened, TempFile(path))
}

/// Drains up to `limit` answers and returns them with the stats.
/// Compile failures (e.g. a query constant absent at this dataset scale)
/// are returned, not panicked: both databases must fail identically too.
fn drain(
    db: &Database,
    text: &str,
    request: &ExecOptions,
) -> Result<(Vec<Answer>, EvalStats), omega::core::OmegaError> {
    let prepared = db.prepare(text)?;
    let mut stream = prepared.answers(request);
    let answers = stream.collect_up_to(None)?;
    Ok((answers, stream.stats()))
}

/// Asserts rebuilt and snapshot-backed databases agree on the full ordered
/// answer sequence *and* the evaluator counters for `text` — or fail with
/// the same error.
fn assert_identical(rebuilt: &Database, snapshot: &Database, text: &str, request: &ExecOptions) {
    match (
        drain(rebuilt, text, request),
        drain(snapshot, text, request),
    ) {
        (Ok((expected, expected_stats)), Ok((got, got_stats))) => {
            assert_eq!(got, expected, "answer sequence diverged on {text}");
            assert_eq!(got_stats, expected_stats, "EvalStats diverged on {text}");
        }
        (Err(expected), Err(got)) => {
            assert_eq!(got, expected, "error diverged on {text}");
        }
        (expected, got) => {
            panic!("one side failed on {text}: rebuilt {expected:?}, snapshot {got:?}")
        }
    }
}

// ----------------------------------------------------------------------
// Round-trip fidelity on the paper's query sets
// ----------------------------------------------------------------------

fn dataset_db(dataset: &Dataset) -> Database {
    Database::new(dataset.graph.clone(), dataset.ontology.clone())
}

/// The top `limit` answers under the tuple budget of the dataset runs.
fn budgeted(limit: usize) -> ExecOptions {
    ExecOptions::new()
        .with_limit(limit)
        .with_max_tuples(500_000)
}

#[test]
fn l4all_query_sets_are_bit_identical_after_reopen() {
    let dataset = generate_l4all(&L4AllConfig::tiny());
    let rebuilt = dataset_db(&dataset);
    let (snapshot, _guard) = save_and_open(&rebuilt, "l4all");
    for spec in l4all_queries() {
        for operator in ["", "APPROX", "RELAX"] {
            assert_identical(
                &rebuilt,
                &snapshot,
                &spec.with_operator(operator),
                &budgeted(100),
            );
        }
    }
    for spec in l4all_multi_conjunct_queries() {
        for operator in ["", "APPROX"] {
            assert_identical(
                &rebuilt,
                &snapshot,
                &spec.with_operator_everywhere(operator),
                &budgeted(50),
            );
        }
    }
}

#[test]
fn yago_query_sets_are_bit_identical_after_reopen() {
    let dataset = generate_yago(&YagoConfig::scaled(0.1));
    let rebuilt = dataset_db(&dataset);
    let (snapshot, _guard) = save_and_open(&rebuilt, "yago");
    for spec in yago_queries() {
        for operator in ["", "APPROX", "RELAX"] {
            assert_identical(
                &rebuilt,
                &snapshot,
                &spec.with_operator(operator),
                &budgeted(100),
            );
        }
    }
    for spec in yago_multi_conjunct_queries() {
        for operator in ["", "APPROX"] {
            assert_identical(
                &rebuilt,
                &snapshot,
                &spec.with_operator_everywhere(operator),
                &budgeted(50),
            );
        }
    }
}

/// Four threads share one snapshot-backed database, and so one mapping:
/// each of their executions matches the rebuilt database's, answers and
/// counters alike.
#[test]
fn parallel_execution_agrees_on_a_snapshot_backed_database() {
    let dataset = generate_l4all(&L4AllConfig::tiny());
    let rebuilt = dataset_db(&dataset);
    let (snapshot, _guard) = save_and_open(&rebuilt, "parallel");
    let text = l4all_multi_conjunct_queries()[0].with_operator_everywhere("APPROX");
    let request = budgeted(50);
    let reference = drain(&rebuilt, &text, &request).unwrap();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| assert_eq!(drain(&snapshot, &text, &request).unwrap(), reference));
        }
    });
}

// ----------------------------------------------------------------------
// Property test: random graphs round-trip losslessly
// ----------------------------------------------------------------------

const LABELS: [&str; 4] = ["p", "q", "r", "type"];

fn graph_strategy() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((0u8..12, 0usize..LABELS.len(), 0u8..12), 1..60)
}

fn build(triples: &[(u8, usize, u8)]) -> (GraphStore, Ontology) {
    let mut g = GraphStore::new();
    for (s, p, o) in triples {
        if LABELS[*p] == "type" {
            g.add_triple(&format!("n{s}"), "type", &format!("C{}", o % 3));
        } else {
            g.add_triple(&format!("n{s}"), LABELS[*p], &format!("n{o}"));
        }
    }
    let mut o = Ontology::new();
    let root = g.add_node("CRoot");
    for c in 0..3 {
        if let Some(class) = g.node_by_label(&format!("C{c}")) {
            let _ = o.add_subclass(class, root);
        }
    }
    if let (Some(p), Some(q)) = (g.label_id("p"), g.label_id("q")) {
        let super_p = g.intern_label("super_p");
        let _ = o.add_subproperty(p, super_p);
        let _ = o.add_subproperty(q, super_p);
    }
    (g, o)
}

const QUERIES: [&str; 5] = [
    "(?X, ?Y) <- (?X, p.q, ?Y)",
    "(?X, ?Y) <- APPROX (?X, p+, ?Y)",
    "(?X, ?Y) <- RELAX (?X, super_p, ?Y)",
    "(?X, ?Y) <- RELAX (?X, type.type-, ?Y)",
    "(?X, ?Z) <- (?X, p, ?Y), (?Y, q|r, ?Z)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Saving and re-opening a random database changes nothing observable:
    /// same ordered answers, same distances, same evaluator counters, for
    /// every operator mode.
    #[test]
    fn random_databases_round_trip_losslessly(triples in graph_strategy(), qi in 0usize..QUERIES.len()) {
        let (g, o) = build(&triples);
        let rebuilt = Database::new(g, o);
        let (snapshot, _guard) = save_and_open(&rebuilt, "prop");
        let request = ExecOptions::new().with_limit(200).with_max_tuples(200_000);
        assert_identical(&rebuilt, &snapshot, QUERIES[qi], &request);
    }
}

// ----------------------------------------------------------------------
// Corruption: every failure mode is a typed error, never a panic
// ----------------------------------------------------------------------

fn small_snapshot(tag: &str) -> (Vec<u8>, TempFile) {
    let mut g = GraphStore::new();
    g.add_triple("alice", "knows", "bob");
    g.add_triple("bob", "worksAt", "acme");
    g.add_triple("alice", "type", "Person");
    let db = Database::new(g, Ontology::new());
    let path = temp_snapshot(tag);
    db.save_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (bytes, TempFile(path))
}

/// The three fixed queries a damaged image that still opens must answer as
/// the intact one does: exact, RELAX and APPROX.
const PROBES: [&str; 3] = [
    "(?X, ?Y) <- (?X, knows.worksAt, ?Y)",
    "(?X) <- RELAX (alice, type, ?X)",
    "(?X, ?Y) <- APPROX (?X, knows, ?Y)",
];

fn probe_answers(db: &Database) -> Vec<Vec<Answer>> {
    PROBES
        .iter()
        .map(|text| {
            db.prepare(text)
                .unwrap()
                .execute(&ExecOptions::new())
                .unwrap()
        })
        .collect()
}

/// Writes `bytes` to `path` and opens it: a typed [`SnapshotError`], or a
/// database answering [`PROBES`] as `intact` does. Returns the error.
fn open_damaged(
    path: &Path,
    bytes: &[u8],
    intact: &[Vec<Answer>],
    what: &str,
) -> Option<SnapshotError> {
    std::fs::write(path, bytes).unwrap();
    match Database::open_snapshot(path) {
        Ok(db) => {
            assert_eq!(
                probe_answers(&db),
                intact,
                "{what} opened with other answers"
            );
            None
        }
        Err(err) => Some(err),
    }
}

#[test]
fn truncated_snapshots_fail_typed() {
    let (bytes, guard) = small_snapshot("truncate");
    let intact = probe_answers(&Database::open_snapshot(&guard.0).unwrap());
    // Cut at every length: inside the header, the section table and every
    // payload.
    for keep in 0..bytes.len() {
        let what = format!("keep={keep}");
        let err = open_damaged(&guard.0, &bytes[..keep], &intact, &what);
        assert!(
            matches!(
                err,
                Some(
                    SnapshotError::Truncated { .. }
                        | SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::BadMagic { .. }
                )
            ),
            "{what} gave {err:?}"
        );
    }
}

#[test]
fn flipped_checksum_byte_fails_typed() {
    let (bytes, guard) = small_snapshot("bitflip");
    let intact = probe_answers(&Database::open_snapshot(&guard.0).unwrap());
    // Flip a low and a high bit of every byte: each open fails typed or
    // answers as the intact image does.
    let mut failed = 0;
    for at in 0..bytes.len() {
        for mask in [0x01, 0x80] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            let what = format!("byte {at} ^ {mask:#04x}");
            failed += usize::from(open_damaged(&guard.0, &flipped, &intact, &what).is_some());
        }
    }
    // A flip in the last payload (well past the section table) is caught by
    // its checksum.
    let mut flipped = bytes.clone();
    flipped[bytes.len() - 9] ^= 0x01;
    assert!(matches!(
        open_damaged(&guard.0, &flipped, &intact, "the last payload"),
        Some(SnapshotError::ChecksumMismatch { .. })
    ));
    assert!(failed > bytes.len(), "only {failed} flips failed to open");
}

/// Corruption the checksums cannot see: every payload byte XORed with three
/// masks and its section's checksum resealed, so each forgery reaches the
/// section decoders. Each open fails with a typed error, or opens a database
/// that runs [`PROBES`] without a panic; its answers may differ, since a
/// well-formed forgery is another graph. Every section kind's decoder
/// rejects at least one of its forgeries as `Malformed`.
#[test]
fn resealed_payload_flips_reach_the_decoders_and_fail_typed() {
    use omega::graph::snapshot::format::{checksum, SectionKind};
    let (bytes, guard) = small_snapshot("reseal");
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut malformed = std::collections::BTreeMap::new();
    let (mut opened, mut other) = (0, 0);
    for section in 0..word(16) {
        // Table row: kind u32, param u32, offset u64, length u64, checksum u64.
        let row = 24 + 32 * section;
        let tag = u32::from_le_bytes(bytes[row..row + 4].try_into().unwrap());
        let kind = SectionKind::from_tag(tag).unwrap();
        let payload = word(row + 8)..word(row + 8) + word(row + 16);
        for at in payload.clone() {
            for mask in [0x01, 0x80, 0xff] {
                let mut forged = bytes.clone();
                forged[at] ^= mask;
                let sum = checksum(&forged[payload.clone()]);
                forged[row + 24..row + 32].copy_from_slice(&sum.to_le_bytes());
                std::fs::write(&guard.0, &forged).unwrap();
                match Database::open_snapshot(&guard.0) {
                    Ok(db) => {
                        opened += 1;
                        for text in PROBES {
                            let _ = db
                                .prepare(text)
                                .and_then(|p| p.execute(&ExecOptions::new()));
                        }
                    }
                    Err(SnapshotError::Malformed { .. }) => {
                        *malformed.entry(kind).or_insert(0usize) += 1;
                    }
                    Err(err) => {
                        let what = format!("{kind} byte {at} ^ {mask:#04x}");
                        assert!(
                            !matches!(err, SnapshotError::ChecksumMismatch { .. }),
                            "{what} was not resealed"
                        );
                        other += 1;
                    }
                }
            }
        }
    }
    let kinds: Vec<_> = (0..=10)
        .map(|tag| SectionKind::from_tag(tag).unwrap())
        .collect();
    let missing: Vec<_> = kinds
        .iter()
        .filter(|k| !malformed.contains_key(k))
        .collect();
    assert!(
        missing.is_empty(),
        "no Malformed from {missing:?}; {malformed:?}, {other} other errors, {opened} opened"
    );
}

#[test]
fn wrong_version_fails_typed() {
    let (mut bytes, guard) = small_snapshot("version");
    bytes[8] = 0x7F; // format version field
    std::fs::write(&guard.0, &bytes).unwrap();
    match Database::open_snapshot(&guard.0) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0x7F);
            assert_eq!(supported, 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn bad_magic_and_garbage_fail_typed() {
    let (mut bytes, guard) = small_snapshot("magic");
    bytes[0] = b'X';
    std::fs::write(&guard.0, &bytes).unwrap();
    assert!(matches!(
        Database::open_snapshot(&guard.0),
        Err(SnapshotError::BadMagic { .. })
    ));
    std::fs::write(&guard.0, b"this is not a snapshot at all").unwrap();
    assert!(matches!(
        Database::open_snapshot(&guard.0),
        Err(SnapshotError::BadMagic { .. })
    ));
    let missing = temp_snapshot("missing");
    assert!(matches!(
        Database::open_snapshot(&missing),
        Err(SnapshotError::Io(_))
    ));
}

#[test]
fn flipped_endianness_marker_fails_typed() {
    let (mut bytes, guard) = small_snapshot("endian");
    bytes[12..16].copy_from_slice(&[0x0A, 0x0B, 0x0C, 0x0D]); // big-endian order
    std::fs::write(&guard.0, &bytes).unwrap();
    assert!(matches!(
        Database::open_snapshot(&guard.0),
        Err(SnapshotError::ForeignEndianness)
    ));
}

// ----------------------------------------------------------------------
// Mapping lifetime
// ----------------------------------------------------------------------

#[test]
fn mapping_outlives_reader_clones_and_deleted_files() {
    let mut g = GraphStore::new();
    g.add_triple("alice", "knows", "bob");
    g.add_triple("bob", "knows", "carol");
    let db = Database::new(g, Ontology::new());
    let path = temp_snapshot("lifetime");
    db.save_snapshot(&path).unwrap();

    let first = Database::open_snapshot(&path).unwrap();
    let second = Database::open_snapshot(&path).unwrap();
    // On unix an unlinked file stays readable through a live mapping; the
    // databases must not notice.
    std::fs::remove_file(&path).unwrap();

    let clone = first.clone();
    drop(first);
    let text = "(?X) <- (alice, knows+, ?X)";
    let expected = db.execute(text, &ExecOptions::new()).unwrap();
    assert_eq!(clone.execute(text, &ExecOptions::new()).unwrap(), expected);
    assert_eq!(second.execute(text, &ExecOptions::new()).unwrap(), expected);

    // Prepared queries keep the mapping alive past their database handle.
    let prepared = second.prepare(text).unwrap();
    drop(second);
    drop(clone);
    assert_eq!(prepared.execute(&ExecOptions::new()).unwrap(), expected);
}

// ----------------------------------------------------------------------
// CI hook: exercise an externally built snapshot when one is provided
// ----------------------------------------------------------------------

/// When `OMEGA_SNAPSHOT_FILE` points at an image (CI builds one with
/// `experiments snapshot build`), open it twice, cross-check the two
/// openings and run a wildcard query on both — catching lifetime and
/// alignment regressions on a file that was *not* produced by this process.
#[test]
fn externally_built_snapshot_opens_twice_and_agrees() {
    let Ok(path) = std::env::var("OMEGA_SNAPSHOT_FILE") else {
        return; // No external image supplied; the other tests built their own.
    };
    let first = Database::open_snapshot(&path).expect("external snapshot opens");
    let second = Database::open_snapshot(&path).expect("external snapshot re-opens");
    assert_eq!(first.graph().node_count(), second.graph().node_count());
    assert_eq!(first.graph().edge_count(), second.graph().edge_count());
    assert!(
        first.graph().edge_count() > 0,
        "CI snapshot must not be empty"
    );
    let request = ExecOptions::new().with_limit(25);
    let a = first.execute("(?X, ?Y) <- (?X, _, ?Y)", &request);
    let b = second.execute("(?X, ?Y) <- (?X, _, ?Y)", &request);
    match (a, b) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (a, b) => panic!("wildcard query failed: {a:?} vs {b:?}"),
    }
}

// ----------------------------------------------------------------------
// Label-statistics section: round-trip and pre-stats compatibility
// ----------------------------------------------------------------------

/// Current images carry the (optional) label-stats section and the loaded
/// store serves it pre-populated, byte-identical to a recomputation.
#[test]
fn label_stats_round_trip_through_the_image() {
    let dataset = generate_yago(&YagoConfig::scaled(0.05));
    let db = dataset_db(&dataset);
    let (opened, _file) = save_and_open(&db, "label-stats");
    assert_eq!(
        opened.graph().label_stats(),
        db.graph().label_stats(),
        "loaded statistics must equal the freeze-time statistics"
    );
    // And they must equal a from-scratch recomputation on the mapped CSR.
    assert_eq!(
        opened.graph().label_stats(),
        &omega::graph::LabelStats::compute(&db.graph())
    );
}

/// Images written before the stats section existed (the PR-4 section set,
/// produced here via `write_graph_sections_without_stats`) still open; the
/// statistics are recomputed lazily and answers are bit-identical.
#[test]
fn pre_stats_images_open_and_recompute_lazily() {
    use omega::graph::snapshot::{write_graph_sections_without_stats, SnapshotWriter};

    let dataset = generate_yago(&YagoConfig::scaled(0.05));
    let db = dataset_db(&dataset);

    let path = temp_snapshot("pre-stats");
    let mut writer = SnapshotWriter::new();
    write_graph_sections_without_stats(&db.graph(), &mut writer).expect("graph sections");
    omega::ontology::snapshot::write_ontology_section(db.ontology(), &mut writer)
        .expect("ontology section");
    writer.write_to(&path).expect("fixture write");
    let _file = TempFile(path.clone());

    // The fixture really lacks the section…
    {
        use omega::graph::snapshot::{SectionId, SectionKind, SnapshotReader};
        let reader = SnapshotReader::open(&path).expect("fixture opens");
        assert!(
            reader
                .section(SectionId::plain(SectionKind::LabelStats))
                .is_none(),
            "fixture must emulate a pre-stats image"
        );
    }

    let opened =
        Database::open_snapshot_with(&path, db.options().clone()).expect("pre-stats image opens");
    // …and the lazily recomputed statistics match the original store's.
    assert_eq!(opened.graph().label_stats(), db.graph().label_stats());
    for spec in yago_queries() {
        let text = spec.with_operator("APPROX");
        assert_identical(&db, &opened, &text, &budgeted(50));
    }
}

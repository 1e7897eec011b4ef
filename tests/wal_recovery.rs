//! Durability tests: the write-ahead delta log, crash recovery, rotation
//! checkpoints, and degraded read-only mode.
//!
//! What the suite pins:
//!
//! * **acknowledged ⇒ recovered** — every mutation whose `apply` returned
//!   `Ok` is present after dropping the database without any shutdown
//!   ceremony (the in-process stand-in for `kill -9`) and reopening over
//!   the same log directory,
//! * **rotation = incremental snapshot** — `compact`/`save_snapshot`
//!   rotate the log onto a checkpoint image, and recovery over
//!   checkpoint + tail log equals recovery over the full history,
//! * **typed degradation** — an injected append/fsync fault surfaces as
//!   `OmegaError::ReadOnly`, flips the database read-only (reads keep
//!   answering), and leaves a log that still recovers cleanly,
//! * **atomic snapshot writes** — every snapshot rename is followed by a
//!   parent-directory fsync (the [`dir_syncs`] regression counter).
//!
//! * **recovery is not a client write** — a log of N records folds into
//!   one published epoch N further on, counted as recovered records and
//!   never as mutations, with no client-write fault point on the way.
//!
//! The fault slot is process-global — an installed plan hits every `apply`
//! in the process — so every test here takes the file-local mutex (same
//! discipline as the chaos suite).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use omega::core::eval::fault::{install, FaultPlan, FaultPoint};
use omega::core::{
    Database, EvalOptions, ExecOptions, FsyncPolicy, GovernorConfig, OmegaError, RecoveryReport,
    WalConfig,
};
use omega::graph::snapshot::dir_syncs;
use omega::{GraphStore, Ontology};

/// Serialises the suite (the fault slot is process-global).
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh, collision-free WAL directory under the system temp dir.
fn wal_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!("omega-wal-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The base graph every durable database in this suite starts from.
fn seed() -> (GraphStore, Ontology, BTreeSet<(String, String, String)>) {
    let mut g = GraphStore::new();
    let mut set = BTreeSet::new();
    for (s, l, t) in [("a", "p", "b"), ("b", "p", "c"), ("c", "q", "a")] {
        g.add_triple(s, l, t);
        set.insert((s.to_owned(), l.to_owned(), t.to_owned()));
    }
    (g, Ontology::new(), set)
}

/// Opens (or reopens) a durable database over `dir` from the seed graph.
fn open_durable(dir: &PathBuf, fsync: FsyncPolicy) -> (Database, RecoveryReport) {
    let (g, o, _) = seed();
    Database::with_governor_durable(
        g,
        o,
        EvalOptions::default(),
        GovernorConfig::default(),
        &WalConfig::new(dir).with_fsync(fsync),
    )
    .expect("durable open")
}

/// Applies one batch of signed triples; `true` adds, `false` removes. The
/// `expected` model set is mutated in lockstep.
fn apply(
    db: &Database,
    ops: &[(bool, &str, &str, &str)],
    expected: &mut BTreeSet<(String, String, String)>,
) {
    let mut batch = db.begin_mutation();
    for (is_add, s, l, t) in ops {
        if *is_add {
            batch.add(s, l, t);
            expected.insert(((*s).to_owned(), (*l).to_owned(), (*t).to_owned()));
        } else {
            batch.remove(s, l, t);
            expected.remove(&((*s).to_owned(), (*l).to_owned(), (*t).to_owned()));
        }
    }
    db.apply(&batch).expect("acknowledged apply");
}

/// Asserts `db` serves exactly the `expected` edge set: same `edge_count`,
/// and the same answers as a database rebuilt from scratch over the set.
fn assert_state(db: &Database, expected: &BTreeSet<(String, String, String)>) {
    assert_eq!(
        db.graph().edge_count(),
        expected.len(),
        "edge count diverged"
    );
    let mut g = GraphStore::new();
    for (s, l, t) in expected {
        g.add_triple(s, l, t);
    }
    let reference = Database::new(g, Ontology::new());
    let request = ExecOptions::new().with_limit(200);
    for text in ["(?X, ?Y) <- (?X, p, ?Y)", "(?X, ?Y) <- (?X, (p|q)+, ?Y)"] {
        let rows = |db: &Database| {
            let mut v: Vec<_> = db
                .execute(text, &request)
                .expect("query over recovered graph")
                .into_iter()
                .map(|a| (a.bindings, a.distance))
                .collect();
            v.sort();
            v
        };
        assert_eq!(rows(db), rows(&reference), "answers diverged for {text}");
    }
}

/// The standard three-batch history used by the recovery tests: an add, a
/// remove-then-re-add cycle, and a second remove — so replay order matters.
fn mutate_three_batches(db: &Database, expected: &mut BTreeSet<(String, String, String)>) {
    apply(
        db,
        &[(true, "c", "p", "d"), (false, "a", "p", "b")],
        expected,
    );
    apply(
        db,
        &[(true, "d", "q", "a"), (true, "a", "p", "b")],
        expected,
    );
    apply(
        db,
        &[(false, "b", "p", "c"), (true, "d", "p", "e")],
        expected,
    );
}

#[test]
fn kill9_recovers_every_acknowledged_mutation() {
    let _guard = fault_lock();
    let dir = wal_dir("kill9");
    let (db, fresh) = open_durable(&dir, FsyncPolicy::Always);
    assert_eq!(fresh, RecoveryReport::default(), "fresh log has nothing");
    assert!(db.wal_attached());

    let (_, _, mut expected) = seed();
    mutate_three_batches(&db, &mut expected);
    assert_eq!(db.wal_seq(), 3, "one WAL record per acknowledged batch");
    assert_eq!(
        db.durable_epoch(),
        db.epoch(),
        "fsync=always: every published epoch is durable"
    );
    let epoch = db.epoch();
    // The crash: no compaction, no snapshot, no shutdown — just gone.
    drop(db);

    let (db, recovery) = open_durable(&dir, FsyncPolicy::Always);
    assert_eq!(recovery.records, 3, "all three batches replayed");
    assert_eq!(recovery.truncated_bytes, 0, "clean log, no torn tail");
    assert!(!recovery.from_checkpoint, "no rotation happened");
    assert_eq!(db.epoch(), epoch, "replay rebuilt the same epoch");
    assert_state(&db, &expected);

    // Sequencing continues where the dead process stopped.
    apply(&db, &[(true, "e", "q", "a")], &mut expected);
    assert_eq!(db.wal_seq(), 4, "recovered sequencing continues");
    assert_state(&db, &expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_folds_the_log_into_one_epoch_and_is_not_a_client_write() {
    let _guard = fault_lock();
    let dir = wal_dir("fold");
    let (db, _) = open_durable(&dir, FsyncPolicy::Always);
    let (_, _, mut expected) = seed();
    mutate_three_batches(&db, &mut expected);
    // A logged batch that changes nothing still owns an epoch, and one that
    // brings a new label and new nodes.
    apply(&db, &[(false, "nobody", "p", "b")], &mut expected);
    apply(
        &db,
        &[(true, "e", "r", "f"), (false, "c", "q", "a")],
        &mut expected,
    );
    assert_eq!((db.epoch(), db.wal_seq()), (5, 5));
    drop(db);

    // Recovery passes no client-write fault point: a plan that fails every
    // `apply` does not touch it.
    let chaos = install(Arc::new(
        FaultPlan::new(3, 1.0).only(FaultPoint::MutationApply),
    ));
    let (db, recovery) = open_durable(&dir, FsyncPolicy::Always);
    drop(chaos);
    assert_eq!(
        recovery,
        RecoveryReport {
            records: 5,
            truncated_bytes: 0,
            from_checkpoint: false
        }
    );
    assert_eq!((db.epoch(), db.durable_epoch(), db.wal_seq()), (5, 5, 5));
    assert_state(&db, &expected);
    let metrics = db.metrics().expose();
    let series = |name: &str| omega_obs::find_value(&metrics, name);
    assert_eq!(series("omega_core_mutations_total"), Some(0.0));
    assert_eq!(series("omega_core_wal_recovered_records_total"), Some(5.0));
    assert_eq!(series("omega_core_epoch"), Some(5.0));
    assert!(series("omega_core_wal_bytes_since_checkpoint") > Some(0.0));
    assert_eq!(
        series("omega_core_overlay_edges"),
        Some(db.graph().overlay_edges() as f64)
    );

    // The log keeps lining up: the next write is epoch 6, record 6.
    apply(&db, &[(true, "f", "p", "a")], &mut expected);
    assert_eq!((db.epoch(), db.wal_seq()), (6, 6));
    drop(db);
    let (db, recovery) = open_durable(&dir, FsyncPolicy::Always);
    assert_eq!((recovery.records, db.epoch()), (6, 6));
    assert_state(&db, &expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rotation_checkpoint_plus_tail_log_is_an_incremental_snapshot() {
    let _guard = fault_lock();
    let dir = wal_dir("rotate");
    let (db, _) = open_durable(&dir, FsyncPolicy::Always);
    let (_, _, mut expected) = seed();
    apply(
        &db,
        &[(true, "c", "p", "d"), (false, "a", "p", "b")],
        &mut expected,
    );
    apply(&db, &[(true, "d", "q", "a")], &mut expected);

    // Compaction rotates: the history so far moves into the checkpoint
    // image and the log restarts empty.
    let since_checkpoint = |db: &Database| {
        let metrics = db.metrics().expose();
        omega_obs::find_value(&metrics, "omega_core_wal_bytes_since_checkpoint")
    };
    assert!(since_checkpoint(&db) > Some(0.0));
    db.compact();
    assert_eq!(
        since_checkpoint(&db),
        Some(0.0),
        "rotation resets the gauge"
    );
    apply(&db, &[(true, "d", "p", "e")], &mut expected);
    drop(db);

    let (db, recovery) = open_durable(&dir, FsyncPolicy::Always);
    assert!(
        recovery.from_checkpoint,
        "recovery starts from the checkpoint"
    );
    assert_eq!(recovery.records, 1, "only the post-rotation batch replays");
    assert_state(&db, &expected);
    // Sequence numbers survive rotation: the next record continues the
    // global numbering, not the per-file one.
    apply(&db, &[(true, "e", "p", "f")], &mut expected);
    assert_eq!(db.wal_seq(), 4, "rotation must not reset sequencing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_snapshot_rotates_and_the_checkpoint_supersedes_the_image() {
    let _guard = fault_lock();
    let dir = wal_dir("snap");
    let snap = std::env::temp_dir().join(format!("omega-wal-snap-{}.omega", std::process::id()));
    let (db, _) = open_durable(&dir, FsyncPolicy::Always);
    let (_, _, mut expected) = seed();
    apply(&db, &[(true, "c", "p", "d")], &mut expected);
    db.save_snapshot(&snap).expect("snapshot");
    // Mutations after the snapshot live only in the rotated (fresh) log.
    apply(&db, &[(false, "b", "p", "c")], &mut expected);
    drop(db);

    let (db, recovery) = Database::open_snapshot_durable(
        &snap,
        EvalOptions::default(),
        GovernorConfig::default(),
        &WalConfig::new(&dir),
    )
    .expect("durable snapshot open");
    assert!(recovery.from_checkpoint, "rotation wrote a checkpoint");
    assert_eq!(recovery.records, 1, "only the post-snapshot batch replays");
    assert_state(&db, &expected);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn fsync_never_acknowledges_before_durability() {
    let _guard = fault_lock();
    let dir = wal_dir("never");
    let (db, _) = open_durable(&dir, FsyncPolicy::Never);
    let (_, _, mut expected) = seed();
    apply(&db, &[(true, "c", "p", "d")], &mut expected);
    assert_eq!(db.wal_seq(), 1, "the record was appended");
    assert_eq!(
        db.durable_epoch(),
        0,
        "fsync=never: nothing is known durable"
    );
    // The page cache of one process is still coherent: reopening in the
    // same process sees the unsynced record.
    drop(db);
    let (db, recovery) = open_durable(&dir, FsyncPolicy::Never);
    assert_eq!(recovery.records, 1);
    assert_state(&db, &expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_ms_policy_parses_and_acknowledges() {
    let _guard = fault_lock();
    assert_eq!(FsyncPolicy::parse("every:25"), Ok(FsyncPolicy::EveryMs(25)));
    let dir = wal_dir("every");
    let (db, _) = open_durable(&dir, FsyncPolicy::EveryMs(0));
    let (_, _, mut expected) = seed();
    // Interval zero syncs on every append: durable immediately, like
    // `always` but through the group-commit path.
    apply(&db, &[(true, "c", "p", "d")], &mut expected);
    assert_eq!(db.durable_epoch(), db.epoch());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_fault_degrades_to_read_only_with_typed_errors() {
    let _guard = fault_lock();
    let dir = wal_dir("degrade");
    let (db, _) = open_durable(&dir, FsyncPolicy::Always);
    let (_, _, mut expected) = seed();
    apply(&db, &[(true, "c", "p", "d")], &mut expected);

    // A torn append: the record hits the disk corrupted and the write
    // errors. The apply must fail typed, and must NOT publish the batch.
    let chaos = install(Arc::new(FaultPlan::new(7, 1.0).only(FaultPoint::WalAppend)));
    let mut batch = db.begin_mutation();
    batch.add("x", "p", "y");
    let epoch_before = db.epoch();
    match db.apply(&batch) {
        Err(OmegaError::ReadOnly { message }) => {
            assert!(
                message.contains("append failed"),
                "unexpected message: {message}"
            );
        }
        other => panic!("expected ReadOnly, got {other:?}"),
    }
    drop(chaos);

    assert!(db.read_only(), "append failure degrades the database");
    assert_eq!(db.epoch(), epoch_before, "failed batch never published");
    // Degraded means read-only, not down: queries still answer...
    assert_state(&db, &expected);
    // ...and further writes fail typed without touching the log.
    let mut retry = db.begin_mutation();
    retry.add("x", "p", "y");
    assert!(
        matches!(db.apply(&retry), Err(OmegaError::ReadOnly { .. })),
        "degraded mode rejects writes until restart"
    );
    drop(db);

    // The torn tail is truncated on reopen; every acknowledged batch is
    // back, the poisoned one is gone.
    let (db, recovery) = open_durable(&dir, FsyncPolicy::Always);
    assert_eq!(recovery.records, 1, "only the acknowledged batch replays");
    assert!(recovery.truncated_bytes > 0, "the torn record was cut off");
    assert!(!db.read_only(), "a fresh open starts healthy");
    assert_state(&db, &expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_fault_degrades_but_recovery_is_at_least_once() {
    let _guard = fault_lock();
    let dir = wal_dir("fsync-fault");
    let (db, _) = open_durable(&dir, FsyncPolicy::Always);
    let (_, _, mut expected) = seed();
    apply(&db, &[(true, "c", "p", "d")], &mut expected);

    // The record lands intact but fsync fails: the batch is NOT
    // acknowledged (apply errors, nothing published), yet the bytes may
    // survive — recovery is at-least-once, never at-most-nothing.
    let chaos = install(Arc::new(FaultPlan::new(7, 1.0).only(FaultPoint::WalSync)));
    let mut batch = db.begin_mutation();
    batch.add("x", "p", "y");
    assert!(matches!(db.apply(&batch), Err(OmegaError::ReadOnly { .. })));
    drop(chaos);
    assert!(db.read_only());
    drop(db);

    let (db, recovery) = open_durable(&dir, FsyncPolicy::Always);
    assert_eq!(
        recovery.records, 2,
        "the intact-but-unsynced record replays too"
    );
    expected.insert(("x".to_owned(), "p".to_owned(), "y".to_owned()));
    assert_state(&db, &expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_writes_fsync_the_parent_directory() {
    let _guard = fault_lock();
    let dir = wal_dir("dirsync");
    let snap = std::env::temp_dir().join(format!("omega-wal-dirsync-{}.omega", std::process::id()));
    let (db, _) = open_durable(&dir, FsyncPolicy::Always);
    let (_, _, mut expected) = seed();
    apply(&db, &[(true, "c", "p", "d")], &mut expected);

    // Every atomic snapshot write (user snapshots AND rotation
    // checkpoints) must fsync the parent directory after the rename, or
    // the rename itself can vanish in a crash. `save_snapshot` here does
    // both: the image write and the checkpoint rotation.
    let before = dir_syncs();
    db.save_snapshot(&snap).expect("snapshot");
    assert!(
        dir_syncs() >= before + 2,
        "expected a directory fsync for the image and the checkpoint"
    );

    let before = dir_syncs();
    apply(&db, &[(true, "d", "p", "e")], &mut expected);
    db.compact();
    assert!(
        dir_syncs() > before,
        "rotation's checkpoint write must fsync its directory"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn reconfigured_views_share_the_wal_and_the_degraded_state() {
    let _guard = fault_lock();
    let dir = wal_dir("views");
    let (db, _) = open_durable(&dir, FsyncPolicy::Always);
    let (_, _, mut expected) = seed();
    // A view with different evaluation options still writes through the
    // same log — durability is a property of the storage, not the view.
    let view = db.reconfigured(EvalOptions::default());
    let mut batch = view.begin_mutation();
    batch.add("c", "p", "d");
    expected.insert(("c".to_owned(), "p".to_owned(), "d".to_owned()));
    view.apply(&batch).expect("apply through the view");
    assert_eq!(db.wal_seq(), 1, "the view's batch went through the WAL");
    drop(view);
    drop(db);

    let (db, recovery) = open_durable(&dir, FsyncPolicy::Always);
    assert_eq!(recovery.records, 1);
    assert_state(&db, &expected);
    let _ = std::fs::remove_dir_all(&dir);
}

//! The deterministic chaos suite: seeded fault-injection schedules over
//! multi-conjunct L4All and YAGO workloads.
//!
//! A [`FaultPlan`] decides failures purely as a function of
//! `(seed, injection point, hit counter)`, so every committed seed replays
//! the exact same schedule on every run and machine — CI sweeps the seeds
//! below (see the `chaos` job) and a reproduction needs nothing but the
//! seed. Set `OMEGA_CHAOS_SEED` to probe one specific seed instead.
//!
//! What the suite pins, per schedule:
//!
//! * **no hangs** — every execution terminates (the test binary's own
//!   timeout is the only clock),
//! * **typed failures only** — an injected fault surfaces as the matching
//!   [`OmegaError`] (or as a clean degraded stream under
//!   `OverloadPolicy::Degrade`), never as a panic,
//! * **no poisoned `Database`** — once the schedule is uninstalled, the
//!   same database answers the same queries bit-identically to its
//!   pre-chaos reference.
//!
//! The fault slot is process-global, so every test serialises on a
//! file-local mutex.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use omega::core::eval::fault::{install, FaultPlan, FaultPoint, ALL_POINTS};
use omega::core::{
    Database, EvalOptions, ExecOptions, FsyncPolicy, GovernorConfig, OmegaError, OverloadPolicy,
    SnapshotError, WalConfig,
};
use omega::datagen::{
    generate_l4all, generate_yago, l4all_multi_conjunct_queries, yago_multi_conjunct_queries,
    L4AllConfig, YagoConfig,
};
use omega::{Answer, GraphStore, Ontology};

/// The committed chaos seeds. CI replays each one in its own job-matrix
/// entry; locally the whole set runs in sequence.
const SEEDS: [u64; 10] = [3, 7, 11, 42, 97, 1009, 4242, 31337, 65537, 999_983];

/// Serialises the suite: the fault slot is process-global.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The seeds to replay: `OMEGA_CHAOS_SEED` (one seed) or the committed set.
fn seeds() -> Vec<u64> {
    match std::env::var("OMEGA_CHAOS_SEED") {
        Ok(s) => {
            let seed = s
                .trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("OMEGA_CHAOS_SEED must be a u64, got {s:?}"));
            vec![seed]
        }
        Err(_) => SEEDS.to_vec(),
    }
}

/// The chaos workload: every multi-conjunct query of both study datasets,
/// exact and APPROX, against one database per dataset.
struct Workload {
    db: Database,
    /// `(query text, fault-free reference answers)`.
    cases: Vec<(String, Vec<Answer>)>,
}

fn workloads(request: &ExecOptions) -> Vec<Workload> {
    let l4all = generate_l4all(&L4AllConfig::tiny());
    let yago = generate_yago(&YagoConfig::tiny());
    let mut out = Vec::new();
    for (dataset, specs) in [
        (l4all, l4all_multi_conjunct_queries()),
        (yago, yago_multi_conjunct_queries()),
    ] {
        let db = Database::new(dataset.graph, dataset.ontology);
        let mut cases = Vec::new();
        for spec in specs {
            for operator in ["", "APPROX"] {
                let text = spec.with_operator_everywhere(operator);
                let reference = db.execute(&text, request).unwrap();
                cases.push((text, reference));
            }
        }
        out.push(Workload { db, cases });
    }
    out
}

/// A request bounded enough for a chaos sweep: top-50 answers, and a
/// generous timeout so the deadline hook is armed without ever firing on its
/// own.
fn chaos_request() -> ExecOptions {
    ExecOptions::new()
        .with_limit(50)
        .with_timeout(Duration::from_secs(120))
}

/// Runs one execution under `catch_unwind`, asserting the no-panic
/// contract and returning the outcome.
fn run_guarded(
    db: &Database,
    text: &str,
    request: &ExecOptions,
) -> Result<Vec<Answer>, OmegaError> {
    let db = db.clone();
    let request = request.clone();
    let text_owned = text.to_owned();
    catch_unwind(AssertUnwindSafe(move || db.execute(&text_owned, &request)))
        .unwrap_or_else(|_| panic!("execution panicked under fault injection: {text}"))
}

/// After a schedule, the database must be unpoisoned: the exact reference
/// answers come back with no plan installed.
fn assert_database_survives(workload: &Workload, request: &ExecOptions) {
    for (text, reference) in &workload.cases {
        let again = workload.db.execute(text, request).unwrap();
        assert_eq!(&again, reference, "post-chaos answers diverged: {text}");
    }
}

/// Budget-acquisition faults: every failure is the typed
/// `ResourceExhausted`, nothing hangs, and the database
/// answers bit-identically once the schedule ends.
#[test]
fn budget_faults_surface_typed_resource_exhaustion() {
    let _guard = chaos_lock();
    let request = chaos_request();
    for workload in workloads(&request) {
        for seed in seeds() {
            let plan = Arc::new(FaultPlan::new(seed, 0.002).only(FaultPoint::BudgetAcquire));
            {
                let _installed = install(Arc::clone(&plan));
                for (text, reference) in &workload.cases {
                    match run_guarded(&workload.db, text, &request) {
                        Ok(answers) => {
                            assert_eq!(&answers, reference, "lucky run diverged: {text}")
                        }
                        Err(OmegaError::ResourceExhausted { .. }) => {}
                        Err(other) => panic!("unexpected error under budget faults: {other}"),
                    }
                }
            }
        }
        assert_database_survives(&workload, &request);
    }
}

/// The same budget schedules under `OverloadPolicy::Degrade`: every
/// execution ends cleanly — the fault becomes a truncated (possibly empty)
/// answer stream, never an error. (The *bit-identical prefix* guarantee is
/// a single-conjunct property and is pinned in `tests/governor.rs`; a rank
/// join over truncated inputs yields a subset, not necessarily a prefix.)
#[test]
fn degrade_turns_budget_faults_into_clean_streams() {
    let _guard = chaos_lock();
    let reference_request = chaos_request();
    let request = chaos_request().with_on_overload(OverloadPolicy::Degrade);
    for workload in workloads(&reference_request) {
        for seed in seeds() {
            let plan = Arc::new(FaultPlan::new(seed, 0.002).only(FaultPoint::BudgetAcquire));
            {
                let _installed = install(Arc::clone(&plan));
                for (text, _) in &workload.cases {
                    run_guarded(&workload.db, text, &request)
                        .unwrap_or_else(|e| panic!("degrade must not fail ({text}): {e}"));
                }
            }
        }
        assert_database_survives(&workload, &reference_request);
    }
}

/// Deadline-clock faults (simulated clock jumps): the only observable
/// failure is `DeadlineExceeded`, exactly as if the wall clock had moved.
#[test]
fn clock_faults_surface_as_deadline_exceeded() {
    let _guard = chaos_lock();
    let request = chaos_request();
    for workload in workloads(&request) {
        for seed in seeds() {
            let plan = Arc::new(FaultPlan::new(seed, 0.01).only(FaultPoint::DeadlineClock));
            {
                let _installed = install(Arc::clone(&plan));
                for (text, reference) in &workload.cases {
                    match run_guarded(&workload.db, text, &request) {
                        Ok(answers) => {
                            assert_eq!(&answers, reference, "lucky run diverged: {text}")
                        }
                        Err(OmegaError::DeadlineExceeded) => {}
                        Err(other) => panic!("unexpected error under clock faults: {other}"),
                    }
                }
            }
        }
        assert_database_survives(&workload, &request);
    }
}

/// Snapshot-read faults surface as the typed `SnapshotError::Io`, and the
/// moment the schedule ends the very same file opens and answers queries.
#[test]
fn snapshot_read_faults_are_typed_and_transient() {
    let _guard = chaos_lock();
    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);
    let request = ExecOptions::new().with_limit(20);
    let text = l4all_multi_conjunct_queries()[0].with_operator_everywhere("APPROX");
    let reference = db.execute(&text, &request).unwrap();

    let path = std::env::temp_dir().join(format!("omega-chaos-{}.snap", std::process::id()));
    db.save_snapshot(&path).unwrap();
    {
        let _installed = install(Arc::new(
            FaultPlan::new(5, 1.0).only(FaultPoint::SnapshotRead),
        ));
        let err = Database::open_snapshot(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "got: {err}");
    }
    let reopened = Database::open_snapshot(&path).unwrap();
    assert_eq!(reopened.execute(&text, &request).unwrap(), reference);
    let _ = std::fs::remove_file(&path);
}

/// Mutation-apply faults: the failure is the typed `MutationFailed`, the
/// publish is all-or-nothing — no epoch spent, no edge landed, answers
/// pristine — and the very same batch retries successfully once the
/// schedule ends.
#[test]
fn mutation_faults_are_all_or_nothing_and_retryable() {
    let _guard = chaos_lock();
    let data = generate_l4all(&L4AllConfig::tiny());
    let db = Database::new(data.graph, data.ontology);
    let request = ExecOptions::new().with_limit(50);
    let text = l4all_multi_conjunct_queries()[0].with_operator_everywhere("APPROX");
    let reference = db.execute(&text, &request).unwrap();

    let mut batch = db.begin_mutation();
    batch.add("Chaos A", "chaosknows", "Chaos B");
    for seed in seeds() {
        let plan = Arc::new(FaultPlan::new(seed, 1.0).only(FaultPoint::MutationApply));
        let _installed = install(Arc::clone(&plan));
        let err = db.apply(&batch).unwrap_err();
        assert!(
            matches!(err, OmegaError::MutationFailed { .. }),
            "got: {err}"
        );
        assert!(plan.fired(FaultPoint::MutationApply) > 0);
        assert_eq!(db.epoch(), 0, "failed apply spent an epoch");
        assert_eq!(
            db.execute(&text, &request).unwrap(),
            reference,
            "failed apply perturbed the graph"
        );
    }
    // The identical batch succeeds once no schedule is installed.
    let report = db.apply(&batch).unwrap();
    assert_eq!((report.epoch, report.added, report.removed), (1, 1, 0));
    assert_eq!(
        db.execute(&text, &request).unwrap(),
        reference,
        "an unrelated edge changed committed answers"
    );
}

/// The full storm: every injection point armed at once under
/// `OverloadPolicy::Degrade`, over the query workloads and then over the
/// storage paths (snapshot opens, logged writes), each repeated until its
/// points have fired. Any typed error (or clean prefix) is acceptable;
/// panics, hangs and poisoned state are not.
#[test]
fn full_storm_only_typed_errors_and_full_recovery() {
    let _guard = chaos_lock();
    let reference_request = chaos_request();
    let request = chaos_request().with_on_overload(OverloadPolicy::Degrade);
    let workloads = workloads(&reference_request);
    let dir = std::env::temp_dir().join(format!("omega-chaos-storm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("storm.snap");
    let mut graph = GraphStore::new();
    graph.add_triple("a", "p", "b");
    Database::new(graph.clone(), Ontology::new())
        .save_snapshot(&snapshot)
        .unwrap();
    for seed in seeds() {
        let plan = Arc::new(FaultPlan::new(seed, 0.01));
        {
            let _installed = install(Arc::clone(&plan));
            let query_points = [FaultPoint::BudgetAcquire, FaultPoint::DeadlineClock];
            until_fired(&plan, &query_points, |_| {
                for workload in &workloads {
                    for (text, _) in &workload.cases {
                        match run_guarded(&workload.db, text, &request) {
                            // Spared or degraded: a clean (possibly
                            // truncated) stream.
                            Ok(_) => {}
                            Err(
                                OmegaError::ResourceExhausted { .. }
                                | OmegaError::DeadlineExceeded
                                | OmegaError::Overloaded { .. },
                            ) => {}
                            Err(other) => panic!("untyped failure under the storm: {other}"),
                        }
                    }
                }
            });
            storm_storage(&plan, &graph, &snapshot, &dir.join(format!("wal-{seed}")));
        }
        for point in ALL_POINTS {
            assert!(
                plan.fired(point) > 0,
                "seed {seed}: the storm skipped {point:?}"
            );
        }
    }
    for workload in &workloads {
        assert_database_survives(workload, &reference_request);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `round` (with its index) until each of `points` has fired under
/// `plan`.
fn until_fired(plan: &FaultPlan, points: &[FaultPoint], mut round: impl FnMut(usize)) {
    for n in 0..10_000 {
        if points.iter().all(|&point| plan.fired(point) > 0) {
            return;
        }
        round(n);
    }
    panic!("{points:?} did not all fire in 10,000 rounds");
}

/// The storm's storage half: a snapshot open and a logged write per round.
/// A torn append or failed fsync leaves the database read-only, so the next
/// write goes through a fresh WAL-backed one.
fn storm_storage(plan: &FaultPlan, graph: &GraphStore, snapshot: &Path, wal_dir: &Path) {
    let open_logged = |round: usize| {
        Database::with_governor_durable(
            graph.clone(),
            Ontology::new(),
            EvalOptions::default(),
            GovernorConfig::default(),
            &WalConfig::new(wal_dir.join(round.to_string())).with_fsync(FsyncPolicy::Never),
        )
        .expect("a fresh log directory opens")
        .0
    };
    let mut db = open_logged(0);
    let storage_points = [
        FaultPoint::SnapshotRead,
        FaultPoint::MutationApply,
        FaultPoint::WalAppend,
        FaultPoint::WalSync,
    ];
    until_fired(plan, &storage_points, |round| {
        match Database::open_snapshot(snapshot) {
            Ok(_) | Err(SnapshotError::Io(_)) => {}
            Err(other) => panic!("untyped snapshot failure under the storm: {other}"),
        }
        let mut batch = db.begin_mutation();
        if round % 2 == 0 {
            batch.add("a", "q", "b");
        } else {
            batch.remove("a", "q", "b");
        }
        match db.apply(&batch) {
            Ok(_) | Err(OmegaError::MutationFailed { .. }) => {}
            Err(OmegaError::ReadOnly { .. }) => db = open_logged(round + 1),
            Err(other) => panic!("untyped write failure under the storm: {other}"),
        }
    });
}

/// Sanity for the harness itself: `GraphStore`/`Ontology` construction has
/// no injection points, so dataset generation under a rate-1.0 storm is
/// untouched — the chaos surface is evaluation and snapshot IO only.
#[test]
fn datagen_is_outside_the_blast_radius() {
    let _guard = chaos_lock();
    let _installed = install(Arc::new(FaultPlan::new(1, 1.0)));
    let data = generate_l4all(&L4AllConfig::tiny());
    assert!(data.graph.node_count() > 0);
    let mut g = GraphStore::new();
    g.add_triple("a", "p", "b");
    let _ = Ontology::new();
}

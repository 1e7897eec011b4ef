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
//! * **no leaked workers** — `live_parallel_workers` returns to its
//!   baseline after every schedule,
//! * **no poisoned `Database`** — once the schedule is uninstalled, the
//!   same database answers the same queries bit-identically to its
//!   pre-chaos reference.
//!
//! The fault slot is process-global, so every test serialises on a
//! file-local mutex (same discipline as the concurrency suite).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use omega::core::eval::fault::{install, FaultPlan, FaultPoint};
use omega::core::{
    live_parallel_workers, Database, ExecOptions, OmegaError, OverloadPolicy, SnapshotError,
};
use omega::datagen::{
    generate_l4all, generate_yago, l4all_multi_conjunct_queries, yago_multi_conjunct_queries,
    L4AllConfig, YagoConfig,
};
use omega::{Answer, GraphStore, Ontology};

mod common;

/// The committed chaos seeds. CI replays each one in its own job-matrix
/// entry; locally the whole set runs in sequence.
const SEEDS: [u64; 10] = [3, 7, 11, 42, 97, 1009, 4242, 31337, 65537, 999_983];

/// Serialises the suite: the fault slot and the worker gauge are both
/// process-global.
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

/// Polls until the worker gauge drops back to `baseline`.
fn assert_workers_settle(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let live = live_parallel_workers();
        if live <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "leaked conjunct workers: {live} live, expected {baseline}"
        );
        std::thread::sleep(Duration::from_millis(1));
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

/// A request bounded enough for a chaos sweep: top-50 answers, parallel
/// conjuncts (so worker/channel faults have threads to hit), and a generous
/// timeout so the deadline hook is armed without ever firing on its own.
fn chaos_request() -> ExecOptions {
    ExecOptions::new()
        .with_limit(50)
        .with_parallel_conjuncts(true)
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
/// `ResourceExhausted`, nothing hangs, nothing leaks, and the database
/// answers bit-identically once the schedule ends.
#[test]
fn budget_faults_surface_typed_resource_exhaustion() {
    let _guard = chaos_lock();
    let request = chaos_request();
    let baseline = live_parallel_workers();
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
            assert_workers_settle(baseline);
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
    let baseline = live_parallel_workers();
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
            assert_workers_settle(baseline);
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
    let baseline = live_parallel_workers();
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
            assert_workers_settle(baseline);
        }
        assert_database_survives(&workload, &request);
    }
}

/// Worker-spawn faults at rate 1.0: every spawn fails, every conjunct falls
/// back inline, and the answers rank as the workers' do — spawn failure shows
/// in wall-clock time and in which ties come first (inline conjuncts take the
/// join's seed hints, workers do not), nowhere else.
#[test]
fn spawn_faults_fall_back_inline_with_the_same_ranking() {
    let _guard = chaos_lock();
    let request = chaos_request();
    let baseline = live_parallel_workers();
    for workload in workloads(&request) {
        for seed in seeds() {
            let plan = Arc::new(FaultPlan::new(seed, 1.0).only(FaultPoint::WorkerSpawn));
            {
                let _installed = install(Arc::clone(&plan));
                for (text, reference) in &workload.cases {
                    let answers = run_guarded(&workload.db, text, &request)
                        .unwrap_or_else(|e| panic!("inline fallback must not fail ({text}): {e}"));
                    common::assert_same_ranking(&answers, reference, Some(50), text);
                }
                assert!(
                    plan.fired(FaultPoint::WorkerSpawn) > 0,
                    "rate-1.0 spawn plan never consulted: the hook is wired wrong"
                );
            }
            assert_workers_settle(baseline);
        }
        assert_database_survives(&workload, &request);
    }
}

/// Channel-send faults: a worker abandoning its send looks like a
/// disconnect to the consumer, which must report the typed cancellation
/// (or run to completion if the schedule spared it) — never hang or panic.
#[test]
fn channel_faults_surface_cancelled_not_hung() {
    let _guard = chaos_lock();
    let request = chaos_request();
    let baseline = live_parallel_workers();
    for workload in workloads(&request) {
        for seed in seeds() {
            let plan = Arc::new(FaultPlan::new(seed, 0.05).only(FaultPoint::ChannelSend));
            {
                let _installed = install(Arc::clone(&plan));
                for (text, reference) in &workload.cases {
                    match run_guarded(&workload.db, text, &request) {
                        Ok(answers) => {
                            assert_eq!(&answers, reference, "lucky run diverged: {text}")
                        }
                        Err(OmegaError::Cancelled) | Err(OmegaError::DeadlineExceeded) => {}
                        Err(other) => panic!("unexpected error under channel faults: {other}"),
                    }
                }
            }
            assert_workers_settle(baseline);
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
/// `OverloadPolicy::Degrade`. Any typed error (or clean prefix) is
/// acceptable; panics, hangs, leaked workers and poisoned state are not.
#[test]
fn full_storm_only_typed_errors_and_full_recovery() {
    let _guard = chaos_lock();
    let reference_request = chaos_request();
    let request = chaos_request().with_on_overload(OverloadPolicy::Degrade);
    let baseline = live_parallel_workers();
    for workload in workloads(&reference_request) {
        for seed in seeds() {
            let plan = Arc::new(FaultPlan::new(seed, 0.01));
            {
                let _installed = install(Arc::clone(&plan));
                for (text, _) in &workload.cases {
                    match run_guarded(&workload.db, text, &request) {
                        // Spared or degraded: a clean (possibly truncated)
                        // stream.
                        Ok(_) => {}
                        Err(
                            OmegaError::ResourceExhausted { .. }
                            | OmegaError::DeadlineExceeded
                            | OmegaError::Cancelled
                            | OmegaError::Internal { .. }
                            | OmegaError::Overloaded { .. },
                        ) => {}
                        Err(other) => panic!("untyped failure under the storm: {other}"),
                    }
                }
            }
            assert_workers_settle(baseline);
        }
        assert_database_survives(&workload, &reference_request);
    }
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

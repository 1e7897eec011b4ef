//! Deterministic fault injection for the chaos test suite.
//!
//! A `FaultPlan` (present under `cfg(any(test, feature = "fault-injection"))`,
//! like everything that can actually fire) is a seeded, rate-controlled oracle deciding — purely as
//! a function of `(seed, injection point, per-point hit counter)` — whether
//! each pass through an instrumented code path fails. The same seed over the
//! same workload therefore replays the *same* schedule of failures, which is
//! what lets `tests/chaos.rs` commit seeds and assert exact recovery
//! behaviour instead of hoping a probabilistic test eventually trips the
//! interesting path.
//!
//! The instrumented points ([`FaultPoint`]) cover the failure classes a
//! serving deployment actually sees: snapshot IO reads, budget acquisition,
//! the deadline clock, mutation apply, and write-ahead-log I/O (torn
//! appends, failed fsyncs). Each hook compiles to a branch on an `AtomicPtr`-free global under
//! `cfg(any(test, feature = "fault-injection"))` and to a constant `false`
//! otherwise, so release library builds carry no chaos machinery at all.
//!
//! Installation is process-global (guarded, cleared on drop) because the
//! injected paths run wherever the engine does — a server's connection
//! threads included — so chaos tests serialise on a mutex.

/// A code path instrumented for fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Reading/validating a snapshot image on open.
    SnapshotRead = 0,
    /// A budget check / shared-pool tuple reservation.
    BudgetAcquire = 1,
    /// The wall-clock deadline check (simulates clock jumps).
    DeadlineClock = 2,
    /// Applying a mutation batch to the live graph (before the new epoch is
    /// published, so an injected failure leaves the graph unchanged).
    MutationApply = 3,
    /// Appending a mutation record to the write-ahead log. Firing damages
    /// the on-disk record (torn write) and fails the append, exercising the
    /// degrade-to-read-only path and tail truncation on recovery.
    WalAppend = 4,
    /// Fsyncing the write-ahead log: the record lands intact but the
    /// durability promise is broken (power loss before flush).
    WalSync = 5,
}

/// Number of distinct injection points.
pub const FAULT_POINTS: usize = 6;

/// Every injection point, for tests that sweep them.
pub const ALL_POINTS: [FaultPoint; FAULT_POINTS] = [
    FaultPoint::SnapshotRead,
    FaultPoint::BudgetAcquire,
    FaultPoint::DeadlineClock,
    FaultPoint::MutationApply,
    FaultPoint::WalAppend,
    FaultPoint::WalSync,
];

#[cfg(any(test, feature = "fault-injection"))]
mod active {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    use super::{FaultPoint, FAULT_POINTS};

    /// Fast-path flag mirroring "a plan is installed". The hooks sit on
    /// per-tuple cadences, so the common no-plan case must cost one relaxed
    /// load, not a global mutex acquisition.
    static INSTALLED: AtomicBool = AtomicBool::new(false);

    /// SplitMix64: a tiny, high-quality mixer — the decision function is
    /// `mix(seed ⊕ point ⊕ hit-counter) < rate threshold`, so every decision
    /// is independent of wall-clock time and thread scheduling *given* the
    /// per-point hit index.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded schedule of injected faults.
    #[derive(Debug)]
    pub struct FaultPlan {
        seed: u64,
        /// Failure threshold: a decision fires when the mixed hash is below
        /// it. `u64::MAX` ≈ rate 1.0.
        threshold: u64,
        /// Per-point masks: a point only fires when enabled.
        enabled: [bool; FAULT_POINTS],
        /// Per-point hit counters (how often the point was consulted).
        hits: [AtomicU64; FAULT_POINTS],
        /// Per-point fire counters (how often it actually failed).
        fired: [AtomicU64; FAULT_POINTS],
    }

    impl FaultPlan {
        /// A plan failing each enabled point with probability `rate`
        /// (clamped to `[0, 1]`), deterministically in `seed`.
        pub fn new(seed: u64, rate: f64) -> FaultPlan {
            let rate = rate.clamp(0.0, 1.0);
            FaultPlan {
                seed,
                threshold: (rate * u64::MAX as f64) as u64,
                enabled: [true; FAULT_POINTS],
                hits: std::array::from_fn(|_| AtomicU64::new(0)),
                fired: std::array::from_fn(|_| AtomicU64::new(0)),
            }
        }

        /// Restricts the plan to a single injection point.
        pub fn only(mut self, point: FaultPoint) -> FaultPlan {
            self.enabled = [false; FAULT_POINTS];
            self.enabled[point as usize] = true;
            self
        }

        /// Whether this consultation of `point` fails.
        pub fn should_fail(&self, point: FaultPoint) -> bool {
            let idx = point as usize;
            if !self.enabled[idx] {
                return false;
            }
            let n = self.hits[idx].fetch_add(1, Ordering::Relaxed);
            let key = self.seed.wrapping_mul(0x2545_f491_4f6c_dd1d)
                ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ n;
            let fire = splitmix64(key) < self.threshold;
            if fire {
                self.fired[idx].fetch_add(1, Ordering::Relaxed);
            }
            fire
        }

        /// How many times `point` was consulted.
        pub fn hits(&self, point: FaultPoint) -> u64 {
            self.hits[point as usize].load(Ordering::Relaxed)
        }

        /// How many times `point` actually failed.
        pub fn fired(&self, point: FaultPoint) -> u64 {
            self.fired[point as usize].load(Ordering::Relaxed)
        }

        /// Total injected faults across all points.
        pub fn total_fired(&self) -> u64 {
            self.fired.iter().map(|c| c.load(Ordering::Relaxed)).sum()
        }
    }

    fn slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
        static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
        SLOT.get_or_init(|| Mutex::new(None))
    }

    /// Clears the installed plan when dropped, bounding a chaos schedule to
    /// its test's scope even on assertion failure (unwind runs the drop).
    pub struct FaultGuard {
        _private: (),
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            *slot().lock().unwrap_or_else(|e| e.into_inner()) = None;
            INSTALLED.store(false, Ordering::SeqCst);
        }
    }

    /// Installs `plan` process-wide, returning a guard that uninstalls it.
    ///
    /// Chaos tests serialise on their own mutex; installing over an existing
    /// plan replaces it (last writer wins).
    pub fn install(plan: Arc<FaultPlan>) -> FaultGuard {
        *slot().lock().unwrap_or_else(|e| e.into_inner()) = Some(plan);
        INSTALLED.store(true, Ordering::SeqCst);
        FaultGuard { _private: () }
    }

    /// The installed plan, if any.
    pub fn current() -> Option<Arc<FaultPlan>> {
        slot().lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The hook the instrumented paths call: `true` means "fail here now".
    ///
    /// Some hooks sit on per-tuple cadences, so with no plan installed this
    /// is one relaxed atomic load; the mutex is only taken while a chaos
    /// schedule is actually running.
    #[inline]
    pub fn fire(point: FaultPoint) -> bool {
        if !INSTALLED.load(Ordering::Relaxed) {
            return false;
        }
        current().is_some_and(|plan| plan.should_fail(point))
    }
}

#[cfg(any(test, feature = "fault-injection"))]
pub use active::{current, fire, install, FaultGuard, FaultPlan};

/// No-op twin compiled into non-instrumented builds: the hook is a constant
/// and the optimiser deletes the branch at every injection site.
#[cfg(not(any(test, feature = "fault-injection")))]
#[inline(always)]
pub fn fire(_point: FaultPoint) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn same_seed_replays_the_same_schedule() {
        let a = FaultPlan::new(42, 0.3);
        let b = FaultPlan::new(42, 0.3);
        let decisions_a: Vec<bool> = (0..256)
            .map(|_| a.should_fail(FaultPoint::DeadlineClock))
            .collect();
        let decisions_b: Vec<bool> = (0..256)
            .map(|_| b.should_fail(FaultPoint::DeadlineClock))
            .collect();
        assert_eq!(decisions_a, decisions_b);
        assert!(a.total_fired() > 0, "rate 0.3 over 256 draws fires");
        assert!(
            a.fired(FaultPoint::DeadlineClock) < 256,
            "rate 0.3 is not rate 1.0"
        );
    }

    #[test]
    fn different_seeds_differ_and_points_are_independent() {
        let a = FaultPlan::new(1, 0.5);
        let b = FaultPlan::new(2, 0.5);
        let da: Vec<bool> = (0..128)
            .map(|_| a.should_fail(FaultPoint::BudgetAcquire))
            .collect();
        let db: Vec<bool> = (0..128)
            .map(|_| b.should_fail(FaultPoint::BudgetAcquire))
            .collect();
        assert_ne!(da, db, "seeds must produce distinct schedules");
        // A disabled point never fires even at rate 1.
        let only = FaultPlan::new(7, 1.0).only(FaultPoint::MutationApply);
        assert!(!only.should_fail(FaultPoint::SnapshotRead));
        assert!(only.should_fail(FaultPoint::MutationApply));
    }

    #[test]
    fn rates_zero_and_one_are_exact() {
        let never = FaultPlan::new(9, 0.0);
        let always = FaultPlan::new(9, 1.0);
        for point in ALL_POINTS {
            for _ in 0..32 {
                assert!(!never.should_fail(point));
                assert!(always.should_fail(point));
            }
        }
    }

    #[test]
    fn install_guard_scopes_the_plan() {
        // Unit tests share the process with concurrently running sibling
        // tests, so this installs a rate-0 plan: globally inert, but the
        // hit counters still prove the hooks consulted it.
        let plan = Arc::new(FaultPlan::new(3, 0.0));
        {
            let _guard = install(Arc::clone(&plan));
            assert!(current().is_some());
            assert!(!fire(FaultPoint::DeadlineClock), "rate 0 never fires");
        }
        assert!(plan.hits(FaultPoint::DeadlineClock) >= 1, "hook consulted");
        assert!(current().is_none(), "guard uninstalls on drop");
        assert!(!fire(FaultPoint::DeadlineClock));
    }
}

//! Deterministic fault-injection plans.
//!
//! A [`FaultPlan`] is a *schedule*, not a probability: every fault names
//! the logical step at which it fires and the replica it targets. The
//! simulated transport (`sim.rs`) counts coordinator calls on a
//! global step counter and consults the plan at every call, so the same
//! plan against the same workload produces the same event trace byte for
//! byte. Seeded construction ([`FaultPlan::seeded`]) turns one `u64` into
//! such a schedule through the deterministic `rand` shim, which is what
//! the gauntlet tests use to sweep many distinct fault mixes cheaply.
//!
//! Test-only, like `sim.rs`: see that file for how test targets mount it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The connection breaks before the request reaches the shard: the
    /// caller sees `Closed` and must re-dial.
    DropConn,
    /// The shard processes the request but the reply never arrives: the
    /// caller sees `Timeout`. Exercises idempotence — the shard's state
    /// may have advanced even though the coordinator saw a failure.
    DelayReply,
    /// The reply frame arrives cut short: the caller sees a decode error.
    TruncateReply,
    /// One byte of the reply is flipped: header or payload corruption.
    GarbleReply,
    /// The shard process dies: all state is lost and every subsequent
    /// call fails until a matching [`FaultKind::RestartShard`] fires.
    KillShard,
    /// The shard process comes back up — alive but *empty*, forcing the
    /// coordinator down the reload path.
    RestartShard,
}

impl FaultKind {
    /// Lifecycle faults change shard liveness at a step boundary; wire
    /// faults corrupt exactly one request to the target replica.
    pub fn is_lifecycle(self) -> bool {
        matches!(self, FaultKind::KillShard | FaultKind::RestartShard)
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global step (coordinator call count) at which the fault arms.
    /// Lifecycle faults apply as soon as the counter reaches this step;
    /// wire faults hit the first call to `replica` at or after it. A
    /// batched query frame counts as **one** call like any other: a wire
    /// fault landing on it drops, delays, truncates, or garbles the whole
    /// batch — never a subset of the queries inside it.
    pub step: u64,
    /// Target replica index (coordinator's flat replica numbering).
    pub replica: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: a perfectly healthy cluster.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from an explicit event list.
    pub fn scripted(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.step, e.replica));
        FaultPlan { events }
    }

    /// Derives a schedule from a seed: about `intensity` faults per step
    /// over `steps` logical steps against `replicas` replicas, with every
    /// kill paired with a later restart so the cluster always heals.
    pub fn seeded(seed: u64, steps: u64, replicas: usize, intensity: f64) -> Self {
        assert!(replicas > 0, "a plan needs at least one replica to target");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_c0de_u64);
        let mut events = Vec::new();
        let total = ((steps as f64) * intensity).ceil() as u64;
        const WIRE: [FaultKind; 4] = [
            FaultKind::DropConn,
            FaultKind::DelayReply,
            FaultKind::TruncateReply,
            FaultKind::GarbleReply,
        ];
        for _ in 0..total {
            let step = rng.gen_range(1..steps.max(2));
            let replica = rng.gen_range(0..replicas);
            if rng.gen_bool(0.2) {
                // Kill, then guarantee a restart a few steps later.
                events.push(FaultEvent {
                    step,
                    replica,
                    kind: FaultKind::KillShard,
                });
                let back = step + 1 + rng.gen_range(0..4u64);
                events.push(FaultEvent {
                    step: back,
                    replica,
                    kind: FaultKind::RestartShard,
                });
            } else {
                let kind = WIRE[rng.gen_range(0..WIRE.len())];
                events.push(FaultEvent {
                    step,
                    replica,
                    kind,
                });
            }
        }
        FaultPlan::scripted(events)
    }

    /// Adds one event.
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self.events.sort_by_key(|e| (e.step, e.replica));
        self
    }

    /// Convenience: kill `replica` at `step` (no automatic restart).
    pub fn with_kill(self, step: u64, replica: usize) -> Self {
        self.with(FaultEvent {
            step,
            replica,
            kind: FaultKind::KillShard,
        })
    }

    /// Convenience: restart `replica` at `step`.
    pub fn with_restart(self, step: u64, replica: usize) -> Self {
        self.with(FaultEvent {
            step,
            replica,
            kind: FaultKind::RestartShard,
        })
    }

    /// All scheduled events, ordered by step.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

unit_tests! {
mod tests {
    use super::*;

    /// Lifecycle events of `plan` that arm at or before `step`.
    fn lifecycle_through(plan: &FaultPlan, step: u64) -> impl Iterator<Item = &FaultEvent> {
        plan.events()
            .iter()
            .filter(move |e| e.kind.is_lifecycle() && e.step <= step)
    }

    #[test]
    fn seeded_plans_are_reproducible_and_heal() {
        let a = FaultPlan::seeded(42, 100, 4, 0.3);
        let b = FaultPlan::seeded(42, 100, 4, 0.3);
        assert_eq!(a.events(), b.events(), "same seed, same schedule");
        let c = FaultPlan::seeded(43, 100, 4, 0.3);
        assert_ne!(a.events(), c.events(), "different seed, different schedule");
        let kills = a
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::KillShard)
            .count();
        let restarts = a
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::RestartShard)
            .count();
        assert_eq!(kills, restarts, "every seeded kill pairs with a restart");
        assert!(!a.events().is_empty());
    }

    #[test]
    fn scripted_plans_sort_by_step() {
        let plan = FaultPlan::none()
            .with_kill(9, 1)
            .with_restart(3, 0)
            .with(FaultEvent {
                step: 5,
                replica: 2,
                kind: FaultKind::GarbleReply,
            });
        let steps: Vec<u64> = plan.events().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![3, 5, 9]);
        assert_eq!(lifecycle_through(&plan, 5).count(), 1);
        assert_eq!(lifecycle_through(&plan, 9).count(), 2);
    }
}
}

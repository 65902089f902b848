//! A seeded, single-threaded explorer of [`FrontState`]: K clients and one
//! worker step through random interleavings of its transitions. A step is
//! one critical section, or one wake after it, as the threads of
//! `batch.rs` take them; small `max_batch` and `queue_capacity` make
//! backpressure reachable, and the batch deadline is zero, finite (it
//! passes at a step of the scheduler's choosing) or unrepresentable (it
//! never passes). A run may close the front at a random step or once
//! nothing can move, and its worker may panic in a chosen batch.
//!
//! Every step is checked against the front's invariants:
//! - every request is answered exactly once, or refused with the error of
//!   the phase that refused it;
//! - no submitter stays parked while the queue has space, and the worker
//!   never sleeps on a non-empty queue (checked whenever nothing can move,
//!   which is when a lost wake would leave them so for good);
//! - `in_flight` counts the runs actually in flight and returns to 0;
//! - nothing is admitted after shutdown or failure;
//! - the admission rule: a lone miss runs inline exactly when nothing is
//!   queued or in flight, so nothing runs past a held run;
//! - a drain takes all it can: the batch is full or the queue empty, so
//!   lone misses queued behind a busy front share the next batch.
//!
//! Each run's trace folds into an FNV-1a checksum, pinned per seed as
//! `crates/cluster/tests/gauntlet.rs` pins the cluster's: a change to any
//! transition's outcome moves it.

#![allow(clippy::panic, clippy::expect_used)]

use super::*;
use std::collections::BTreeSet;
use std::time::Duration;

const SEEDS: u64 = 64;
const CLIENTS: [usize; 4] = [1, 2, 3, 4];

/// FNV-1a over the newline-terminated trace lines of the runs with 1–4
/// clients, per seed 1–64.
const TRACE_FNV1A: [u64; SEEDS as usize] = [
    0xd387_8763_4fb2_b193,
    0xc0b8_651e_6886_882e,
    0x9d94_9a3e_8b26_6f8f,
    0x20d6_829e_0d05_f549,
    0x5e52_1eba_cad8_a91c,
    0xa7bc_d3f2_8332_f38e,
    0xa2d4_5bfd_2bbb_3aca,
    0x9a26_e574_3e6d_4374,
    0x6dfa_589c_ede0_aa82,
    0xeae5_d3fb_f870_2f48,
    0x0bc0_a3ea_0cb5_f4cd,
    0xc353_df8d_177a_cfb7,
    0x9f01_b637_8248_0c70,
    0x4744_a6a0_28bb_f21b,
    0x9ca5_d560_1c52_9bff,
    0x0d63_73e2_1a8e_696f,
    0x06c0_e04f_45d6_c2c5,
    0xf744_3d64_9c2d_6a4c,
    0x2d2a_c7d3_2670_46ba,
    0x463a_4eef_88cc_9b0c,
    0xd84d_e95c_32d4_bfb6,
    0xa79c_6dd5_31fe_0b67,
    0x5362_a15c_721a_8478,
    0x2890_1038_09be_5692,
    0xb53c_b61a_8758_c5e6,
    0x291d_e20a_81bd_96b4,
    0x14c4_de57_00a5_81f1,
    0x89bf_cb41_d7a1_fc42,
    0xccfd_dc2c_3374_71f6,
    0x8ea5_8962_7c72_62d1,
    0xf8ae_78cc_210f_5e51,
    0x22c0_f733_6998_541f,
    0x7d7b_cb70_9446_7dfe,
    0x3243_fa65_256a_4280,
    0x34e7_9ef4_8b0d_faab,
    0xc1ce_4753_3942_48e3,
    0x2e90_b78c_a925_ca8c,
    0xc784_0c01_e157_5fc5,
    0xbacd_61aa_9111_3758,
    0xd623_f587_2cba_5df7,
    0xde92_e901_ed1e_eb98,
    0xbd9d_4f26_7302_c40b,
    0x695d_1122_3e85_57ed,
    0xce81_f811_b927_ab75,
    0xb663_cc8a_666c_f931,
    0x3540_5ff2_ceec_f0c7,
    0xb038_5926_aa72_fe5b,
    0xb86f_a9d1_f63d_a832,
    0x21ed_df91_0ac1_1a38,
    0x7515_38ab_8cfb_ff95,
    0x1cbc_5e8c_ba22_63cc,
    0x5288_85f1_77c0_a58e,
    0x081c_a12d_d146_c496,
    0x76e3_0fb7_de20_b93f,
    0x6b6d_bad5_bfe6_ba76,
    0x596e_4bb9_4935_0045,
    0x0184_92db_7b2d_2262,
    0xe3a9_c9ac_e58a_b0f9,
    0x036a_800b_8571_85d2,
    0xe429_e6f6_5ab7_2d60,
    0x42f6_a05f_e9c0_2533,
    0x9c1b_ba9e_3502_4173,
    0xd7bb_d6d7_7e4b_aecb,
    0x6f4a_e46c_582e_2f32,
];

/// splitmix64: the explorer's own stream, so no other crate's RNG can move
/// a pinned checksum.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Deadline {
    Zero,
    Finite,
    Unrepresentable,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Client {
    /// Between submissions.
    Idle,
    /// Running a burst's misses on its own thread.
    Burst(Vec<usize>),
    /// A lone miss, about to claim the front.
    Claim(usize),
    /// Running a lone miss inline, the front held busy.
    Inline(usize),
    /// About to enqueue (again, once woken from a full queue).
    Enqueue(usize),
    /// Queued, the lock dropped: about to wake the worker.
    Wake(usize),
    /// Parked on a full queue until woken.
    Parked(usize),
    /// Waiting for the worker's reply.
    Waiting(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Worker {
    /// About to drain, under the lock.
    Drain,
    /// Waiting for a request (and, straggling toward a finite deadline,
    /// for the deadline).
    Asleep,
    /// The drain's lock dropped: wake the parked submitters if told, then
    /// go on to `next`.
    Unlocked {
        next: Work,
        wake: bool,
    },
    /// The batch is closed: encode, vote, release, reply (or panic).
    Serving,
    /// The batch panicked and unwound: fail the front.
    Failing,
    Exited,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Service {
    Open,
    /// Closed under the lock: about to wake everyone, then join.
    Closed,
    Joined,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    Served(&'static str),
    Refused(AdvisorError),
}

struct Run {
    rng: Rng,
    front: FrontState<usize>,
    open: Arc<AtomicBool>,
    capacity: usize,
    deadline: Deadline,
    /// Scheduler steps before the front closes; `None`: once nothing can
    /// move.
    close_at: Option<usize>,
    /// The worker batch (counted from 0) whose serving panics.
    panic_batch: Option<usize>,
    clients: Vec<(Client, usize)>,
    worker: Worker,
    batch: Vec<usize>,
    fill: Fill,
    /// Whether the worker holds the front busy with a batch.
    holding: bool,
    batches: usize,
    service: Service,
    outcomes: Vec<Option<Outcome>>,
    trace: Vec<String>,
    /// Every transition outcome taken, without the run's particulars.
    reached: BTreeSet<String>,
}

impl Run {
    fn new(seed: u64, k: usize) -> Run {
        let mut rng = Rng(seed << 8 | k as u64);
        let deadline = [Deadline::Zero, Deadline::Finite, Deadline::Unrepresentable][rng.below(3)];
        let cfg = ServeConfig {
            max_batch: 1 + rng.below(3),
            queue_capacity: 1 + rng.below(2),
            batch_deadline: match deadline {
                Deadline::Zero => Duration::ZERO,
                Deadline::Finite => Duration::from_millis(2),
                Deadline::Unrepresentable => Duration::MAX,
            },
            ..ServeConfig::default()
        };
        let rounds = 2 + rng.below(3);
        let close_at = (rng.below(2) == 0).then(|| rng.below(40 * k));
        let panic_batch = (rng.below(4) == 0).then(|| rng.below(3));
        let front = FrontState::new(&cfg);
        let trace = vec![format!(
            "k={k} max_batch={} capacity={} deadline={deadline:?} rounds={rounds} \
             close_at={close_at:?} panic_batch={panic_batch:?}",
            cfg.max_batch, cfg.queue_capacity
        )];
        Run {
            rng,
            open: front.open(),
            front,
            capacity: cfg.queue_capacity,
            deadline,
            close_at,
            panic_batch,
            clients: vec![(Client::Idle, rounds); k],
            worker: Worker::Drain,
            batch: Vec::new(),
            fill: Fill::Empty,
            holding: false,
            batches: 0,
            service: Service::Open,
            outcomes: Vec::new(),
            trace,
            reached: BTreeSet::new(),
        }
    }

    /// Pipeline runs in flight, counted from the actors' own states.
    fn runs(&self) -> usize {
        let inline = (self.clients.iter())
            .filter(|(c, _)| matches!(c, Client::Inline(_)))
            .count();
        inline + usize::from(self.holding)
    }

    /// Records a step: `outcome` in the coverage, `detail` in the trace
    /// only.
    fn log(&mut self, actor: &str, outcome: String, detail: String) {
        self.trace.push(format!("{actor} {outcome} {detail}"));
        self.reached.insert(outcome);
    }

    fn request(&mut self) -> usize {
        self.outcomes.push(None);
        self.outcomes.len() - 1
    }

    /// Answers a request once. A refusal carries the error of the phase
    /// the front is already in, so whoever reads it and asks again is
    /// refused the same way.
    fn answer(&mut self, id: usize, outcome: Outcome) {
        if let Outcome::Refused(e) = &outcome {
            assert_eq!(Some(e), self.front.refusal.as_ref(), "request {id}");
        }
        let slot = &mut self.outcomes[id];
        assert!(slot.is_none(), "request {id} answered twice");
        *slot = Some(outcome);
    }

    fn refuse(&mut self, id: usize, e: AdvisorError) {
        self.answer(id, Outcome::Refused(e));
    }

    fn admitted(&self, what: &str) {
        assert!(
            self.front.refusal.is_none(),
            "{what} admitted after the front closed or failed"
        );
    }

    /// `not_empty.notify_*`: only the worker waits there.
    fn wake_worker(&mut self) {
        if self.worker == Worker::Asleep {
            self.worker = Worker::Drain;
        }
    }

    /// `space.notify_all`.
    fn wake_submitters(&mut self) {
        for (c, _) in &mut self.clients {
            if let Client::Parked(id) = *c {
                *c = Client::Enqueue(id);
            }
        }
    }

    fn deadline_can_pass(&self) -> bool {
        self.deadline == Deadline::Finite && matches!(self.fill, Fill::Straggling { passed: false })
    }

    /// Every actor that can take a step now: clients `0..k`, then the
    /// worker (`k`), the batch deadline (`k + 1`) and the service (`k + 2`).
    fn runnable(&self, step: usize) -> Vec<usize> {
        let k = self.clients.len();
        let mut ready: Vec<usize> = (0..k)
            .filter(|&i| match &self.clients[i] {
                (Client::Idle, left) => *left > 0,
                (Client::Parked(_), _) => false,
                (Client::Waiting(id), _) => self.outcomes[*id].is_some(),
                _ => true,
            })
            .collect();
        if !matches!(self.worker, Worker::Asleep | Worker::Exited) {
            ready.push(k);
        }
        if self.deadline_can_pass() {
            ready.push(k + 1);
        }
        let due = self.close_at.is_some_and(|at| step >= at);
        if (self.service == Service::Open && due) || self.service == Service::Closed {
            ready.push(k + 2);
        }
        ready
    }

    /// Nothing can move: a submitter still parked, or a worker still
    /// asleep with work queued, would stay so for good.
    fn check_quiescent(&self) {
        for (c, _) in &self.clients {
            if let Client::Parked(id) = c {
                assert!(
                    self.front.items.len() >= self.capacity,
                    "request {id} parked with space in the queue"
                );
            }
        }
        if self.worker == Worker::Asleep {
            assert!(
                self.front.items.is_empty(),
                "the worker sleeps on queued work"
            );
        }
    }

    fn step_client(&mut self, i: usize) {
        let (state, left) = self.clients[i].clone();
        let next = match state {
            Client::Idle => {
                let (hits, misses) = match self.rng.below(8) {
                    0 => (1 + self.rng.below(2), 0),
                    1 => (self.rng.below(2), 2 + self.rng.below(2)),
                    _ => (self.rng.below(2), 1),
                };
                let ids: Vec<usize> = (0..hits + misses).map(|_| self.request()).collect();
                let admit = match self.open.load(Ordering::Acquire) {
                    true => Ok(()),
                    false => self.front.submit(),
                };
                self.log(
                    &format!("c{i}"),
                    format!("submit {admit:?}"),
                    format!("h{hits} m{misses}"),
                );
                if let Err(e) = admit {
                    for &id in &ids {
                        self.refuse(id, e.clone());
                    }
                    self.clients[i] = (Client::Idle, left - 1);
                    return;
                }
                self.admitted("a submission");
                for &id in &ids[..hits] {
                    self.answer(id, Outcome::Served("cache_hit"));
                }
                match &ids[hits..] {
                    [] => {
                        self.clients[i] = (Client::Idle, left - 1);
                        return;
                    }
                    [id] => Client::Claim(*id),
                    burst => Client::Burst(burst.to_vec()),
                }
            }
            Client::Burst(ids) => {
                self.log(
                    &format!("c{i}"),
                    "burst served".into(),
                    ids.len().to_string(),
                );
                for id in ids {
                    self.answer(id, Outcome::Served("inline"));
                }
                self.clients[i] = (Client::Idle, left - 1);
                return;
            }
            Client::Claim(id) => {
                let idle = self.front.items.is_empty() && self.runs() == 0;
                let claim = self.front.claim();
                self.log(&format!("c{i}"), format!("claim {claim:?}"), String::new());
                match claim {
                    Err(e) => {
                        self.refuse(id, e);
                        self.clients[i] = (Client::Idle, left - 1);
                        return;
                    }
                    Ok(claim) => {
                        self.admitted("a lone miss");
                        assert_eq!(
                            claim == Claim::Inline,
                            idle,
                            "a lone miss runs inline exactly on an idle front"
                        );
                        match claim {
                            Claim::Inline => Client::Inline(id),
                            Claim::Queue => Client::Enqueue(id),
                        }
                    }
                }
            }
            Client::Inline(id) => {
                self.front.release();
                self.log(&format!("c{i}"), "release".into(), String::new());
                self.answer(id, Outcome::Served("inline"));
                self.clients[i] = (Client::Idle, left - 1);
                return;
            }
            Client::Enqueue(id) => {
                let queued = self.front.enqueue(|| id);
                let full = queued.as_ref().map(|full| full.is_some());
                self.log(
                    &format!("c{i}"),
                    format!("enqueue full={full:?}"),
                    String::new(),
                );
                match queued {
                    Err(e) => {
                        self.refuse(id, e);
                        self.clients[i] = (Client::Idle, left - 1);
                        return;
                    }
                    Ok(None) => {
                        self.admitted("a queued miss");
                        Client::Wake(id)
                    }
                    Ok(Some(_)) => {
                        // Wake the worker before parking, under the lock.
                        self.wake_worker();
                        Client::Parked(id)
                    }
                }
            }
            Client::Wake(id) => {
                self.log(&format!("c{i}"), "wake worker".into(), String::new());
                self.wake_worker();
                Client::Waiting(id)
            }
            Client::Waiting(id) => {
                let reply = format!("reply {:?}", self.outcomes[id]);
                self.log(&format!("c{i}"), reply, String::new());
                self.clients[i] = (Client::Idle, left - 1);
                return;
            }
            Client::Parked(_) => unreachable!("not runnable"),
        };
        self.clients[i] = (next, left);
    }

    fn step_worker(&mut self) {
        self.worker = match self.worker {
            Worker::Drain => {
                let (next, wake) = self.front.drain(&mut self.batch, self.fill);
                let outcome = format!("drain {:?} {next:?} wake={wake}", self.fill);
                self.log("w", outcome, self.batch.len().to_string());
                let full = self.batch.len() == self.front.max_batch;
                assert!(
                    full || self.front.items.is_empty(),
                    "a drain left work queued"
                );
                match next {
                    Work::Sleep => Worker::Asleep,
                    Work::Exit => Worker::Exited,
                    _ => {
                        self.holding = true;
                        Worker::Unlocked { next, wake }
                    }
                }
            }
            Worker::Unlocked { next, wake } => {
                self.log("w", format!("unlocked {next:?}"), String::new());
                if wake {
                    self.wake_submitters();
                }
                match next {
                    Work::Run => Worker::Serving,
                    Work::Yield => {
                        self.fill = Fill::Yielded;
                        Worker::Drain
                    }
                    _ => {
                        if let Fill::Yielded = self.fill {
                            self.fill = Fill::Straggling { passed: false };
                        }
                        Worker::Drain
                    }
                }
            }
            Worker::Serving => {
                let panics = self.panic_batch == Some(self.batches);
                let size = if self.batch.len() > 1 { "2+" } else { "1" };
                let detail = self.batch.len().to_string();
                self.log("w", format!("serve {size} panics={panics}"), detail);
                self.batches += 1;
                // The busy claim goes before the first reply, or unwinds.
                self.front.release();
                self.holding = false;
                self.fill = Fill::Empty;
                if panics {
                    return self.worker = Worker::Failing;
                }
                for id in std::mem::take(&mut self.batch) {
                    self.answer(id, Outcome::Served("worker"));
                }
                Worker::Drain
            }
            Worker::Failing => {
                // The front fails first; the queued requests and then the
                // unwound batch drop their reply senders after it.
                let refused = self.front.fail();
                self.log("w", "fail".into(), refused.len().to_string());
                self.wake_submitters();
                let batch = std::mem::take(&mut self.batch);
                for id in refused.into_iter().chain(batch) {
                    self.answer(id, Outcome::Refused(AdvisorError::WorkerFailed));
                }
                Worker::Exited
            }
            Worker::Asleep | Worker::Exited => unreachable!("not runnable"),
        };
    }

    fn step_service(&mut self) {
        self.service = match self.service {
            Service::Open => {
                self.front.close();
                self.log("svc", "close".into(), String::new());
                Service::Closed
            }
            Service::Closed => {
                self.log("svc", "wake all".into(), String::new());
                self.wake_worker();
                self.wake_submitters();
                Service::Joined
            }
            Service::Joined => unreachable!("not runnable"),
        };
    }

    /// Runs to the end; returns the trace and the outcomes reached.
    fn explore(mut self) -> (Vec<String>, BTreeSet<String>) {
        let k = self.clients.len();
        for step in 0.. {
            assert!(step < 100_000, "no progress after {step} steps");
            assert_eq!(
                self.front.in_flight,
                self.runs(),
                "in_flight at step {step}"
            );
            assert_eq!(
                self.open.load(Ordering::Acquire),
                self.front.refusal.is_none(),
                "the mirror disagrees with the phase"
            );
            let mut ready = self.runnable(step);
            if ready.is_empty() && self.service == Service::Open {
                self.check_quiescent();
                ready.push(k + 2);
            }
            if ready.is_empty() {
                break;
            }
            match ready[self.rng.below(ready.len())] {
                i if i < k => self.step_client(i),
                i if i == k => self.step_worker(),
                i if i == k + 1 => {
                    self.log("clock", "deadline passes".into(), String::new());
                    self.fill = Fill::Straggling { passed: true };
                    self.wake_worker();
                }
                _ => self.step_service(),
            }
        }
        assert_eq!(
            self.worker,
            Worker::Exited,
            "the worker outlives the service"
        );
        assert_eq!(self.front.in_flight, 0, "in_flight returns to 0");
        for (i, (c, left)) in self.clients.iter().enumerate() {
            assert!(
                *c == Client::Idle && *left == 0,
                "client {i} stuck in {c:?}"
            );
        }
        for (id, o) in self.outcomes.iter().enumerate() {
            assert!(o.is_some(), "request {id} never answered");
        }
        (self.trace, self.reached)
    }
}

fn fnv1a(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in lines
        .iter()
        .flat_map(|l| l.bytes().chain(std::iter::once(b'\n')))
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every seed's runs, K = 1–4 clients each: one trace per seed, and every
/// outcome reached.
fn explore_all() -> (Vec<Vec<String>>, BTreeSet<String>) {
    let mut reached = BTreeSet::new();
    let traces = (1..=SEEDS)
        .map(|seed| {
            let mut trace = Vec::new();
            for k in CLIENTS {
                let (t, r) = Run::new(seed, k).explore();
                trace.extend(t);
                reached.extend(r);
            }
            trace
        })
        .collect();
    (traces, reached)
}

#[test]
fn every_seed_keeps_the_invariants_and_its_trace() {
    let sums: Vec<u64> = explore_all().0.iter().map(|t| fnv1a(t)).collect();
    let shown: Vec<String> = sums.iter().map(|s| format!("{s:#018x}")).collect();
    assert_eq!(
        sums,
        TRACE_FNV1A,
        "per-seed checksums: [{}]",
        shown.join(", ")
    );
}

/// The seeds reach every outcome of every transition — a transition the
/// explorer never takes is one it does not check.
#[test]
fn the_seeds_reach_every_transition_outcome() {
    let reached = explore_all().1;
    let expected = [
        "submit Ok(())",
        "submit Err(ShuttingDown)",
        "submit Err(WorkerFailed)",
        "claim Ok(Inline)",
        "claim Ok(Queue)",
        "claim Err(ShuttingDown)",
        "enqueue full=Ok(false)",
        "enqueue full=Ok(true)",
        "enqueue full=Err(ShuttingDown)",
        "drain Empty Sleep wake=false",
        "drain Empty Exit wake=false",
        "drain Empty Yield wake=true",
        "drain Empty Run wake=true",
        "drain Yielded Run wake=false",
        "drain Yielded Run wake=true",
        "drain Yielded Straggle wake=false",
        "drain Yielded Straggle wake=true",
        "drain Straggling { passed: false } Sleep wake=false",
        "drain Straggling { passed: false } Straggle wake=true",
        "drain Straggling { passed: false } Run wake=false",
        "drain Straggling { passed: false } Run wake=true",
        "drain Straggling { passed: true } Run wake=false",
        "serve 1 panics=false",
        "serve 2+ panics=false",
        "serve 1 panics=true",
        "fail",
        "close",
        "deadline passes",
    ];
    let missing: Vec<&str> = (expected.iter().copied())
        .filter(|e| !reached.contains(*e))
        .collect();
    assert!(
        missing.is_empty(),
        "never reached: {missing:?}; reached: {reached:#?}"
    );
}

fn config(max_batch: usize, queue_capacity: usize, batch_deadline: Duration) -> ServeConfig {
    ServeConfig {
        max_batch,
        queue_capacity,
        batch_deadline,
        ..ServeConfig::default()
    }
}

/// The interleaving the threaded suites hold a backend's gate for: while
/// one run is in flight, no lone miss runs past it — each queues, or parks
/// on a full queue until the worker's drain frees space — and the worker
/// takes every queued miss into one batch.
#[test]
fn nothing_runs_past_a_held_run() {
    let mut front = FrontState::new(&config(2, 2, Duration::ZERO));
    assert_eq!(front.claim(), Ok(Claim::Inline));
    for id in 0..2 {
        assert_eq!(front.claim(), Ok(Claim::Queue));
        assert!(matches!(front.enqueue(|| id), Ok(None)));
    }
    assert_eq!(front.claim(), Ok(Claim::Queue));
    assert!(
        matches!(front.enqueue(|| 2), Ok(Some(_))),
        "a full queue parks"
    );
    let mut batch = Vec::new();
    assert_eq!(front.drain(&mut batch, Fill::Empty), (Work::Run, true));
    assert_eq!(batch, [0, 1], "one batch takes every queued miss it holds");
    assert!(
        matches!(front.enqueue(|| 2), Ok(None)),
        "the woken miss queues"
    );
    front.release();
    assert_eq!(
        front.claim(),
        Ok(Claim::Queue),
        "the worker's batch is in flight"
    );
    front.release();
    assert_eq!(front.claim(), Ok(Claim::Queue), "a miss is still queued");
    let mut next = Vec::new();
    assert_eq!(front.drain(&mut next, Fill::Empty), (Work::Yield, true));
    assert_eq!(front.drain(&mut next, Fill::Yielded), (Work::Run, false));
    front.release();
    assert_eq!(front.claim(), Ok(Claim::Inline), "an idle front again");
}

/// A deadline too far to represent never passes: the worker straggles
/// until the batch is full or the front closes, then serves what it holds.
#[test]
fn an_unrepresentable_deadline_closes_at_max_batch_or_at_shutdown() {
    let mut front = FrontState::new(&config(2, 4, Duration::MAX));
    let never = Fill::Straggling { passed: false };
    let mut batch = Vec::new();
    assert!(matches!(front.enqueue(|| 0), Ok(None)));
    assert_eq!(front.drain(&mut batch, Fill::Empty), (Work::Yield, true));
    assert_eq!(
        front.drain(&mut batch, Fill::Yielded),
        (Work::Straggle, false)
    );
    assert_eq!(front.drain(&mut batch, never), (Work::Sleep, false));
    assert!(matches!(front.enqueue(|| 1), Ok(None)));
    assert_eq!(front.drain(&mut batch, never), (Work::Run, true), "full");
    front.release();
    let mut batch = Vec::new();
    assert!(matches!(front.enqueue(|| 2), Ok(None)));
    assert_eq!(front.drain(&mut batch, Fill::Empty), (Work::Yield, true));
    assert_eq!(
        front.drain(&mut batch, Fill::Yielded),
        (Work::Straggle, false)
    );
    assert_eq!(front.drain(&mut batch, never), (Work::Sleep, false));
    front.close();
    assert_eq!(
        front.drain(&mut batch, never),
        (Work::Run, false),
        "shutdown"
    );
    assert_eq!(batch, [2]);
    front.release();
    assert_eq!(
        front.drain(&mut Vec::new(), Fill::Empty),
        (Work::Exit, false)
    );
}

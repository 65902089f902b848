//! In-process simulated cluster transport with deterministic fault
//! injection.
//!
//! [`SimNet`] hosts one [`ShardState`] per replica behind the same
//! [`Conn`]/[`Connector`] traits the TCP transport implements, and routes
//! every call through a [`FaultPlan`]. A global step counter advances on
//! each call; the plan's lifecycle events (kill/restart) apply the moment
//! the counter reaches their step, and its wire events corrupt the first
//! call to their target replica at or after theirs. Everything is driven
//! off one mutex-guarded state block, so a single-threaded coordinator
//! replay is exactly reproducible: same plan + same workload → same
//! errors at the same steps → same coordinator event trace.
//!
//! Fault semantics mirror the real failure, not a convenient
//! approximation:
//!
//! * `KillShard` clears the shard's state (process death loses the
//!   table), so recovery must go through the coordinator's reload path;
//! * `DelayReply` lets the shard process the request *before* the reply
//!   is lost, so retries exercise idempotence (a retried push must NACK
//!   with `StaleTable`, not double-append);
//! * `TruncateReply`/`GarbleReply` corrupt real encoded bytes and let the
//!   normal frame parser reject them — the same code path a flaky NIC
//!   would hit. Garbling flips a header byte: the frame codec carries no
//!   payload checksum (TCP's covers transport corruption in production),
//!   so only header damage is detectable, and the plan stays honest about
//!   that.
//!
//! Test-only: `ce-cluster` declares this module (and its sibling
//! `fault`) under `#[cfg(test)]`, and integration tests mount both files
//! by `#[path]` from `tests/common/mod.rs`, so the file names the crate
//! as `ce_cluster` and the schedule as `super::fault`.

use super::fault::{FaultKind, FaultPlan};
use autoce::AutoCe;
use ce_cluster::protocol::Frame;
use ce_cluster::server::ShardState;
use ce_cluster::transport::{Conn, Connector, WireError};
use ce_cluster::{ClusterConfig, ClusterCoordinator};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A config with zero backoff sleeps — what the deterministic gauntlet
/// uses so fault sweeps run at memory speed.
pub fn no_sleep() -> ClusterConfig {
    ClusterConfig {
        backoff_base: Duration::ZERO,
        backoff_max: Duration::ZERO,
        ..ClusterConfig::default()
    }
}

/// A coordinator over `net` with `replicas_per_range` replicas per
/// authority range, numbered `range * replicas_per_range + r` on the net
/// (the flat numbering a fault event's `replica` uses).
pub fn over_sim(
    authority: AutoCe,
    net: &SimNet,
    replicas_per_range: usize,
    cfg: ClusterConfig,
) -> ClusterCoordinator {
    let ranges = authority.num_shards();
    let connectors = (0..ranges)
        .map(|range| {
            (0..replicas_per_range)
                .map(|r| {
                    Box::new(net.connector(range * replicas_per_range + r)) as Box<dyn Connector>
                })
                .collect()
        })
        .collect();
    ClusterCoordinator::new(authority, connectors, cfg)
}

struct SimShard {
    alive: bool,
    state: ShardState,
}

struct SimState {
    step: u64,
    /// One flag per plan event: lifecycle events flip to `true` once
    /// applied, wire events once consumed by a call.
    consumed: Vec<bool>,
    shards: Vec<SimShard>,
}

struct SimInner {
    plan: FaultPlan,
    state: Mutex<SimState>,
}

/// A simulated loopback network hosting `replicas` shard servers.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<SimInner>,
}

impl SimNet {
    /// A network of `replicas` empty shard servers governed by `plan`.
    pub fn new(replicas: usize, plan: FaultPlan) -> Self {
        let consumed = vec![false; plan.events().len()];
        let shards = (0..replicas)
            .map(|_| SimShard {
                alive: true,
                state: ShardState::new(),
            })
            .collect();
        SimNet {
            inner: Arc::new(SimInner {
                plan,
                state: Mutex::new(SimState {
                    step: 0,
                    consumed,
                    shards,
                }),
            }),
        }
    }

    /// A connector dialing simulated replica `replica`.
    pub fn connector(&self, replica: usize) -> SimConnector {
        SimConnector {
            net: self.clone(),
            replica,
        }
    }

    /// Current global step (number of calls made so far). A batched query
    /// frame is **one** call and therefore one step — batching shrinks the
    /// step count of a workload, which is exactly the RTT amortization
    /// batching exists to buy — so fault plans scripted against batched
    /// traffic land on whole batches, never on individual queries inside
    /// one.
    pub fn step(&self) -> u64 {
        self.inner.state.lock().expect("sim state").step
    }

    /// Whether replica `replica` is currently alive (after applying all
    /// lifecycle events due at the current step).
    pub fn alive(&self, replica: usize) -> bool {
        let mut st = self.inner.state.lock().expect("sim state");
        let step = st.step;
        Self::apply_lifecycle(&self.inner.plan, &mut st, step);
        st.shards[replica].alive
    }

    fn apply_lifecycle(plan: &FaultPlan, st: &mut SimState, through: u64) {
        for (i, e) in plan.events().iter().enumerate() {
            if st.consumed[i] || !e.kind.is_lifecycle() || e.step > through {
                continue;
            }
            st.consumed[i] = true;
            let shard = &mut st.shards[e.replica];
            match e.kind {
                FaultKind::KillShard => {
                    shard.alive = false;
                    // Process death loses the table.
                    shard.state = ShardState::new();
                }
                FaultKind::RestartShard => {
                    shard.alive = true;
                    shard.state = ShardState::new();
                }
                _ => unreachable!("lifecycle filter"),
            }
        }
    }

    /// Takes the first unconsumed wire fault armed for `replica` at or
    /// before `step`.
    fn take_wire_fault(&self, st: &mut SimState, replica: usize, step: u64) -> Option<FaultKind> {
        for (i, e) in self.inner.plan.events().iter().enumerate() {
            if st.consumed[i] || e.kind.is_lifecycle() || e.replica != replica || e.step > step {
                continue;
            }
            st.consumed[i] = true;
            return Some(e.kind);
        }
        None
    }

    fn call(&self, replica: usize, frame: &Frame) -> Result<Frame, WireError> {
        let mut st = self.inner.state.lock().expect("sim state");
        st.step += 1;
        let step = st.step;
        Self::apply_lifecycle(&self.inner.plan, &mut st, step);
        if !st.shards[replica].alive {
            return Err(WireError::Closed(format!("sim shard {replica} is down")));
        }
        match self.take_wire_fault(&mut st, replica, step) {
            Some(FaultKind::DropConn) => {
                // Request never reaches the shard.
                Err(WireError::Closed(format!(
                    "sim: connection to shard {replica} dropped"
                )))
            }
            Some(FaultKind::DelayReply) => {
                // The shard processes the request; only the reply is lost.
                let _ = st.shards[replica].state.handle(frame);
                Err(WireError::Timeout)
            }
            Some(FaultKind::TruncateReply) => {
                let reply = st.shards[replica].state.handle(frame);
                let bytes = reply.to_bytes();
                let cut = bytes.len() / 2;
                Err(Frame::from_bytes(&bytes[..cut])
                    .expect_err("truncated frame must not parse")
                    .into())
            }
            Some(FaultKind::GarbleReply) => {
                let reply = st.shards[replica].state.handle(frame);
                let mut bytes = reply.to_bytes();
                bytes[0] ^= 0x5a; // damage the magic — detectably corrupt
                Err(Frame::from_bytes(&bytes)
                    .expect_err("garbled magic must not parse")
                    .into())
            }
            Some(other) => unreachable!("lifecycle fault {other:?} as wire fault"),
            None => Ok(st.shards[replica].state.handle(frame)),
        }
    }
}

/// Connector for one simulated replica.
pub struct SimConnector {
    net: SimNet,
    replica: usize,
}

impl Connector for SimConnector {
    fn connect(&mut self) -> Result<Box<dyn Conn>, WireError> {
        let mut st = self.net.inner.state.lock().expect("sim state");
        // A dial is a scheduled interaction like any call: it advances
        // the global step, so lifecycle events can fire between dials
        // even when no call ever succeeds (a dead single-replica net
        // would otherwise freeze time and its restart could never land).
        st.step += 1;
        let step = st.step;
        SimNet::apply_lifecycle(&self.net.inner.plan, &mut st, step);
        if !st.shards[self.replica].alive {
            return Err(WireError::Closed(format!(
                "sim: connection to shard {} refused",
                self.replica
            )));
        }
        drop(st);
        Ok(Box::new(SimConn {
            net: self.net.clone(),
            replica: self.replica,
            dead: false,
            pending: None,
        }))
    }

    fn label(&self) -> String {
        format!("sim://{}", self.replica)
    }
}

/// One simulated connection. Any error poisons it, matching the TCP
/// transport's re-dial discipline.
///
/// The two-phase surface maps onto the synchronous simulation by
/// executing the request at `send` time — the global step advances in
/// **send order**, so a pipelined fan-out (all sends in fixed range
/// order, then all recvs) schedules fault events exactly as a serial
/// replay of the same send sequence would — and parking the result until
/// `recv`. Pipelining therefore changes no step numbering and no trace.
pub struct SimConn {
    net: SimNet,
    replica: usize,
    dead: bool,
    /// Result parked between `send` and `recv`.
    pending: Option<Result<Frame, WireError>>,
}

impl Conn for SimConn {
    fn send(&mut self, frame: &Frame, _deadline: Duration) -> Result<(), WireError> {
        if self.dead {
            return Err(WireError::Closed("sim: connection already failed".into()));
        }
        if self.pending.is_some() {
            self.dead = true;
            return Err(WireError::Frame(
                "sim: send with a reply still in flight".into(),
            ));
        }
        // Note: a send whose *reply* will fail still succeeds here — the
        // wire accepted the bytes; the failure surfaces at `recv`, as on
        // a real socket.
        self.pending = Some(self.net.call(self.replica, frame));
        Ok(())
    }

    fn recv(&mut self, _deadline: Duration) -> Result<Frame, WireError> {
        if self.dead {
            return Err(WireError::Closed("sim: connection already failed".into()));
        }
        let out = match self.pending.take() {
            Some(r) => r,
            None => Err(WireError::Frame("sim: recv without a send".into())),
        };
        if out.is_err() {
            self.dead = true;
        }
        out
    }
}

unit_tests! {
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::protocol::{EpochTable, Load, Message, Ping, Pong};

    fn ping(conn: &mut Box<dyn Conn>, nonce: u64) -> Result<Frame, WireError> {
        conn.call(&Ping { nonce }.into_frame(), Duration::from_secs(1))
    }

    #[test]
    fn healthy_net_answers() {
        let net = SimNet::new(2, FaultPlan::none());
        let mut c = net.connector(1).connect().expect("connect");
        let pong = Pong::from_frame(&ping(&mut c, 7).expect("reply")).expect("pong");
        assert_eq!(pong.nonce, 7);
        assert_eq!(net.step(), 2, "one dial + one call");
    }

    #[test]
    fn kill_loses_state_and_restart_comes_back_empty() {
        let plan = FaultPlan::none().with_kill(3, 0).with_restart(4, 0);
        let net = SimNet::new(1, plan);
        let mut c = net.connector(0).connect().expect("connect"); // step 1
        let table = EpochTable {
            epoch: 0,
            ids: vec![0],
            embeddings: vec![vec![1.0]],
        };
        c.call(&Load { table }.into_frame(), Duration::from_secs(1))
            .expect("load"); // step 2
                             // Step 3: the kill applies before the call — connection dies.
        assert!(matches!(ping(&mut c, 1), Err(WireError::Closed(_))));
        assert!(!net.alive(0));
        // Step 4 (the re-dial): restart applies — alive again, but the
        // table is gone.
        let mut c = net.connector(0).connect().expect("reconnect");
        let pong = Pong::from_frame(&ping(&mut c, 2).expect("reply")).expect("pong");
        assert_eq!(pong.epoch, u64::MAX, "restarted shard is empty");
    }

    #[test]
    fn wire_faults_fire_once_and_poison_the_conn() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            step: 1,
            replica: 0,
            kind: FaultKind::TruncateReply,
        }]);
        let net = SimNet::new(1, plan);
        let mut c = net.connector(0).connect().expect("connect");
        assert!(matches!(ping(&mut c, 1), Err(WireError::Frame(_))));
        // The conn is poisoned even for later calls.
        assert!(matches!(ping(&mut c, 2), Err(WireError::Closed(_))));
        // A fresh conn works: the fault was one-shot.
        let mut c = net.connector(0).connect().expect("reconnect");
        assert!(ping(&mut c, 3).is_ok());
    }

    #[test]
    fn delayed_reply_still_mutates_state() {
        let plan = FaultPlan::scripted(vec![FaultEvent {
            step: 1,
            replica: 0,
            kind: FaultKind::DelayReply,
        }]);
        let net = SimNet::new(1, plan);
        let mut c = net.connector(0).connect().expect("connect");
        let table = EpochTable {
            epoch: 4,
            ids: vec![9],
            embeddings: vec![vec![0.5]],
        };
        assert!(matches!(
            c.call(&Load { table }.into_frame(), Duration::from_secs(1)),
            Err(WireError::Timeout)
        ));
        let mut c = net.connector(0).connect().expect("reconnect");
        let pong = Pong::from_frame(&ping(&mut c, 1).expect("reply")).expect("pong");
        assert_eq!(
            (pong.epoch, pong.version),
            (4, 1),
            "the load applied even though its ack was lost"
        );
    }
}
}

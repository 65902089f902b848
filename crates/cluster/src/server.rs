//! The shard server: owns epoch-tagged embedding tables for one RCS range
//! and answers partial top-k queries.
//!
//! The numeric core is [`autoce::knn::partial_topk`] over a borrowed view
//! of the wire table and the packed mirror kept beside it — the function
//! the in-process shards call, with `u64` ids — so a remote answer is
//! bit-identical to the in-process shard's.
//! Everything else is state machinery: a shard holds up to two live tables
//! (current and previous epoch), so a cluster-wide epoch swap never makes
//! in-flight old-epoch queries fail, and every request pins the exact
//! `(epoch, version)` it expects — a replica that missed a push or a
//! snapshot NACKs instead of silently serving stale bits.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::per_step_counters;
use crate::protocol::{
    EpochAck, EpochTable, Frame, FrameError, FrameReader, Load, LoadAck, Message, MetricsReply,
    Nack, NackCode, Ping, Pong, Push, PushAck, QueryBatch, ShutdownAck, SnapshotEpoch, Step,
    TopKBatch,
};
use autoce::index::{IndexConfig, KnnIndex};
use autoce::knn::{self, Partition};
use autoce::AdvisorError;
use ce_nn::packed::PackedRows;
use ce_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// How many epochs a shard keeps live at once: the current one plus the
/// previous, so queries racing a snapshot swap still answer.
pub const LIVE_EPOCHS: usize = 2;

/// The line a shard-server process prints once it is accepting
/// connections; parents parse the address after the space.
pub const READY_LINE_PREFIX: &str = "CE-SHARD-LISTENING";

/// Shard-side metrics handles, registered once at state construction so
/// the request path records with plain `fetch_add`s — never a registry
/// lock. All values are counters (no wall-clock reads), so a shard's
/// snapshot is a deterministic function of the requests it served.
struct ShardObs {
    registry: MetricsRegistry,
    /// `ce_shard_requests_total{step}`, indexed by step number.
    requests: Vec<Counter>,
    /// `ce_shard_wire_bytes_in_total{step}` (request header + payload).
    bytes_in: Vec<Counter>,
    /// `ce_shard_wire_bytes_out_total{step}` (reply header + payload),
    /// indexed by the *reply* step.
    bytes_out: Vec<Counter>,
}

impl ShardObs {
    fn new(registry: MetricsRegistry) -> Self {
        ShardObs {
            requests: per_step_counters(&registry, "ce_shard_requests_total"),
            bytes_in: per_step_counters(&registry, "ce_shard_wire_bytes_in_total"),
            bytes_out: per_step_counters(&registry, "ce_shard_wire_bytes_out_total"),
            registry,
        }
    }

    fn record(&self, request: &Frame, reply: &Frame) {
        self.requests[request.step as u16 as usize].inc();
        self.bytes_in[request.step as u16 as usize].add(request.wire_len() as u64);
        self.bytes_out[reply.step as u16 as usize].add(reply.wire_len() as u64);
    }
}

/// One live table, the packed mirror of its rows and its index slot. Both
/// live and die with the table state they were derived from: installing a
/// table packs it and starts the slot empty, a push appends to the mirror
/// and empties the slot again.
struct LiveTable {
    table: EpochTable,
    /// `table.embeddings`, lane-per-row: what the flat scan reads, and what
    /// knows the table's dimension.
    packed: PackedRows,
    /// `None`: no build attempted for this table state yet (the first
    /// query batch attempts one). `Some(None)`: the build was declined —
    /// no knob, below the cutover, ids out of order — and is not retried
    /// per query. `Some(Some(_))`: a build stamped `(epoch, len)`, which
    /// [`knn::partial_topk`] checks against the table on every query.
    index: Option<Option<KnnIndex>>,
}

impl LiveTable {
    /// Packs a decoded table; rows of unequal dimension or holding a
    /// non-finite value are the refusal a scan could only panic with.
    fn install(table: EpochTable) -> Result<Self, Frame> {
        let dim = table.embeddings.first().map_or(0, Vec::len);
        if (table.embeddings.iter()).any(|e| e.len() != dim || !all_finite(e)) {
            return Err(nack(
                NackCode::Malformed,
                format!("table rows are not all finite and of dimension {dim}"),
            ));
        }
        Ok(LiveTable {
            packed: PackedRows::from_rows(&table.embeddings),
            table,
            index: None,
        })
    }

    /// Whether `embedding` can join, or be measured against, the table's
    /// rows: finite, and of their dimension (an empty table has no
    /// dimension yet and takes any).
    fn admits(&self, embedding: &[f32]) -> bool {
        self.packed.dim().is_none_or(|dim| dim == embedding.len()) && all_finite(embedding)
    }
}

/// No NaN or ±∞: a distance to such a row or query has no order.
fn all_finite(embedding: &[f32]) -> bool {
    embedding.iter().all(|v| v.is_finite())
}

/// In-memory state of one shard server.
pub struct ShardState {
    /// Live tables, oldest first (at most [`LIVE_EPOCHS`]).
    tables: Vec<LiveTable>,
    /// Per-step request/byte accounting, served back over
    /// [`Step::CoordSendMetrics`]. Counters only: enabling them cannot
    /// perturb replies or make two identically-driven shards diverge.
    obs: ShardObs,
    /// Operator-side two-stage KNN index knob. `Some` (the default)
    /// builds a coarse-probe index lazily over large-enough tables;
    /// `None` serves every query by flat scan. **Not a protocol
    /// field** — answers are bit-identical either way, so a fleet may
    /// mix indexed and flat replicas freely.
    index_cfg: Option<IndexConfig>,
}

impl Default for ShardState {
    fn default() -> Self {
        ShardState {
            tables: Vec::new(),
            obs: ShardObs::new(MetricsRegistry::new()),
            index_cfg: Some(IndexConfig::default()),
        }
    }
}

impl ShardState {
    /// Empty state (a freshly started or restarted server: the coordinator
    /// must load a table before queries succeed).
    pub fn new() -> Self {
        ShardState::default()
    }

    /// Replaces the operator-side index knob (`None` forces flat
    /// scans) and drops every cached build. Safe to flip at any time:
    /// the indexed and flat paths answer bit-identically, so this
    /// changes shard-local work, never wire bits.
    ///
    /// A config that fails [`IndexConfig::validate`] is
    /// [`AdvisorError::InvalidConfig`], and the knob and the cached builds
    /// stay as they were. There is no cutover check against `k`
    /// ([`IndexConfig::validate_for_k`]): a shard has no advisor `k`, every
    /// query carries its own.
    pub fn set_index_config(&mut self, cfg: Option<IndexConfig>) -> Result<(), AdvisorError> {
        if let Some(cfg) = &cfg {
            cfg.validate()?;
        }
        self.index_cfg = cfg;
        for live in &mut self.tables {
            live.index = None;
        }
        Ok(())
    }

    /// This shard's metrics snapshot — the same data
    /// [`Step::CoordSendMetrics`] serves over the wire.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.registry.snapshot()
    }

    /// The most recently installed table, if any.
    pub fn current(&self) -> Option<&EpochTable> {
        self.tables.last().map(|live| &live.table)
    }

    /// Builds the index for one table state, or declines. Tables whose ids
    /// are not strictly ascending are refused: the index breaks distance
    /// ties by member *position* and the flat scan by global *id*, so
    /// bit-identity needs position order ≡ id order (always true for
    /// coordinator-built tables; hand-built ones stay on the flat scan).
    fn build_index(
        cfg: Option<&IndexConfig>,
        table: &EpochTable,
        registry: &MetricsRegistry,
    ) -> Option<KnnIndex> {
        let cfg = cfg.filter(|_| table.ids.windows(2).all(|w| w[0] < w[1]))?;
        let embeddings: Vec<&[f32]> = table.embeddings.iter().map(Vec::as_slice).collect();
        KnnIndex::build(&embeddings, cfg, table.epoch, registry)
    }

    /// Handles one request frame, producing the answer frame. Never
    /// panics on malformed input: undecodable payloads answer
    /// [`NackCode::Malformed`], and so do embeddings that are not finite or
    /// do not fit the dimension of the table they are pinned to.
    pub fn handle(&mut self, frame: &Frame) -> Frame {
        let reply = self.handle_inner(frame);
        // Recorded after the reply is built, so a metrics reply reports
        // the traffic *before* its own request — deterministic either
        // way, just simpler to reason about.
        self.obs.record(frame, &reply);
        reply
    }

    fn handle_inner(&mut self, frame: &Frame) -> Frame {
        match frame.step {
            Step::CoordSendLoad => {
                let table = Load::from_frame(frame).map_err(malformed);
                match table.and_then(|Load { table }| LiveTable::install(table)) {
                    Ok(live) => {
                        let (epoch, version) = (live.table.epoch, live.table.version());
                        // A load replaces everything: it re-bases a restarted
                        // or diverged replica onto the coordinator's truth.
                        self.tables.clear();
                        self.tables.push(live);
                        LoadAck { epoch, version }.into_frame()
                    }
                    Err(refusal) => refusal,
                }
            }
            Step::CoordSendSnapshotEpoch => {
                let table = SnapshotEpoch::from_frame(frame).map_err(malformed);
                match table.and_then(|SnapshotEpoch { table }| LiveTable::install(table)) {
                    Ok(live) => {
                        let (epoch, version) = (live.table.epoch, live.table.version());
                        self.tables.retain(|t| t.table.epoch != epoch);
                        self.tables.push(live);
                        // Keep only the newest LIVE_EPOCHS tables.
                        while self.tables.len() > LIVE_EPOCHS {
                            self.tables.remove(0);
                        }
                        EpochAck { epoch, version }.into_frame()
                    }
                    Err(refusal) => refusal,
                }
            }
            Step::CoordSendPush => match Push::from_frame(frame) {
                Ok(push) => match (self.tables.iter_mut()).find(|t| t.table.epoch == push.epoch) {
                    Some(live) if live.table.version() == push.version => {
                        if !live.admits(&push.embedding) {
                            return nack(
                                NackCode::Malformed,
                                format!(
                                    "push of dimension {} is not finite or not the table's",
                                    push.embedding.len()
                                ),
                            );
                        }
                        live.packed.push(&push.embedding);
                        live.table.ids.push(push.id);
                        live.table.embeddings.push(push.embedding);
                        live.index = None;
                        PushAck {
                            epoch: push.epoch,
                            version: live.table.version(),
                        }
                        .into_frame()
                    }
                    Some(live) => nack(
                        NackCode::StaleTable,
                        format!(
                            "push expects version {}, have {}",
                            push.version,
                            live.table.version()
                        ),
                    ),
                    None => nack(
                        NackCode::NoTable,
                        format!("push for unknown epoch {}", push.epoch),
                    ),
                },
                Err(e) => malformed(e),
            },
            Step::CoordSendQueryBatch => match QueryBatch::from_frame(frame) {
                Ok(b) => match (self.tables.iter_mut()).find(|t| t.table.epoch == b.epoch) {
                    Some(live) if live.table.version() == b.version => {
                        // One (epoch, version) pin covers the whole batch:
                        // either every query answers under it, or none do —
                        // and one index build (or decline) covers it too.
                        if let Some(q) = b.queries.iter().find(|q| !live.admits(&q.embedding)) {
                            return nack(
                                NackCode::Malformed,
                                format!(
                                    "query of dimension {} is not finite or not the table's",
                                    q.embedding.len()
                                ),
                            );
                        }
                        let table = &live.table;
                        let index = live.index.get_or_insert_with(|| {
                            Self::build_index(self.index_cfg.as_ref(), table, &self.obs.registry)
                        });
                        let view = Partition {
                            ids: &table.ids,
                            packed: &live.packed,
                            index: index.as_ref(),
                            generation: table.epoch,
                        };
                        // One scratch per batch: every list is appended to
                        // one candidate buffer, `bounds` marks where each
                        // starts, and the reply is encoded from the slices.
                        let (mut scratch, mut cands) = (knn::Scratch::default(), Vec::new());
                        let mut bounds = Vec::with_capacity(b.queries.len() + 1);
                        bounds.push(0);
                        for q in &b.queries {
                            let k = q.k as usize;
                            knn::partial_topk(
                                &view,
                                &q.embedding,
                                k,
                                q.exclude,
                                &mut scratch,
                                &mut cands,
                            );
                            bounds.push(cands.len());
                        }
                        let lists = bounds.windows(2).map(|w| &cands[w[0]..w[1]]);
                        TopKBatch::frame_from_lists(b.epoch, lists)
                    }
                    Some(live) => nack(
                        NackCode::StaleTable,
                        format!(
                            "batch pins (epoch {}, version {}), have version {}",
                            b.epoch,
                            b.version,
                            live.table.version()
                        ),
                    ),
                    None => nack(
                        NackCode::NoTable,
                        format!("batch pins unloaded epoch {}", b.epoch),
                    ),
                },
                Err(e) => malformed(e),
            },
            Step::CoordSendPing => match Ping::from_frame(frame) {
                Ok(p) => {
                    let (epoch, version) = self
                        .current()
                        .map(|t| (t.epoch, t.version()))
                        .unwrap_or((u64::MAX, 0));
                    Pong {
                        nonce: p.nonce,
                        epoch,
                        version,
                    }
                    .into_frame()
                }
                Err(e) => malformed(e),
            },
            Step::CoordSendShutdown => ShutdownAck {}.into_frame(),
            Step::CoordSendMetrics => MetricsReply {
                snapshot: self.obs.registry.snapshot().to_bytes(),
            }
            .into_frame(),
            // Server-to-coordinator steps arriving at a server are
            // protocol violations; answer a NACK rather than crash.
            _ => nack(
                NackCode::Malformed,
                format!("unexpected step {:?} at shard server", frame.step),
            ),
        }
    }
}

fn nack(code: NackCode, detail: String) -> Frame {
    Nack { code, detail }.into_frame()
}

fn malformed(e: FrameError) -> Frame {
    nack(NackCode::Malformed, e.to_string())
}

/// The one answer an unreadable header earns before the connection is
/// dropped: a peer on another protocol version gets the typed
/// [`NackCode::VersionSkew`], anything else is foreign or garbled.
fn refuse_header(e: FrameError) -> Frame {
    match e {
        FrameError::BadVersion(_) => nack(NackCode::VersionSkew, e.to_string()),
        e => malformed(e),
    }
}

/// Takes the shard lock. A handler that panicked on another connection
/// poisons the mutex and may have left a table half-updated, so a
/// poisoned lock is cleared and the tables dropped (index knob and
/// metrics registry kept): the next pinned query answers
/// [`NackCode::NoTable`] and the coordinator's reload repairs the replica
/// like any other restart — one bad request must not take every later
/// connection of the process down with it.
fn lock_state(state: &Mutex<ShardState>) -> MutexGuard<'_, ShardState> {
    state.lock().unwrap_or_else(|poisoned| {
        state.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.tables.clear();
        guard
    })
}

/// Serves one accepted connection until the peer disconnects or a
/// shutdown frame arrives. Returns `true` when the server should stop
/// accepting (shutdown requested).
///
/// Reads are buffered through a [`FrameReader`]: a request's header and
/// payload almost always arrive in one segment, so each frame costs one
/// `read` syscall instead of two — and when the coordinator pipelines
/// (several requests written before the first answer is consumed), one
/// `read` can pick up several frames, which are then answered back to
/// back.
fn serve_connection(
    stream: TcpStream,
    state: &Arc<Mutex<ShardState>>,
    stop: &Arc<AtomicBool>,
) -> bool {
    let mut stream = stream;
    // Poll in short slices so a shutdown on another connection also ends
    // this one promptly.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let mut frames = FrameReader::default();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let frame = match frames.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => match read_chunk_poll(&mut stream, &mut chunk, stop) {
                Some(n) => {
                    frames.extend(&chunk[..n]);
                    continue;
                }
                None => return false,
            },
            Err(e) => {
                // Foreign/garbled traffic: answer one NACK, then drop the
                // connection (the byte stream can no longer be trusted).
                let _ = stream.write_all(&refuse_header(e).to_bytes());
                return false;
            }
        };
        let reply = lock_state(state).handle(&frame);
        if stream.write_all(&reply.to_bytes()).is_err() {
            return false;
        }
        if frame.step == Step::CoordSendShutdown {
            stop.store(true, Ordering::Release);
            return true;
        }
    }
}

/// One polled `read`: blocks in 50ms slices (the socket's read timeout),
/// re-checking the stop flag between slices so a shutdown on another
/// connection ends this one promptly — whether the silence falls between
/// frames or mid-frame. `None` once the server stops or the peer is gone.
fn read_chunk_poll(stream: &mut TcpStream, chunk: &mut [u8], stop: &AtomicBool) -> Option<usize> {
    loop {
        if stop.load(Ordering::Acquire) {
            return None;
        }
        match stream.read(chunk) {
            Ok(0) => return None,
            Ok(n) => return Some(n),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// Runs a shard server over `listener` until a shutdown frame arrives.
/// One thread per connection; state is shared (a coordinator may reload
/// over a fresh connection while an old one is parked).
pub fn serve(listener: TcpListener) -> std::io::Result<()> {
    let state = Arc::new(Mutex::new(ShardState::new()));
    let stop = Arc::new(AtomicBool::new(false));
    listener.set_nonblocking(true)?;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let state = state.clone();
                let stop2 = stop.clone();
                workers.push(std::thread::spawn(move || {
                    serve_connection(stream, &state, &stop2);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    for w in workers {
        let _ = w.join();
    }
    Ok(())
}

/// Entry point for a shard-server process: binds `127.0.0.1:<port>`
/// (`0` = ephemeral), prints the [`READY_LINE_PREFIX`] line on stdout and
/// serves until shutdown. Exposed as a library function so any binary —
/// the dedicated `ce-shard-server` bin, a benchmark, an example — can
/// re-execute itself as a shard server.
pub fn shard_server_main(port: u16) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    println!("{READY_LINE_PREFIX} {addr}");
    // The parent parses stdout; make sure the line is not stuck in a pipe
    // buffer.
    std::io::stdout().flush()?;
    serve(listener)
}

/// Spawns `program` with `__ce-shard-server` argv (the self-exec
/// convention: binaries call [`shard_server_main`] when they see it),
/// waits for the ready line and returns the child plus its bound address.
pub fn spawn_shard_process(program: &std::path::Path) -> std::io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(program)
        .arg("__ce-shard-server")
        .stdout(Stdio::piped())
        .spawn()?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        return Err(std::io::Error::other("the child's stdout was not piped"));
    };
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line?;
        if let Some(rest) = line.strip_prefix(READY_LINE_PREFIX) {
            let addr: SocketAddr = rest.trim().parse().map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad ready line {line:?}: {e}"),
                )
            })?;
            // Keep draining stdout in the background so the child never
            // blocks on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            return Ok((child, addr));
        }
    }
    let _ = child.kill();
    Err(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "shard server exited before printing its ready line",
    ))
}

/// Checks argv for the self-exec marker; when present, runs the shard
/// server and never returns. Call this first in any `main` that also
/// spawns shard processes of itself.
pub fn maybe_run_shard_server_from_args() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("__ce-shard-server") {
        let port = args.next().and_then(|p| p.parse().ok()).unwrap_or(0u16);
        match shard_server_main(port) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("shard server failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::protocol::BatchQuery;

    fn table(epoch: u64, n: usize) -> EpochTable {
        EpochTable {
            epoch,
            ids: (0..n as u64).collect(),
            embeddings: (0..n).map(|i| vec![i as f32, 1.0 - i as f32]).collect(),
        }
    }

    /// A single query on the wire: a batch of one.
    fn query(epoch: u64, version: u64, embedding: &[f32], k: u64, exclude: u64) -> Frame {
        QueryBatch {
            epoch,
            version,
            queries: vec![BatchQuery {
                embedding: embedding.to_vec(),
                k,
                exclude,
            }],
        }
        .into_frame()
    }

    /// The one list of a batch-of-one reply.
    fn topk(reply: &Frame) -> Result<Vec<(u64, f32)>, FrameError> {
        let mut tb = TopKBatch::from_frame(reply)?;
        assert_eq!(tb.lists.len(), 1, "one list per query");
        Ok(tb.lists.remove(0))
    }

    fn assert_same_bits(a: &[(u64, f32)], b: &[(u64, f32)]) {
        assert_eq!(a.len(), b.len());
        for ((ia, da), (ib, db)) in a.iter().zip(b) {
            assert_eq!(ia, ib, "id order must match");
            assert_eq!(da.to_bits(), db.to_bits(), "distance bits must match");
        }
    }

    #[test]
    fn load_query_push_cycle() {
        let mut s = ShardState::new();
        let ack = s.handle(&Load { table: table(0, 3) }.into_frame());
        assert_eq!(
            LoadAck::from_frame(&ack).expect("ack"),
            LoadAck {
                epoch: 0,
                version: 3
            }
        );
        let q = query(0, 3, &[0.1, 0.9], 2, u64::MAX);
        let entries = topk(&s.handle(&q)).expect("topk");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 0, "id 0 is nearest to (0.1, 0.9)");
        // A push bumps the version; the old pinned query now NACKs.
        let push = Push {
            epoch: 0,
            version: 3,
            id: 3,
            embedding: vec![0.1, 0.9],
        };
        let ack = PushAck::from_frame(&s.handle(&push.into_frame())).expect("push ack");
        assert_eq!(ack.version, 4);
        let nack = Nack::from_frame(&s.handle(&q)).expect("stale nack");
        assert_eq!(nack.code, NackCode::StaleTable);
        // Re-pinned to version 4, the pushed entry (distance 0) wins.
        let q4 = query(0, 4, &[0.1, 0.9], 2, u64::MAX);
        let entries = topk(&s.handle(&q4)).expect("topk");
        assert_eq!(entries.iter().map(|e| e.0).collect::<Vec<_>>(), vec![3, 0]);
    }

    #[test]
    fn snapshot_keeps_previous_epoch_live() {
        let mut s = ShardState::new();
        s.handle(&Load { table: table(0, 2) }.into_frame());
        s.handle(&crate::protocol::SnapshotEpoch { table: table(1, 2) }.into_frame());
        for epoch in [0u64, 1] {
            let q = query(epoch, 2, &[0.0, 0.0], 1, u64::MAX);
            assert!(
                topk(&s.handle(&q)).is_ok(),
                "epoch {epoch} must stay queryable"
            );
        }
        // A third epoch evicts the oldest.
        s.handle(&crate::protocol::SnapshotEpoch { table: table(2, 2) }.into_frame());
        let q = query(0, 2, &[0.0, 0.0], 1, u64::MAX);
        let nack = Nack::from_frame(&s.handle(&q)).expect("nack");
        assert_eq!(nack.code, NackCode::NoTable);
    }

    #[test]
    fn unloaded_and_malformed_requests_nack() {
        let mut s = ShardState::new();
        let q = query(9, 0, &[], 1, u64::MAX);
        let nack = Nack::from_frame(&s.handle(&q)).expect("nack");
        assert_eq!(nack.code, NackCode::NoTable);
        // Garbage payload under a valid step.
        let garbage = Frame {
            step: Step::CoordSendQueryBatch,
            payload: vec![0xff; 3],
        };
        let nack = Nack::from_frame(&s.handle(&garbage)).expect("nack");
        assert_eq!(nack.code, NackCode::Malformed);
        // Pong without a table reports the sentinel epoch.
        let pong = Pong::from_frame(&s.handle(&Ping { nonce: 5 }.into_frame())).expect("pong");
        assert_eq!((pong.nonce, pong.epoch, pong.version), (5, u64::MAX, 0));
    }

    #[test]
    fn batched_query_answers_per_query_bits() {
        let mut s = ShardState::new();
        s.handle(&Load { table: table(0, 4) }.into_frame());
        let queries = vec![
            BatchQuery {
                embedding: vec![0.1, 0.9],
                k: 2,
                exclude: u64::MAX,
            },
            BatchQuery {
                embedding: vec![2.0, -1.0],
                k: 3,
                exclude: 2,
            },
            BatchQuery {
                embedding: vec![0.0, 1.0],
                k: 1,
                exclude: 0,
            },
        ];
        let batch = QueryBatch {
            epoch: 0,
            version: 4,
            queries: queries.clone(),
        };
        let reply = TopKBatch::from_frame(&s.handle(&batch.into_frame())).expect("batched topk");
        assert_eq!(reply.epoch, 0);
        assert_eq!(reply.lists.len(), queries.len());
        for (list, q) in reply.lists.iter().zip(&queries) {
            let single = query(0, 4, &q.embedding, q.k, q.exclude);
            let want = topk(&s.handle(&single)).expect("topk");
            assert_same_bits(list, &want);
        }
        // A stale pin refuses the whole batch — never a partial answer.
        let stale = QueryBatch {
            epoch: 0,
            version: 3,
            queries,
        };
        let nack = Nack::from_frame(&s.handle(&stale.into_frame())).expect("nack");
        assert_eq!(nack.code, NackCode::StaleTable);
    }

    /// The packed mirror follows the table through every step that writes
    /// a row: each answer equals per-row `euclidean` and a full sort over
    /// the live table's rows.
    #[test]
    fn the_packed_mirror_follows_load_push_and_snapshot() {
        use autoce::knn_order;
        use ce_nn::matrix::euclidean;

        fn check(s: &mut ShardState, epoch: u64, what: &str) {
            let table = (s.tables.iter().map(|t| &t.table))
                .find(|t| t.epoch == epoch)
                .expect("live epoch")
                .clone();
            // Every row with its distance, so one stale row shows.
            let k = table.version() + 3;
            for x in [[0.1f32, 0.9], [7.5, -6.5], [16.0, -15.0]] {
                for exclude in [u64::MAX, 1] {
                    let mut want: Vec<(u64, f32)> = (table.ids.iter().zip(&table.embeddings))
                        .filter(|(&id, _)| id != exclude)
                        .map(|(&id, e)| (id, euclidean(&x, e)))
                        .collect();
                    want.sort_by(knn_order);
                    let q = query(epoch, table.version(), &x, k, exclude);
                    let got = topk(&s.handle(&q)).expect("topk");
                    assert_eq!(got.len(), want.len(), "{what}");
                    assert_same_bits(&got, &want);
                }
            }
        }

        let mut s = ShardState::new();
        // 16 rows fill one lane block; the push opens the next.
        s.handle(
            &Load {
                table: table(0, 16),
            }
            .into_frame(),
        );
        check(&mut s, 0, "load");
        let push = Push {
            epoch: 0,
            version: 16,
            id: 16,
            embedding: vec![7.5, -6.5],
        };
        PushAck::from_frame(&s.handle(&push.into_frame())).expect("push ack");
        check(&mut s, 0, "push");
        let mut next = table(1, 17);
        next.embeddings.reverse();
        s.handle(&crate::protocol::SnapshotEpoch { table: next }.into_frame());
        check(&mut s, 1, "snapshot");
        check(&mut s, 0, "previous epoch beside the snapshot");
    }

    /// What a scan could only panic on is refused where it enters: the
    /// handler survives, the tables stay, the next good request answers.
    #[test]
    fn dimension_mismatches_are_malformed_not_a_panic() {
        let mut s = ShardState::new();
        s.handle(&Load { table: table(0, 3) }.into_frame());
        let refused = |s: &mut ShardState, frame: Frame| {
            let nack = Nack::from_frame(&s.handle(&frame)).expect("nack");
            assert_eq!(nack.code, NackCode::Malformed, "{}", nack.detail);
        };
        // One bad embedding refuses its whole batch.
        let mut batch = QueryBatch {
            epoch: 0,
            version: 3,
            queries: [vec![0.1, 0.9], vec![0.1, 0.9, 0.0], vec![]]
                .map(|embedding| BatchQuery {
                    embedding,
                    k: 2,
                    exclude: u64::MAX,
                })
                .to_vec(),
        };
        refused(&mut s, batch.clone().into_frame());
        // So does one NaN or infinite query of the table's dimension.
        for bad in [f32::NAN, f32::INFINITY] {
            let mut one = batch.clone();
            one.queries.truncate(1);
            one.queries.push(BatchQuery {
                embedding: vec![0.1, bad],
                k: 2,
                exclude: u64::MAX,
            });
            refused(&mut s, one.into_frame());
        }
        let push = |embedding: Vec<f32>| Push {
            epoch: 0,
            version: 3,
            id: 3,
            embedding,
        };
        refused(&mut s, push(vec![1.0]).into_frame());
        refused(&mut s, push(vec![f32::NAN, 0.0]).into_frame());
        let mut ragged = table(1, 3);
        ragged.embeddings[2].push(0.0);
        let mut nan_row = table(1, 3);
        nan_row.embeddings[1][0] = f32::NAN;
        for bad in [ragged, nan_row] {
            refused(&mut s, Load { table: bad.clone() }.into_frame());
            refused(
                &mut s,
                crate::protocol::SnapshotEpoch { table: bad }.into_frame(),
            );
        }
        // Nothing moved: the same pin still answers, a fitting push lands.
        batch.queries.truncate(1);
        let reply = TopKBatch::from_frame(&s.handle(&batch.into_frame())).expect("topk");
        assert_eq!(reply.lists[0].len(), 2);
        let ack = PushAck::from_frame(&s.handle(&push(vec![1.0, 0.0]).into_frame()));
        assert_eq!(ack.expect("push ack").version, 4);
        // An empty table has no dimension yet: it answers any query with
        // nothing and takes its dimension from the first push.
        s.handle(&Load { table: table(2, 0) }.into_frame());
        let q = query(2, 0, &[1.0, 2.0, 3.0], 2, u64::MAX);
        assert_eq!(topk(&s.handle(&q)).expect("topk"), []);
        let first = Push {
            epoch: 2,
            version: 0,
            id: 0,
            embedding: vec![1.0, 2.0, 3.0],
        };
        PushAck::from_frame(&s.handle(&first.into_frame())).expect("push ack");
        refused(&mut s, query(2, 1, &[1.0, 2.0], 1, u64::MAX));
        let q = query(2, 1, &[1.0, 2.0, 3.0], 1, u64::MAX);
        assert_eq!(topk(&s.handle(&q)).expect("topk"), [(0, 0.0)]);
    }

    #[test]
    fn metrics_step_reports_per_step_traffic() {
        let mut s = ShardState::new();
        s.handle(&Load { table: table(0, 3) }.into_frame());
        let q = query(0, 3, &[0.1, 0.9], 2, u64::MAX);
        s.handle(&q);
        s.handle(&q);
        let reply = s.handle(&crate::protocol::MetricsRequest {}.into_frame());
        let m = MetricsReply::from_frame(&reply).expect("metrics reply");
        let snap = MetricsSnapshot::from_bytes(&m.snapshot).expect("snapshot decodes");
        let req = |step: &str| snap.counter("ce_shard_requests_total", &[("step", step)]);
        assert_eq!(req("coord_send_load"), 1);
        assert_eq!(req("coord_send_query_batch"), 2);
        assert!(
            snap.counter(
                "ce_shard_wire_bytes_in_total",
                &[("step", "coord_send_query_batch")]
            ) > 0
        );
        assert!(
            snap.counter(
                "ce_shard_wire_bytes_out_total",
                &[("step", "shard_send_topk_batch")]
            ) > 0
        );
        // The wire snapshot was taken before its own request was counted;
        // the in-process accessor afterwards sees the metrics request too.
        assert_eq!(req("coord_send_metrics"), 0);
        assert_eq!(
            s.metrics()
                .counter("ce_shard_requests_total", &[("step", "coord_send_metrics")]),
            1
        );
    }

    #[test]
    fn indexed_shard_answers_flat_bits_across_versions() {
        // Two states over identical tables: one probing through a KNN
        // index (cutover 1 so it engages on this small table), one
        // pinned to flat scans. Every reply must be bit-identical —
        // that is what lets a fleet mix indexed and flat replicas.
        let cfg = IndexConfig::builder()
            .partitions(3)
            .probe(2)
            .min_rcs_for_index(1)
            .build()
            .expect("valid index config");
        let mut indexed = ShardState::new();
        indexed.set_index_config(Some(cfg)).expect("valid knob");
        let mut flat = ShardState::new();
        flat.set_index_config(None).expect("flat knob");
        for s in [&mut indexed, &mut flat] {
            s.handle(
                &Load {
                    table: table(0, 40),
                }
                .into_frame(),
            );
        }
        let queries: Vec<BatchQuery> = (0..12)
            .map(|i| BatchQuery {
                embedding: vec![i as f32 * 0.5, 1.0 - i as f32 * 0.25],
                k: 5,
                exclude: if i % 3 == 0 { i as u64 } else { u64::MAX },
            })
            .collect();
        let compare =
            |indexed: &mut ShardState, flat: &mut ShardState, version: u64, q: &BatchQuery| {
                let frame = query(0, version, &q.embedding, q.k, q.exclude);
                let a = topk(&indexed.handle(&frame)).expect("topk");
                let b = topk(&flat.handle(&frame)).expect("topk");
                assert_same_bits(&a, &b);
            };
        for q in &queries {
            compare(&mut indexed, &mut flat, 40, q);
        }
        // A push bumps the version: the slot must rebuild (not serve the
        // stale build) and stay bit-identical.
        for s in [&mut indexed, &mut flat] {
            let ack = s.handle(
                &Push {
                    epoch: 0,
                    version: 40,
                    id: 40,
                    embedding: vec![0.4, 0.6],
                }
                .into_frame(),
            );
            assert_eq!(PushAck::from_frame(&ack).expect("ack").version, 41);
        }
        for q in &queries {
            compare(&mut indexed, &mut flat, 41, q);
        }
        // A deep batch rides the same slot.
        let batch = QueryBatch {
            epoch: 0,
            version: 41,
            queries,
        };
        let a = TopKBatch::from_frame(&indexed.handle(&batch.clone().into_frame())).expect("batch");
        let b = TopKBatch::from_frame(&flat.handle(&batch.into_frame())).expect("batch");
        assert_eq!(a.lists.len(), b.lists.len());
        for (la, lb) in a.lists.iter().zip(&b.lists) {
            assert_same_bits(la, lb);
        }
    }

    /// A knob `IndexConfig::validate` refuses is `InvalidConfig`, and the
    /// shard keeps its knob, its cached build and its answer bits.
    #[test]
    fn invalid_index_knobs_are_refused_and_change_nothing() {
        let knob = IndexConfig {
            partitions: 3,
            probe: 2,
            min_rcs_for_index: 1,
            ..IndexConfig::default()
        };
        let mut s = ShardState::new();
        s.set_index_config(Some(knob.clone())).expect("valid knob");
        s.handle(
            &Load {
                table: table(0, 40),
            }
            .into_frame(),
        );
        let batch = QueryBatch {
            epoch: 0,
            version: 40,
            queries: (0..8)
                .map(|i| BatchQuery {
                    embedding: vec![i as f32 * 0.75, 1.0 - i as f32 * 0.5],
                    k: 4,
                    exclude: if i % 2 == 0 { i } else { u64::MAX },
                })
                .collect(),
        };
        let before = s.handle(&batch.clone().into_frame());
        assert_eq!(before.step, Step::ShardSendTopkBatch);
        for bad in [
            IndexConfig {
                probe: 0,
                ..knob.clone()
            },
            IndexConfig {
                probe: knob.partitions + 1,
                ..knob.clone()
            },
            IndexConfig {
                margin: f32::NAN,
                ..knob.clone()
            },
        ] {
            let refused = s.set_index_config(Some(bad.clone()));
            assert!(
                matches!(refused, Err(AdvisorError::InvalidConfig(_))),
                "{bad:?}: {refused:?}"
            );
            assert_eq!(s.index_cfg.as_ref(), Some(&knob), "the knob stays");
            assert!(
                matches!(s.tables[0].index, Some(Some(_))),
                "the cached build stays"
            );
            assert_eq!(s.handle(&batch.clone().into_frame()), before, "same bits");
        }
    }

    /// Writes raw bytes to a fresh shard over a real socket and returns
    /// the one frame it answers before dropping the connection.
    fn answer_then_drop(wire: &[u8]) -> Frame {
        let state = Arc::new(Mutex::new(ShardState::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (stream, _) = listener.accept().expect("accept");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut reply = Vec::new();
        let read = std::thread::scope(|scope| {
            scope.spawn(|| serve_connection(stream, &state, &stop));
            client.write_all(wire).expect("send");
            let read = client.read_to_end(&mut reply);
            // Ends the server thread even if it wrongly kept the
            // connection open.
            stop.store(true, Ordering::Release);
            read
        });
        read.expect("the shard answers, then closes");
        Frame::from_bytes(&reply).expect("exactly one frame")
    }

    #[test]
    fn version_pinned_shard_nacks_batch_frames() {
        // Every shard is pinned to the one protocol version: a frame
        // under any other — here the retired version 1 — earns the typed
        // skew NACK before its step or payload is looked at, and the
        // connection is dropped.
        let mut wire = query(0, 2, &[0.0, 0.0], 1, u64::MAX).to_bytes();
        wire[4..6].copy_from_slice(&1u16.to_le_bytes());
        let nack = Nack::from_frame(&answer_then_drop(&wire)).expect("nack");
        assert_eq!(nack.code, NackCode::VersionSkew);
        // Garbled traffic stays `Malformed`.
        wire[0] ^= 0x5a;
        let nack = Nack::from_frame(&answer_then_drop(&wire)).expect("nack");
        assert_eq!(nack.code, NackCode::Malformed);
    }

    #[test]
    fn poisoned_shard_lock_drops_tables_and_keeps_serving() {
        let state = Arc::new(Mutex::new(ShardState::new()));
        lock_state(&state).handle(&Load { table: table(0, 3) }.into_frame());
        let poisoner = state.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first holder");
            panic!("handler panic while holding the shard lock");
        })
        .join();
        assert!(state.is_poisoned());
        // The half-trusted tables are gone: the pinned query asks for a
        // reload instead of aborting the connection.
        let q = query(0, 3, &[0.1, 0.9], 2, u64::MAX);
        let nack = Nack::from_frame(&lock_state(&state).handle(&q)).expect("nack");
        assert_eq!(nack.code, NackCode::NoTable);
        assert!(!state.is_poisoned(), "the poison is cleared, not re-hit");
        // Reload is the single repair: Load, then the query answers.
        let ack = lock_state(&state).handle(&Load { table: table(0, 3) }.into_frame());
        assert_eq!(LoadAck::from_frame(&ack).expect("ack").version, 3);
        let entries = topk(&lock_state(&state).handle(&q)).expect("topk");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, 0);
        // The registry survived the recovery: it still counts the load
        // from before the panic.
        assert_eq!(
            lock_state(&state)
                .metrics()
                .counter("ce_shard_requests_total", &[("step", "coord_send_load")]),
            2
        );
    }
}

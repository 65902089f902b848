//! A scripted backend for the front's contention tests: a backend
//! (an [`AutoCe`] unless named) whose `embed_graph_batch` calls, numbered
//! from 0, can be held at a gate, made to panic or made to answer one
//! embedding short, whose `predict_batch` calls (numbered from 0 apart)
//! can answer one vote short, and which records each encode call's batch
//! size. Holding a call holds the pipeline run that made it, so a test can
//! keep the front busy for exactly as long as it needs. (Not every test
//! binary that mounts it uses every knob.)
#![allow(dead_code)]

use autoce::online::DriftDetector;
use autoce::{AdvisorBackend, AdvisorError, AutoCe, BatchPredictRequest};
use ce_features::{FeatureConfig, FeatureGraph};
use ce_models::ModelKind;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

pub struct Faulty<B = AutoCe> {
    inner: B,
    /// Encode calls held at the gate until [`Faulty::opener`] drops.
    hold: Vec<usize>,
    /// The encode call that panics instead of encoding.
    panic_on: Option<usize>,
    /// Encode calls that answer one embedding fewer than asked.
    short_encodes: Vec<usize>,
    /// Vote calls that answer one query fewer than asked.
    short_votes: Vec<usize>,
    state: Mutex<State>,
    changed: Condvar,
}

#[derive(Default)]
struct State {
    /// Batch size of every encode call so far, in call order.
    calls: Vec<usize>,
    /// Vote calls so far.
    votes: usize,
    open: bool,
}

impl<B> Faulty<B> {
    pub fn new(inner: B, hold: &[usize], panic_on: Option<usize>) -> Self {
        Faulty {
            inner,
            hold: hold.to_vec(),
            panic_on,
            short_encodes: Vec::new(),
            short_votes: Vec::new(),
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
        }
    }

    /// Makes these encode calls answer one embedding short.
    pub fn short_encodes(mut self, calls: &[usize]) -> Self {
        self.short_encodes = calls.to_vec();
        self
    }

    /// Makes these vote calls answer one query short.
    pub fn short_votes(mut self, calls: &[usize]) -> Self {
        self.short_votes = calls.to_vec();
        self
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Blocks until `n` calls have entered (held ones included); returns
    /// every call's batch size so far.
    pub fn wait_for_calls(&self, n: usize) -> Vec<usize> {
        let mut st = self.state.lock().expect("faulty state");
        while st.calls.len() < n {
            st = self.changed.wait(st).expect("faulty state");
        }
        st.calls.clone()
    }

    /// Releases every held call, now and later, when the returned guard
    /// drops — also while a failing test unwinds, so the clients it held
    /// finish and `thread::scope` can join them.
    pub fn opener(&self) -> Opener<'_, B> {
        Opener(self)
    }

    /// Every call's batch size so far.
    pub fn calls(&self) -> Vec<usize> {
        self.state.lock().expect("faulty state").calls.clone()
    }
}

pub struct Opener<'a, B>(&'a Faulty<B>);

impl<B> Drop for Opener<'_, B> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        st.open = true;
        self.0.changed.notify_all();
    }
}

/// Polls `cond` every millisecond; panics naming `what` after a minute.
pub fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "timed out waiting until {what}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl<B: AdvisorBackend> AdvisorBackend for Faulty<B> {
    fn rcs_len(&self) -> usize {
        AdvisorBackend::rcs_len(&self.inner)
    }

    fn generation(&self) -> u64 {
        AdvisorBackend::generation(&self.inner)
    }

    fn feature_config(&self) -> FeatureConfig {
        AdvisorBackend::feature_config(&self.inner)
    }

    fn vertex_dim(&self) -> usize {
        AdvisorBackend::vertex_dim(&self.inner)
    }

    fn embed_graph_batch(&self, graphs: &[&FeatureGraph]) -> Vec<Vec<f32>> {
        let call = {
            let mut st = self.state.lock().expect("faulty state");
            st.calls.push(graphs.len());
            self.changed.notify_all();
            let call = st.calls.len() - 1;
            while self.hold.contains(&call) && !st.open {
                st = self.changed.wait(st).expect("faulty state");
            }
            call
        };
        if self.panic_on == Some(call) {
            panic!("scripted backend panic on encode call {call}");
        }
        let mut embedded = AdvisorBackend::embed_graph_batch(&self.inner, graphs);
        if self.short_encodes.contains(&call) {
            embedded.pop();
        }
        embedded
    }

    fn predict_batch(
        &self,
        queries: &[BatchPredictRequest<'_>],
    ) -> Result<Vec<(ModelKind, Vec<f64>)>, AdvisorError> {
        let call = {
            let mut st = self.state.lock().expect("faulty state");
            st.votes += 1;
            st.votes - 1
        };
        let mut answers = AdvisorBackend::predict_batch(&self.inner, queries)?;
        if self.short_votes.contains(&call) {
            answers.pop();
        }
        Ok(answers)
    }

    fn drift_detector(&self) -> DriftDetector {
        AdvisorBackend::drift_detector(&self.inner)
    }
}

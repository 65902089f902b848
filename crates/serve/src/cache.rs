//! Embedding cache: feature-graph fingerprints → embeddings, with LRU
//! eviction.
//!
//! The serving path embeds the *same* datasets over and over (a tenant
//! re-asks at different metric weightings, monitoring re-checks drift, a
//! load balancer retries) — and the embedding is by far the expensive part
//! of a recommendation. The cache keys on a structural fingerprint of the
//! feature graph (every vertex/edge float's exact bit pattern), so a hit
//! returns the exact bits the encoder would produce and recommendations
//! are unchanged by caching.
//!
//! The cache is cleared whenever the serving snapshot is swapped (online
//! adaptation updates the encoder, invalidating every cached embedding) —
//! see [`AdvisorService::adapt`](crate::AdvisorService::adapt).

use ce_features::FeatureGraph;
use std::collections::HashMap;

/// Structural fingerprint of a feature graph: a word-at-a-time multiply-
/// rotate mix (FxHash-style) over the graph shape and the exact bit
/// pattern of every vertex feature and edge weight. Equal graphs always
/// collide (same bits in, same bits out, across runs and platforms);
/// distinct graphs collide with probability ≈ 2⁻⁶⁴ — and keys are not
/// adversarial (they come from the feature extractor), so a fast
/// non-cryptographic mix is the right trade.
///
/// Word `i` of the stream — the vertex count, then per row its length and
/// its values, then the same for the edges — feeds lane `i mod 4`: one
/// serial rotate-xor-multiply chain costs 4-5 cycles of latency per word,
/// four interleaved chains run at multiply throughput. The lane assignment
/// depends only on word position, so equal graphs still produce equal
/// fingerprints; lanes are folded through the same mix before the final
/// avalanche.
///
/// The four chains are four *separately named* registers (`Chains`) that
/// take each row four words at a time: a `[u64; 4]` indexed by `i & 3`
/// keeps the lanes in memory (the `PackedRows` lesson again). Measured over
/// 256 graphs of ≈350 words in a timing loop: ≈500 ns per graph for the
/// lane array, ≈255 ns for the named chains, every `u64` the same; on the
/// `e2e` benchmark's `graph-hot` trace, fingerprint plus cache hit
/// (`serve.hit_path_us_p50`) reads 0.62 → 0.38 µs.
pub fn graph_fingerprint(g: &FeatureGraph) -> u64 {
    let mut c = Chains {
        next: 0xcbf2_9ce4_8422_2325,
        second: 0x9ae1_6a3b_2f90_404f,
        third: 0x2545_f491_4f6c_dd1d,
        fourth: 0x8765_4321_0fed_cba9,
        words: 0,
    };
    for rows in [&g.vertices, &g.edges] {
        c.eat(rows.len() as u64);
        for row in rows {
            c.eat_row(row);
        }
    }
    // Undo the rotation: `next` is lane `words mod 4`.
    let rel = [c.next, c.second, c.third, c.fourth];
    let lane = |j: usize| rel[(j + 4 - c.words % 4) % 4];
    let mut h = lane(0);
    for j in 1..4 {
        h = mix(h, lane(j));
    }
    // Final avalanche so low-entropy tails still spread over all 64 bits.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 29)
}

/// One step of a fingerprint chain.
#[inline(always)]
fn mix(lane: u64, v: u64) -> u64 {
    const PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
    (lane.rotate_left(25) ^ v).wrapping_mul(PRIME)
}

/// The four lanes of [`graph_fingerprint`], named by who eats next: `next`
/// takes the coming word, and a single word rotates the names.
struct Chains {
    next: u64,
    second: u64,
    third: u64,
    fourth: u64,
    /// Words eaten so far (which lane `next` is).
    words: usize,
}

impl Chains {
    #[inline(always)]
    fn eat(&mut self, v: u64) {
        let fed = mix(self.next, v);
        self.next = self.second;
        self.second = self.third;
        self.third = self.fourth;
        self.fourth = fed;
        self.words += 1;
    }

    /// A row's length, then its values four at a time — one word per
    /// chain, so the names come back where they were — then the tail.
    #[inline(always)]
    fn eat_row(&mut self, row: &[f32]) {
        self.eat(row.len() as u64);
        let mut quads = row.chunks_exact(4);
        for q in &mut quads {
            self.next = mix(self.next, u64::from(q[0].to_bits()));
            self.second = mix(self.second, u64::from(q[1].to_bits()));
            self.third = mix(self.third, u64::from(q[2].to_bits()));
            self.fourth = mix(self.fourth, u64::from(q[3].to_bits()));
        }
        self.words += row.len() - quads.remainder().len();
        for &v in quads.remainder() {
            self.eat(u64::from(v.to_bits()));
        }
    }
}

/// Why an insert was refused. Returned by the admission decision so the
/// cache can count each reason distinctly — a disabled cache is
/// configuration, while a storm of stale-generation rejects means batches
/// keep racing snapshot swaps, and conflating the two hides both signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Stored (or refreshed an existing entry).
    Admitted,
    /// The insert carried a generation other than the cache's (an
    /// in-flight batch raced a snapshot swap); the value was dropped.
    RejectedStaleGeneration,
    /// The cache is disabled (capacity 0).
    RejectedDisabled,
}

/// Lifetime cache counters (monotonic; reset only with the cache itself).
/// This is the cache's *own* ledger, counted where the decisions happen:
/// `hits`/`misses` cover actual lookups (the service additionally counts
/// generation-mismatch rounds as misses without consulting the cache —
/// see `ServiceStats` — so the two views legitimately differ), and the
/// reject counters split by [`Admission`] reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned an embedding.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Inserts that stored or refreshed an entry.
    pub inserts: u64,
    /// Retired: second-touch admission is gone, so this is always 0. Kept
    /// so readers of the ledger (and its `first_touch` reject sample) see
    /// the same fields.
    pub rejected_first_touch: u64,
    /// Inserts refused because they carried a stale generation.
    pub rejected_stale_generation: u64,
    /// Inserts refused because the cache is disabled (capacity 0).
    pub rejected_disabled: u64,
    /// Entries currently resident.
    pub resident: usize,
    /// Configured capacity.
    pub capacity: usize,
}

/// Slot of the intrusive LRU list.
struct Slot {
    key: u64,
    value: Vec<f32>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity LRU cache from graph fingerprints to embeddings.
///
/// O(1) get/insert via a `HashMap` into an intrusive doubly-linked recency
/// list over a slot arena. Capacity 0 disables the cache (every lookup
/// misses, inserts are dropped).
pub struct EmbeddingCache {
    capacity: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot (the eviction victim).
    tail: usize,
    /// Serving-snapshot generation the entries were computed under.
    /// Readers must check it against their snapshot before trusting a hit,
    /// and inserts carrying a stale generation are dropped — otherwise a
    /// snapshot swap racing an in-flight batch could poison the fresh
    /// cache with pre-adaptation embeddings.
    generation: u64,
    /// Hit/miss/insert/reject ledger. Plain integers: every path that
    /// updates them already holds the service's cache mutex, so counting
    /// costs nothing extra and needs no atomics.
    counters: CacheStats,
}

impl EmbeddingCache {
    /// Creates a cache holding at most `capacity` embeddings, tagged with
    /// the starting snapshot generation.
    pub fn new(capacity: usize, generation: u64) -> Self {
        EmbeddingCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(4096)),
            slots: Vec::with_capacity(capacity.min(4096)),
            head: NIL,
            tail: NIL,
            generation,
            counters: CacheStats::default(),
        }
    }

    /// The snapshot generation the cached embeddings belong to.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Unlinks a slot from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links a slot at the most-recently-used end.
    fn link_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    /// Looks up an embedding, refreshing its recency on a hit. The cache
    /// counts its own hits and misses (see [`CacheStats`]); the service's
    /// [`ServiceStats`](crate::ServiceStats) counts per-request outcomes,
    /// which also cover rounds that never consult the cache (generation
    /// mismatch).
    pub fn get(&mut self, key: u64) -> Option<&[f32]> {
        let i = match self.map.get(&key).copied() {
            Some(i) => i,
            None => {
                self.counters.misses += 1;
                return None;
            }
        };
        self.counters.hits += 1;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Inserts (or refreshes) an embedding computed under snapshot
    /// `generation`, evicting the least recently used entry when at
    /// capacity. Inserts from a stale generation are dropped (see the
    /// `generation` field). The admission decision runs first, so a
    /// rejected insert (disabled cache, stale generation) costs no clone
    /// of the borrowed embedding.
    pub fn insert_ref(&mut self, generation: u64, key: u64, value: &[f32]) -> Admission {
        let a = self.admits(generation);
        if a == Admission::Admitted {
            self.store(key, value.to_vec());
        }
        a
    }

    /// The admission decision and the per-reason reject counters: anything
    /// but [`Admission::Admitted`] means the value must be dropped. The
    /// checks are ordered so each reject is attributed to exactly one
    /// reason — disabled before stale generation.
    fn admits(&mut self, generation: u64) -> Admission {
        if self.capacity == 0 {
            self.counters.rejected_disabled += 1;
            return Admission::RejectedDisabled;
        }
        if generation != self.generation {
            self.counters.rejected_stale_generation += 1;
            return Admission::RejectedStaleGeneration;
        }
        self.counters.inserts += 1;
        Admission::Admitted
    }

    /// The cache's lifetime counters plus current occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            resident: self.map.len(),
            capacity: self.capacity,
            ..self.counters
        }
    }

    fn store(&mut self, key: u64, value: Vec<f32>) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        let i = if self.map.len() >= self.capacity {
            // Reuse the LRU victim's slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.slots[victim].key = key;
            self.slots[victim].value = value;
            victim
        } else {
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.link_front(i);
    }

    /// Drops every entry and advances to snapshot `generation`. Called on
    /// snapshot swaps — a new encoder invalidates every cached embedding.
    pub fn clear_for(&mut self, generation: u64) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.generation = generation;
    }
}

#[cfg(test)]
impl EmbeddingCache {
    fn insert(&mut self, generation: u64, key: u64, value: Vec<f32>) -> Admission {
        self.insert_ref(generation, key, &value)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The body `graph_fingerprint` had before its chains were named: one
    /// `[u64; 4]` indexed by word position. Its bits are the definition.
    fn oracle_fingerprint(g: &FeatureGraph) -> u64 {
        const PRIME: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut lanes = [
            0xcbf2_9ce4_8422_2325u64,
            0x9ae1_6a3b_2f90_404fu64,
            0x2545_f491_4f6c_dd1du64,
            0x8765_4321_0fed_cba9u64,
        ];
        let mut i = 0usize;
        let mut eat = |v: u64| {
            let lane = &mut lanes[i & 3];
            *lane = (lane.rotate_left(25) ^ v).wrapping_mul(PRIME);
            i += 1;
        };
        eat(g.vertices.len() as u64);
        for row in &g.vertices {
            eat(row.len() as u64);
            for &v in row {
                eat(v.to_bits() as u64);
            }
        }
        eat(g.edges.len() as u64);
        for row in &g.edges {
            eat(row.len() as u64);
            for &v in row {
                eat(v.to_bits() as u64);
            }
        }
        let mut h = lanes[0];
        for &lane in &lanes[1..] {
            h = (h.rotate_left(25) ^ lane).wrapping_mul(PRIME);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 29)
    }

    /// `count` rows of 0–12 values (every residue mod 4, so every rotation
    /// of the chains), a third of them bit patterns a float mix-up would
    /// fold: NaN payloads, ±0, subnormals, ±∞.
    fn rows(rng: &mut StdRng, count: usize) -> Vec<Vec<f32>> {
        const SPECIAL: [u32; 9] = [
            0x7fc0_0001, // quiet NaN, payload 1
            0xffc1_2345, // negative quiet NaN, other payload
            0x7f80_0001, // signalling NaN
            0x0000_0000, // +0
            0x8000_0000, // −0
            0x0000_0001, // least subnormal
            0x807f_ffff, // greatest negative subnormal
            0x7f80_0000, // +∞
            0xff80_0000, // −∞
        ];
        (0..count)
            .map(|_| {
                (0..rng.gen_range(0..13usize))
                    .map(|_| {
                        f32::from_bits(if rng.gen_range(0..3u32) == 0 {
                            SPECIAL[rng.gen_range(0..SPECIAL.len())]
                        } else {
                            rng.gen::<u32>()
                        })
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        /// The four named chains are the lane array's `u64`, bit for bit:
        /// 0–12 vertices, ragged edges (their own count, their own row
        /// lengths), every row length mod 4.
        #[test]
        fn four_chain_fingerprint_is_the_lane_array_bits(
            seed in 0u64..u64::MAX,
            vertices in 0usize..13,
            edges in 0usize..13,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = FeatureGraph {
                vertices: rows(&mut rng, vertices),
                edges: rows(&mut rng, edges),
            };
            prop_assert_eq!(graph_fingerprint(&g), oracle_fingerprint(&g), "{:?}", g);
        }
    }

    #[test]
    fn fingerprint_distinguishes_graphs_and_is_stable() {
        let a = FeatureGraph {
            vertices: vec![vec![0.1, 0.2]],
            edges: vec![vec![0.0]],
        };
        let b = FeatureGraph {
            vertices: vec![vec![0.1, 0.2000001]],
            edges: vec![vec![0.0]],
        };
        assert_eq!(graph_fingerprint(&a), graph_fingerprint(&a.clone()));
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
        // Shape changes alter the fingerprint even with identical values.
        let c = FeatureGraph {
            vertices: vec![vec![0.1], vec![0.2]],
            edges: vec![vec![0.0, 0.0], vec![0.0, 0.0]],
        };
        assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = EmbeddingCache::new(2, 0);
        c.insert(0, 1, vec![1.0]);
        c.insert(0, 2, vec![2.0]);
        assert_eq!(c.get(1), Some(&[1.0f32][..])); // 1 is now most recent.
        c.insert(0, 3, vec![3.0]); // Evicts 2.
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none());
        assert_eq!(c.get(1), Some(&[1.0f32][..]));
        assert_eq!(c.get(3), Some(&[3.0f32][..]));
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = EmbeddingCache::new(2, 0);
        c.insert(0, 1, vec![1.0]);
        c.insert(0, 2, vec![2.0]);
        c.insert(0, 1, vec![1.5]); // Refresh: 2 is now the LRU victim.
        c.insert(0, 3, vec![3.0]);
        assert!(c.get(2).is_none());
        assert_eq!(c.get(1), Some(&[1.5f32][..]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = EmbeddingCache::new(0, 0);
        c.insert(0, 1, vec![1.0]);
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn clear_advances_generation_and_stays_usable() {
        let mut c = EmbeddingCache::new(4, 0);
        c.insert(0, 1, vec![1.0]);
        c.clear_for(1);
        assert!(c.is_empty());
        // Reusable after clear (inserts must carry the new generation).
        c.insert(1, 1, vec![1.0]);
        assert_eq!(c.get(1), Some(&[1.0f32][..]));
    }

    #[test]
    fn stale_generation_inserts_are_dropped() {
        let mut c = EmbeddingCache::new(4, 0);
        c.insert(0, 1, vec![1.0]);
        c.clear_for(1);
        // An in-flight batch from generation 0 must not poison gen 1.
        c.insert(0, 2, vec![2.0]);
        assert!(c.get(2).is_none());
        c.insert(1, 3, vec![3.0]);
        assert_eq!(c.get(3), Some(&[3.0f32][..]));
        assert_eq!(c.generation(), 1);
    }

    #[test]
    fn stats_count_each_reject_reason_distinctly() {
        // Disabled cache: rejects attribute to `disabled`, not stale-gen.
        let mut off = EmbeddingCache::new(0, 0);
        assert_eq!(off.insert(5, 1, vec![1.0]), Admission::RejectedDisabled);
        assert_eq!(off.stats().rejected_disabled, 1);
        assert_eq!(off.stats().rejected_stale_generation, 0);

        let mut c = EmbeddingCache::new(4, 0);
        // Stale generation is counted as its own reason.
        assert_eq!(
            c.insert(9, 1, vec![1.0]),
            Admission::RejectedStaleGeneration
        );
        assert_eq!(c.insert(0, 1, vec![1.0]), Admission::Admitted);
        let _ = c.get(1); // hit
        let _ = c.get(2); // miss
        let s = c.stats();
        assert_eq!(
            (
                s.hits,
                s.misses,
                s.inserts,
                s.rejected_first_touch,
                s.rejected_stale_generation,
                s.rejected_disabled,
            ),
            (1, 1, 1, 0, 1, 0)
        );
        assert_eq!((s.resident, s.capacity), (1, 4));
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let mut c = EmbeddingCache::new(8, 0);
        for i in 0..100u64 {
            c.insert(0, i, vec![i as f32]);
            assert!(c.len() <= 8);
        }
        // The eight most recent survive.
        for i in 92..100u64 {
            assert_eq!(c.get(i), Some(&[i as f32][..]));
        }
    }
}

//! Shared memoization for repeated analyses (the batch-engine seam).
//!
//! The expensive sub-computations of the Theorem 1–3 pipeline — busy-time
//! fixed points, whole latency analyses, overload budgets `Ω_a^b` and
//! minimum-distance curve lookups — are pure functions of the analyzed
//! [`twca_model::System`] plus a handful of scalar parameters. An
//! [`AnalysisCache`] memoizes them behind interior mutability so that
//!
//! * repeated analyses of the **same system** (dmm curves over many `k`,
//!   holistic distributed sweeps, priority-assignment search revisiting
//!   an assignment) reuse each fixed point, and
//! * analyses of **identical sub-structures across systems** in a batch
//!   sweep share work transparently,
//!
//! while guaranteeing **bit-identical results**: every key embeds a
//! 128-bit structural fingerprint of the system
//! ([`SystemFingerprint`]) together with all scalar inputs, and every
//! entry additionally stores a canonical-encoding length/checksum guard
//! ([`FingerprintGuard`]) — a lookup whose stored guard disagrees with
//! the probing system's is answered as a *miss* and recomputed, so even
//! a full 128-bit fingerprint collision can never surface another
//! system's bounds.
//!
//! Attach a cache with [`AnalysisContext::with_cache`]; contexts built
//! with [`AnalysisContext::new`] skip the cache entirely and behave as
//! before.
//!
//! The maps are sharded (`dashmap`-style) behind [`std::sync::Mutex`]es
//! so one `Arc<AnalysisCache>` can be shared by many worker threads of
//! the batch engine with low contention.
//!
//! # Bounded caches
//!
//! [`AnalysisCache::new`] is unbounded — the right default for one-shot
//! batch sweeps. Long-lived services attach a capacity with
//! [`AnalysisCache::with_capacity`] (entries and/or approximate bytes):
//! inserts then run a second-chance (clock) eviction over the shards
//! until the cache is back under budget. Eviction is coordination-free
//! — at most one shard lock is held at a time — and fully counted
//! ([`CacheStats::evictions`]); an evicted entry is simply recomputed
//! on its next use, bit-identically, since every entry is a pure
//! function of its key.
//!
//! [`AnalysisContext::with_cache`]: crate::AnalysisContext::with_cache
//! [`AnalysisContext::new`]: crate::AnalysisContext::new
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use twca_chains::{AnalysisCache, AnalysisContext, AnalysisOptions, ChainAnalysis};
//! use twca_model::case_study;
//!
//! # fn main() -> Result<(), twca_chains::AnalysisError> {
//! let cache = Arc::new(AnalysisCache::new());
//! let system = case_study();
//! let (c, _) = system.chain_by_name("sigma_c").unwrap();
//!
//! let cold = ChainAnalysis::new(&system).with_cache(Arc::clone(&cache));
//! let first = cold.deadline_miss_model(c, 10)?;
//!
//! // A second analysis of an equal system hits the memoized fixed
//! // points instead of recomputing them.
//! let copy = case_study();
//! let warm = ChainAnalysis::new(&copy).with_cache(Arc::clone(&cache));
//! assert_eq!(warm.deadline_miss_model(c, 10)?, first);
//! assert!(cache.stats().hits > 0);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::busy_time::BusyTimeBreakdown;
use crate::latency::{LatencyFailure, LatencyResult, OverloadMode};
use twca_curves::{ActivationModel, Time};
use twca_model::{ChainId, System};

/// 128-bit structural fingerprint of a [`System`].
///
/// Two systems with equal fingerprints are treated as interchangeable by
/// the cache *key* — but every stored entry also carries a
/// [`FingerprintGuard`], so a (theoretical) collision between different
/// systems is detected at lookup time and answered as a miss instead of
/// another system's bounds. The fingerprint covers everything the
/// analyses read — activation models, chain kinds, overload flags,
/// deadlines, task priorities and WCETs — and deliberately ignores
/// names, so a renamed copy of a system shares cache entries with the
/// original.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemFingerprint(u64, u64);

impl SystemFingerprint {
    /// Fingerprints `system` by hashing a canonical encoding with two
    /// independent FNV-1a streams.
    pub fn of(system: &System) -> Self {
        SystemKey::of(system).fingerprint
    }
}

/// Cheap canonical-encoding guard stored *beside* each cache entry: the
/// length of the canonical encoding in words plus a third, independent
/// checksum over the same words. A hit whose stored guard differs from
/// the probing system's guard is rejected as a miss (and overwritten by
/// the recomputation), which turns a silent fingerprint collision —
/// an unsound answer — into a harmless recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FingerprintGuard(u64, u64);

/// The full cache identity of a system: the 128-bit key fingerprint
/// plus the per-entry collision guard, computed together in one pass
/// over the canonical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemKey {
    fingerprint: SystemFingerprint,
    guard: FingerprintGuard,
}

impl SystemKey {
    /// Fingerprints and guards `system` in one pass over its canonical
    /// encoding.
    pub fn of(system: &System) -> Self {
        let mut h = Fnv2::new();
        for (_, chain) in system.iter() {
            h.u64(0xC0DE_0001);
            h.u64(chain.kind().is_synchronous() as u64);
            h.u64(chain.is_overload() as u64);
            h.u64(chain.deadline().map_or(u64::MAX, |d| d));
            encode_model(&mut h, chain.activation());
            for task in chain.tasks() {
                h.u64(0xC0DE_0002);
                h.u64(task.priority().level() as u64);
                h.u64(task.wcet());
            }
        }
        SystemKey {
            fingerprint: SystemFingerprint(h.a, h.b),
            guard: FingerprintGuard(h.words, h.c),
        }
    }

    /// The key fingerprint.
    pub fn fingerprint(&self) -> SystemFingerprint {
        self.fingerprint
    }

    /// The per-entry collision guard.
    pub fn guard(&self) -> FingerprintGuard {
        self.guard
    }
}

/// Two independent FNV-1a accumulators over `u64` words, plus the guard
/// stream: the word count and a third rotate-xor checksum.
struct Fnv2 {
    a: u64,
    b: u64,
    c: u64,
    words: u64,
}

impl Fnv2 {
    fn new() -> Self {
        Fnv2 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
            c: 0x27d4_eb2f_1656_67c5,
            words: 0,
        }
    }

    fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.a = (self.a ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            self.b = (self.b ^ byte as u64).wrapping_mul(0x0000_0100_0000_0145);
        }
        self.c = self
            .c
            .rotate_left(13)
            .wrapping_add(word.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.words += 1;
    }
}

fn encode_model(h: &mut Fnv2, model: &ActivationModel) {
    match model {
        ActivationModel::Periodic(p) => {
            h.u64(1);
            h.u64(p.period());
        }
        ActivationModel::Sporadic(s) => {
            h.u64(2);
            h.u64(s.min_distance());
        }
        ActivationModel::PeriodicJitter(pj) => {
            h.u64(3);
            h.u64(pj.period());
            h.u64(pj.jitter());
            h.u64(pj.min_distance());
        }
        ActivationModel::Burst(b) => {
            h.u64(4);
            h.u64(b.period());
            h.u64(b.size());
            h.u64(b.inner_distance());
        }
        ActivationModel::Table(t) => {
            h.u64(5);
            h.u64(t.tail_increment());
            for &d in t.distances() {
                h.u64(d);
            }
        }
        ActivationModel::Never(_) => h.u64(6),
        // `ActivationModel` is #[non_exhaustive]: fold unknown future
        // variants through their derived `Hash` (in-process only, which
        // is all the cache needs).
        other => {
            use std::hash::{Hash as _, Hasher as _};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            other.hash(&mut hasher);
            h.u64(7);
            h.u64(hasher.finish());
        }
    }
}

fn mode_bit(mode: OverloadMode) -> u8 {
    match mode {
        OverloadMode::Include => 0,
        OverloadMode::Exclude => 1,
    }
}

/// Key of one memoized busy-time fixed point (Theorem 1 / Equation 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BusyKey {
    sys: SystemFingerprint,
    chain: usize,
    q: u64,
    mode: u8,
    extra: Time,
    horizon: Time,
}

/// Key of one memoized latency analysis (Theorem 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LatencyKey {
    sys: SystemFingerprint,
    chain: usize,
    mode: u8,
    horizon: Time,
    max_q: u64,
}

/// Key of one memoized overload budget (Lemma 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OmegaKey {
    sys: SystemFingerprint,
    overload: usize,
    observed: usize,
    k: u64,
    wcl: Time,
}

/// Key of one memoized minimum-distance lookup `δ−(q)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DeltaKey {
    sys: SystemFingerprint,
    chain: usize,
    q: u64,
}

/// Key of one memoized deadline-miss-model evaluation (Theorem 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DmmKey {
    sys: SystemFingerprint,
    chain: usize,
    k: u64,
    horizon: Time,
    max_q: u64,
    max_combinations: usize,
    packing_budget: u64,
    /// 0 = sufficient (Equation 5) classification, 1 = exact
    /// (Equation 3).
    variant: u8,
}

const SHARDS: usize = 16;

/// The shared capacity/occupancy state of a bounded cache. All counters
/// are updated under the owning shard's lock (every increment pairs
/// with a map mutation), so they can never under-count or underflow —
/// readers see a consistent, monotone view without taking any lock.
#[derive(Debug)]
struct CacheBudget {
    /// Entry cap; `u64::MAX` = unbounded.
    max_entries: u64,
    /// Approximate-bytes cap; `u64::MAX` = unbounded.
    max_bytes: u64,
    resident_entries: AtomicU64,
    resident_bytes: AtomicU64,
    evictions: AtomicU64,
    /// Clock hand of the second-chance eviction, indexing
    /// `(map, shard)` slots round-robin.
    clock: AtomicU64,
}

impl CacheBudget {
    fn unbounded() -> Self {
        CacheBudget {
            max_entries: u64::MAX,
            max_bytes: u64::MAX,
            resident_entries: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    fn is_bounded(&self) -> bool {
        self.max_entries != u64::MAX || self.max_bytes != u64::MAX
    }

    fn over_budget(&self) -> bool {
        self.resident_entries.load(Ordering::Relaxed) > self.max_entries
            || self.resident_bytes.load(Ordering::Relaxed) > self.max_bytes
    }
}

/// One stored entry: the value, its collision guard, its byte estimate
/// (remembered so removal subtracts exactly what insertion added) and
/// the second-chance reference bit.
#[derive(Debug)]
struct Slot<V> {
    guard: FingerprintGuard,
    bytes: u64,
    referenced: bool,
    value: V,
}

#[derive(Debug)]
struct ShardInner<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Insertion-ordered clock ring of the second-chance eviction.
    ring: VecDeque<K>,
}

/// What one eviction step at a shard did.
enum EvictStep {
    /// An entry was removed (bytes returned for accounting symmetry).
    Evicted,
    /// The clock hand advanced (ref bit cleared or stale key skipped)
    /// without freeing anything.
    Advanced,
    /// The shard ring is empty.
    Empty,
}

/// A fixed-shard concurrent map (`dashmap`-style, stdlib-only) whose
/// entries carry collision guards and support second-chance eviction.
#[derive(Debug)]
struct Sharded<K, V> {
    shards: Vec<Mutex<ShardInner<K, V>>>,
    /// Fixed per-entry byte estimate of this map: key + slot + an
    /// allowance for the hash-map/ring bookkeeping around them.
    slot_bytes: u64,
}

/// Per-entry bookkeeping allowance (hash bucket + ring slot) folded
/// into every byte estimate.
const ENTRY_OVERHEAD_BYTES: u64 = 48;

impl<K: std::hash::Hash + Eq + Clone, V: Clone> Sharded<K, V> {
    fn new() -> Self {
        Sharded {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(ShardInner {
                        map: HashMap::new(),
                        ring: VecDeque::new(),
                    })
                })
                .collect(),
            slot_bytes: (std::mem::size_of::<K>() + std::mem::size_of::<Slot<V>>()) as u64
                + ENTRY_OVERHEAD_BYTES,
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        use std::hash::Hasher as _;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish() as usize % SHARDS
    }

    fn lock(&self, index: usize) -> std::sync::MutexGuard<'_, ShardInner<K, V>> {
        self.shards[index].lock().expect("cache shard poisoned")
    }

    /// Looks `key` up; a present entry whose guard differs from `guard`
    /// is reported as a miss (the caller recomputes and overwrites).
    fn get(&self, key: &K, guard: FingerprintGuard) -> Option<V> {
        let mut shard = self.lock(self.shard_index(key));
        let slot = shard.map.get_mut(key)?;
        if slot.guard != guard {
            return None;
        }
        slot.referenced = true;
        Some(slot.value.clone())
    }

    /// Inserts (or overwrites) `key`, maintaining the budget's resident
    /// counters under the shard lock. `heap_bytes` is the value's
    /// estimated heap footprint beyond its inline size.
    fn put(
        &self,
        budget: &CacheBudget,
        key: K,
        guard: FingerprintGuard,
        value: V,
        heap_bytes: u64,
    ) {
        let bytes = self.slot_bytes + heap_bytes;
        let mut shard = self.lock(self.shard_index(&key));
        let slot = Slot {
            guard,
            bytes,
            // A fresh entry gets one full clock revolution of grace.
            referenced: true,
            value,
        };
        match shard.map.insert(key.clone(), slot) {
            Some(old) => {
                // Overwrite: adjust bytes by the difference, entry
                // count unchanged, ring already holds the key.
                budget.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
                budget
                    .resident_bytes
                    .fetch_sub(old.bytes, Ordering::Relaxed);
            }
            None => {
                shard.ring.push_back(key);
                budget.resident_entries.fetch_add(1, Ordering::Relaxed);
                budget.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Advances the clock hand one step at `shard_index`: clears a set
    /// reference bit (second chance) or evicts the entry under the
    /// hand.
    fn evict_step(&self, budget: &CacheBudget, shard_index: usize) -> EvictStep {
        let mut shard = self.lock(shard_index);
        let Some(key) = shard.ring.pop_front() else {
            return EvictStep::Empty;
        };
        match shard.map.get_mut(&key) {
            // Stale ring slot (entry already gone): just advance.
            None => EvictStep::Advanced,
            Some(slot) if slot.referenced => {
                slot.referenced = false;
                shard.ring.push_back(key);
                EvictStep::Advanced
            }
            Some(_) => {
                let removed = shard.map.remove(&key).expect("slot just observed");
                budget.resident_entries.fetch_sub(1, Ordering::Relaxed);
                budget
                    .resident_bytes
                    .fetch_sub(removed.bytes, Ordering::Relaxed);
                budget.evictions.fetch_add(1, Ordering::Relaxed);
                EvictStep::Evicted
            }
        }
    }

    /// Drops every entry of every shard, keeping the budget counters in
    /// sync (clears do not count as evictions).
    fn clear(&self, budget: &CacheBudget) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let entries = shard.map.len() as u64;
            let bytes: u64 = shard.map.values().map(|s| s.bytes).sum();
            shard.map.clear();
            shard.ring.clear();
            budget
                .resident_entries
                .fetch_sub(entries, Ordering::Relaxed);
            budget.resident_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
    }
}

/// Counters of an [`AnalysisCache`]. All fields are maintained under
/// the owning shard's lock or by pure atomic increments, so concurrent
/// insert/evict can never make them inconsistent (no in-flight entry
/// double-count, no subtraction underflow): `hits`, `misses` and
/// `evictions` are monotone, and `entries`/`resident_bytes_est` always
/// equal the sum of what is actually resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation (including
    /// guard-rejected collisions).
    pub misses: u64,
    /// Entries currently resident across all maps.
    pub entries: usize,
    /// Entries removed by capacity eviction since construction.
    pub evictions: u64,
    /// Approximate bytes currently resident (keys, values, per-entry
    /// bookkeeping and value heap estimates).
    pub resident_bytes_est: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Configured capacity of an [`AnalysisCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCapacity {
    /// Maximum resident entries; `None` = unbounded.
    pub max_entries: Option<u64>,
    /// Maximum approximate resident bytes; `None` = unbounded.
    pub max_bytes: Option<u64>,
}

/// Thread-safe memo store for the analysis pipeline; see the
/// [module docs](self).
#[derive(Debug)]
pub struct AnalysisCache {
    busy: Sharded<BusyKey, Option<BusyTimeBreakdown>>,
    latency: Sharded<LatencyKey, Result<LatencyResult, LatencyFailure>>,
    omega: Sharded<OmegaKey, u64>,
    delta: Sharded<DeltaKey, Time>,
    dmm: Sharded<DmmKey, crate::dmm::DmmResult>,
    budget: CacheBudget,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Number of (map, shard) slots the eviction clock rotates over.
const CLOCK_SLOTS: usize = 5 * SHARDS;

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        AnalysisCache {
            busy: Sharded::new(),
            latency: Sharded::new(),
            omega: Sharded::new(),
            delta: Sharded::new(),
            dmm: Sharded::new(),
            budget: CacheBudget::unbounded(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// An empty cache bounded to `capacity`: once either limit is
    /// exceeded, inserts evict cold entries (second-chance clock) until
    /// the cache is back under budget. `None` limits are unbounded.
    pub fn with_capacity(capacity: CacheCapacity) -> Self {
        let mut cache = Self::new();
        cache.budget.max_entries = capacity.max_entries.unwrap_or(u64::MAX);
        cache.budget.max_bytes = capacity.max_bytes.unwrap_or(u64::MAX);
        cache
    }

    /// The configured capacity (`None` fields = unbounded).
    pub fn capacity(&self) -> CacheCapacity {
        CacheCapacity {
            max_entries: (self.budget.max_entries != u64::MAX).then_some(self.budget.max_entries),
            max_bytes: (self.budget.max_bytes != u64::MAX).then_some(self.budget.max_bytes),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.budget.resident_entries.load(Ordering::Relaxed) as usize,
            evictions: self.budget.evictions.load(Ordering::Relaxed),
            resident_bytes_est: self.budget.resident_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry (counters keep running; clears are not counted
    /// as evictions).
    pub fn clear(&self) {
        self.busy.clear(&self.budget);
        self.latency.clear(&self.budget);
        self.omega.clear(&self.budget);
        self.delta.clear(&self.budget);
        self.dmm.clear(&self.budget);
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Brings a bounded cache back under budget after an insert by
    /// rotating the second-chance clock over every (map, shard) slot.
    /// Holds at most one shard lock at a time; the iteration bound is a
    /// safety valve against concurrent inserts outrunning the hand.
    fn enforce_budget(&self) {
        if !self.budget.is_bounded() {
            return;
        }
        let resident = self.budget.resident_entries.load(Ordering::Relaxed);
        // Two full revolutions clear every grace bit and reach every
        // entry even if all were referenced.
        let mut steps_left = 2 * resident + 2 * CLOCK_SLOTS as u64;
        let mut empty_streak = 0usize;
        while self.budget.over_budget() && steps_left > 0 && empty_streak < CLOCK_SLOTS {
            let at = self.budget.clock.fetch_add(1, Ordering::Relaxed) as usize % CLOCK_SLOTS;
            let shard = at % SHARDS;
            let step = match at / SHARDS {
                0 => self.busy.evict_step(&self.budget, shard),
                1 => self.latency.evict_step(&self.budget, shard),
                2 => self.omega.evict_step(&self.budget, shard),
                3 => self.delta.evict_step(&self.budget, shard),
                _ => self.dmm.evict_step(&self.budget, shard),
            };
            match step {
                EvictStep::Empty => empty_streak += 1,
                EvictStep::Advanced | EvictStep::Evicted => empty_streak = 0,
            }
            steps_left -= 1;
        }
    }

    /// Memoizes one busy-time fixed point.
    // Every parameter is a component of the cache key; bundling them
    // into a struct would duplicate `BusyKey` for no gain.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn busy_time(
        &self,
        sys: SystemKey,
        chain: ChainId,
        q: u64,
        mode: OverloadMode,
        extra: Time,
        horizon: Time,
        compute: impl FnOnce() -> Option<BusyTimeBreakdown>,
    ) -> Option<BusyTimeBreakdown> {
        let key = BusyKey {
            sys: sys.fingerprint,
            chain: chain.index(),
            q,
            mode: mode_bit(mode),
            extra,
            horizon,
        };
        if let Some(hit) = self.busy.get(&key, sys.guard) {
            self.record(true);
            return hit;
        }
        self.record(false);
        let value = compute();
        self.busy.put(&self.budget, key, sys.guard, value, 0);
        self.enforce_budget();
        value
    }

    /// Memoizes one whole latency analysis (including its typed failure
    /// reason, so detailed and collapsed lookups share entries).
    pub(crate) fn latency(
        &self,
        sys: SystemKey,
        chain: ChainId,
        mode: OverloadMode,
        horizon: Time,
        max_q: u64,
        compute: impl FnOnce() -> Result<LatencyResult, LatencyFailure>,
    ) -> Result<LatencyResult, LatencyFailure> {
        let key = LatencyKey {
            sys: sys.fingerprint,
            chain: chain.index(),
            mode: mode_bit(mode),
            horizon,
            max_q,
        };
        if let Some(hit) = self.latency.get(&key, sys.guard) {
            self.record(true);
            return hit;
        }
        self.record(false);
        let value = compute();
        let heap = value.as_ref().map_or(0, |r| {
            (r.busy_times.len() * std::mem::size_of::<Time>()) as u64
        });
        self.latency
            .put(&self.budget, key, sys.guard, value.clone(), heap);
        self.enforce_budget();
        value
    }

    /// Memoizes one overload budget.
    pub(crate) fn omega(
        &self,
        sys: SystemKey,
        overload: ChainId,
        observed: ChainId,
        k: u64,
        wcl: Time,
        compute: impl FnOnce() -> u64,
    ) -> u64 {
        let key = OmegaKey {
            sys: sys.fingerprint,
            overload: overload.index(),
            observed: observed.index(),
            k,
            wcl,
        };
        if let Some(hit) = self.omega.get(&key, sys.guard) {
            self.record(true);
            return hit;
        }
        self.record(false);
        let value = compute();
        self.omega.put(&self.budget, key, sys.guard, value, 0);
        self.enforce_budget();
        value
    }

    /// Memoizes one full miss-model evaluation `dmm(k)`; errors pass
    /// through uncached (they are rare and re-deriving them is cheap
    /// relative to their packing-free paths).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dmm(
        &self,
        sys: SystemKey,
        chain: ChainId,
        k: u64,
        options: crate::config::AnalysisOptions,
        exact: bool,
        compute: impl FnOnce() -> Result<crate::dmm::DmmResult, crate::error::AnalysisError>,
    ) -> Result<crate::dmm::DmmResult, crate::error::AnalysisError> {
        let key = DmmKey {
            sys: sys.fingerprint,
            chain: chain.index(),
            k,
            horizon: options.horizon,
            max_q: options.max_q,
            max_combinations: options.max_combinations,
            packing_budget: options.packing_budget,
            variant: exact as u8,
        };
        if let Some(hit) = self.dmm.get(&key, sys.guard) {
            self.record(true);
            return Ok(hit);
        }
        self.record(false);
        let value = compute()?;
        let heap = (value.omegas.len() * std::mem::size_of::<(ChainId, u64)>()) as u64;
        self.dmm
            .put(&self.budget, key, sys.guard, value.clone(), heap);
        self.enforce_budget();
        Ok(value)
    }

    /// Memoizes one `δ−(q)` lookup of a chain's activation curve.
    pub(crate) fn delta_min(
        &self,
        sys: SystemKey,
        chain: ChainId,
        q: u64,
        compute: impl FnOnce() -> Time,
    ) -> Time {
        let key = DeltaKey {
            sys: sys.fingerprint,
            chain: chain.index(),
            q,
        };
        if let Some(hit) = self.delta.get(&key, sys.guard) {
            self.record(true);
            return hit;
        }
        self.record(false);
        let value = compute();
        self.delta.put(&self.budget, key, sys.guard, value, 0);
        self.enforce_budget();
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twca_model::case_study;

    fn key(fingerprint: (u64, u64), guard: (u64, u64)) -> SystemKey {
        SystemKey {
            fingerprint: SystemFingerprint(fingerprint.0, fingerprint.1),
            guard: FingerprintGuard(guard.0, guard.1),
        }
    }

    #[test]
    fn fingerprints_separate_different_systems() {
        let a = SystemFingerprint::of(&case_study());
        let b = SystemFingerprint::of(&case_study());
        assert_eq!(a, b);
        let scaled = case_study().with_scaled_overload_wcets(50, 100);
        assert_ne!(a, SystemFingerprint::of(&scaled));
    }

    #[test]
    fn fingerprints_ignore_names_only() {
        let s = case_study();
        let reprioritized = {
            let mut priorities: Vec<twca_model::Priority> =
                s.task_refs().map(|r| s.task(r).priority()).collect();
            priorities.reverse();
            s.with_priorities(&priorities)
        };
        assert_ne!(
            SystemFingerprint::of(&s),
            SystemFingerprint::of(&reprioritized)
        );
    }

    #[test]
    fn memo_returns_cached_value_and_counts() {
        let cache = AnalysisCache::new();
        let sys = SystemKey::of(&case_study());
        let chain = ChainId::from_index(0);
        let first = cache.delta_min(sys, chain, 5, || 42);
        let second = cache.delta_min(sys, chain, 5, || panic!("must hit"));
        assert_eq!(first, 42);
        assert_eq!(second, 42);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.resident_bytes_est > 0);
        cache.clear();
        let cleared = cache.stats();
        assert_eq!(cleared.entries, 0);
        assert_eq!(cleared.resident_bytes_est, 0);
        assert_eq!(cleared.evictions, 0, "clears are not evictions");
    }

    /// Two systems forced onto the same fingerprint (the collision the
    /// two FNV streams make astronomically unlikely, constructed here
    /// directly) must never see each other's entries: the guard rejects
    /// the hit, the recomputation wins, and the overwritten entry is
    /// gone for the first system too.
    #[test]
    fn guard_rejects_forced_fingerprint_collisions() {
        let cache = AnalysisCache::new();
        let chain = ChainId::from_index(0);
        let system_a = key((7, 7), (10, 1111));
        let system_b = key((7, 7), (10, 2222)); // same fingerprint, different encoding

        assert_eq!(cache.delta_min(system_a, chain, 1, || 100), 100);
        // A colliding lookup must not surface system A's value.
        assert_eq!(cache.delta_min(system_b, chain, 1, || 200), 200);
        // The overwrite evicted A's value: A recomputes too.
        assert_eq!(cache.delta_min(system_a, chain, 1, || 100), 100);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "no collision may ever read as a hit");
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 1, "guard collisions overwrite in place");
    }

    #[test]
    fn entry_capacity_evicts_and_counts() {
        let cache = AnalysisCache::with_capacity(CacheCapacity {
            max_entries: Some(8),
            max_bytes: None,
        });
        let sys = SystemKey::of(&case_study());
        let chain = ChainId::from_index(0);
        for q in 0..200u64 {
            let _ = cache.delta_min(sys, chain, q, || q as Time);
        }
        let stats = cache.stats();
        assert!(
            stats.entries <= 8,
            "resident {} exceeds the 8-entry cap",
            stats.entries
        );
        assert!(stats.evictions >= 192, "evictions: {}", stats.evictions);
        // Evicted entries recompute, bit-identically.
        assert_eq!(cache.delta_min(sys, chain, 0, || 0), 0);
    }

    #[test]
    fn byte_capacity_bounds_resident_bytes() {
        let cache = AnalysisCache::with_capacity(CacheCapacity {
            max_entries: None,
            max_bytes: Some(4_096),
        });
        let sys = SystemKey::of(&case_study());
        let chain = ChainId::from_index(0);
        for q in 0..500u64 {
            let _ = cache.delta_min(sys, chain, q, || q as Time);
        }
        let stats = cache.stats();
        assert!(
            stats.resident_bytes_est <= 4_096,
            "resident bytes {} exceed the cap",
            stats.resident_bytes_est
        );
        assert!(stats.evictions > 0);
        assert!(stats.entries > 0, "the cap must not empty the cache");
    }

    #[test]
    fn hot_entries_survive_the_clock() {
        let cache = AnalysisCache::with_capacity(CacheCapacity {
            max_entries: Some(4),
            max_bytes: None,
        });
        let sys = SystemKey::of(&case_study());
        let chain = ChainId::from_index(0);
        let _ = cache.delta_min(sys, chain, 0, || 77);
        for q in 1..100u64 {
            // Keep q = 0 hot while colder entries churn through.
            let _ = cache.delta_min(sys, chain, 0, || panic!("must stay resident"));
            let _ = cache.delta_min(sys, chain, q, || q as Time);
        }
        assert_eq!(cache.delta_min(sys, chain, 0, || panic!("hot")), 77);
    }

    #[test]
    fn unbounded_capacity_reports_none() {
        assert_eq!(AnalysisCache::new().capacity(), CacheCapacity::default());
        let bounded = AnalysisCache::with_capacity(CacheCapacity {
            max_entries: Some(3),
            max_bytes: Some(1_000),
        });
        assert_eq!(bounded.capacity().max_entries, Some(3));
        assert_eq!(bounded.capacity().max_bytes, Some(1_000));
    }

    /// Concurrent inserts and evictions must keep the counters
    /// consistent: no underflow, resident ≤ cap at quiescence, and
    /// hits + misses equal to the lookups issued.
    #[test]
    fn concurrent_insert_evict_keeps_stats_consistent() {
        use std::sync::Arc;
        let cache = Arc::new(AnalysisCache::with_capacity(CacheCapacity {
            max_entries: Some(16),
            max_bytes: None,
        }));
        let threads = 4;
        let per_thread = 300u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let sys = SystemKey::of(&case_study());
                    let chain = ChainId::from_index(0);
                    for i in 0..per_thread {
                        let q = t * per_thread + i;
                        let _ = cache.delta_min(sys, chain, q, || q as Time);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, threads * per_thread);
        assert!(stats.entries <= 16, "resident {} > cap", stats.entries);
        assert!(stats.evictions > 0);
        // resident_bytes_est must be exactly the per-entry estimate sum
        // (delta entries have no heap payload) — any drift would reveal
        // an accounting race.
        let per_entry = cache.delta.slot_bytes;
        assert_eq!(stats.resident_bytes_est, stats.entries as u64 * per_entry);
    }
}

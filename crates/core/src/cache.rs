//! Per-system memoization for repeated analyses (the batch-engine seam).
//!
//! Two sub-computations of the Theorem 1–3 pipeline are read again
//! after they are computed: whole latency analyses (Theorem 2), which
//! every miss-model evaluation of the same system asks for, and
//! miss-model values `dmm(k)` (Theorem 3), which weakly-hard checks
//! re-read. Both are pure functions of the analyzed
//! [`twca_model::System`] plus a handful of scalar options. An
//! [`AnalysisCache`] keeps one memo of them per analyzed system, so
//!
//! * repeated analyses of the **same system** (dmm curves over many `k`,
//!   holistic distributed sweeps, priority-assignment search revisiting
//!   an assignment, a client sending the same system again) reuse each
//!   answer, and
//! * equal systems in a batch sweep share work transparently.
//!
//! Busy times, overload budgets `Ω_a^b` and distances `δ−(q)` are not
//! memoized: the busy-time ladder is solved warm in one pass per chain,
//! and the other two are closed forms of the activation models.
//!
//! Results stay **bit-identical**: a system's memo is found by its
//! 128-bit structural fingerprint ([`SystemFingerprint`]), and a
//! context that attaches it also checks a canonical-encoding
//! length/checksum guard ([`FingerprintGuard`]). A memo whose guard
//! differs from the probing system's is replaced by a fresh one, so even
//! a full 128-bit fingerprint collision can never surface another
//! system's bounds.
//!
//! Attach a cache with [`AnalysisContext::with_cache`]; contexts built
//! with [`AnalysisContext::new`] skip the cache entirely and behave as
//! before. The context fetches its system's memo once and holds it for
//! its whole life, so reuse within one analysis never depends on what
//! other threads do to the shared map.
//!
//! # Bounded caches
//!
//! [`AnalysisCache::new`] is unbounded — the right default for one-shot
//! batch sweeps. Long-lived services attach a capacity with
//! [`AnalysisCache::with_capacity`] (entries and/or approximate bytes).
//! A memo's entries and bytes are counted when a context that holds it
//! is dropped; the cache then runs a second-chance (clock) eviction over
//! whole systems until it is back under budget. Eviction is fully
//! counted ([`CacheStats::evictions`]); an evicted system is simply
//! recomputed on its next use, bit-identically, since every answer is a
//! pure function of its key. A context still holding an evicted memo
//! keeps using it until the context is dropped.
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
//! // A second analysis of an equal system hits the memoized answers
//! // instead of recomputing them.
//! let copy = case_study();
//! let warm = ChainAnalysis::new(&copy).with_cache(Arc::clone(&cache));
//! assert_eq!(warm.deadline_miss_model(c, 10)?, first);
//! assert!(cache.stats().hits > 0);
//! # Ok(())
//! # }
//! ```

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::config::AnalysisOptions;
use crate::dmm::DmmResult;
use crate::error::AnalysisError;
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

/// Key of one memoized latency analysis (Theorem 2) within a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LatencyKey {
    chain: usize,
    mode: OverloadMode,
    horizon: Time,
    max_q: u64,
}

/// Key of one memoized deadline-miss-model evaluation (Theorem 3)
/// within a system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct DmmKey {
    chain: usize,
    k: u64,
    horizon: Time,
    max_q: u64,
    max_combinations: usize,
    packing_budget: u64,
    /// Exact (Equation 3) rather than sufficient (Equation 5)
    /// classification.
    exact: bool,
}

type LatencyValue = Result<LatencyResult, LatencyFailure>;

/// The memoized answers of one analyzed system.
#[derive(Debug, Default)]
struct SystemMemo {
    latency: HashMap<LatencyKey, LatencyValue>,
    dmm: HashMap<DmmKey, DmmResult>,
    /// Heap bytes owned by the stored values (busy-time and Ω vectors).
    heap_bytes: u64,
}

/// Estimated bytes of a hash table with `capacity` usable slots of
/// `(K, V)`: the table allocates about `8/7` of its capacity in buckets,
/// each holding the pair and one control byte.
fn table_bytes<K, V>(capacity: usize) -> u64 {
    let buckets = capacity as u64 * 8 / 7;
    buckets * (std::mem::size_of::<(K, V)>() as u64 + 1)
}

/// Fixed bytes of one resident system: its slot in the system map and
/// the clock ring, and the shared memo allocation (two reference counts
/// plus the lock around the memo).
const SYSTEM_BYTES: u64 = (std::mem::size_of::<(SystemFingerprint, Resident)>()
    + 1
    + std::mem::size_of::<SystemFingerprint>()
    + 2 * std::mem::size_of::<usize>()
    + std::mem::size_of::<Mutex<SystemMemo>>()) as u64;

impl SystemMemo {
    fn entries(&self) -> u64 {
        (self.latency.len() + self.dmm.len()) as u64
    }

    fn bytes_est(&self) -> u64 {
        SYSTEM_BYTES
            + table_bytes::<LatencyKey, LatencyValue>(self.latency.capacity())
            + table_bytes::<DmmKey, DmmResult>(self.dmm.capacity())
            + self.heap_bytes
    }
}

/// Picks one of a memo's tables.
type Table<K, V> = fn(&mut SystemMemo) -> &mut HashMap<K, V>;

/// A context's hold on its system's memo: every lookup goes straight to
/// the memo, and dropping the hold counts the memo's entries and bytes
/// against the cache's budget.
#[derive(Debug, Clone)]
pub(crate) struct MemoHandle {
    cache: Arc<AnalysisCache>,
    fingerprint: SystemFingerprint,
    memo: Arc<Mutex<SystemMemo>>,
}

impl MemoHandle {
    /// The cache this memo belongs to.
    pub(crate) fn cache(&self) -> &Arc<AnalysisCache> {
        &self.cache
    }

    fn lookup<K: Hash + Eq, V: Clone>(&self, table: Table<K, V>, key: &K) -> Option<V> {
        let hit = table(&mut self.lock()).get(key).cloned();
        let counter = if hit.is_some() {
            &self.cache.hits
        } else {
            &self.cache.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores `value` unless another context of the same system stored
    /// it first (the two are equal); `heap` is the value's heap bytes.
    fn store<K: Hash + Eq, V>(&self, table: Table<K, V>, key: K, value: V, heap: usize) {
        let mut memo = self.lock();
        if let Entry::Vacant(slot) = table(&mut memo).entry(key) {
            slot.insert(value);
            memo.heap_bytes += heap as u64;
        }
    }

    fn lock(&self) -> MutexGuard<'_, SystemMemo> {
        self.memo.lock().expect("system memo poisoned")
    }

    /// Memoizes one whole latency analysis (including its typed failure
    /// reason, so detailed and collapsed lookups share entries).
    pub(crate) fn latency(
        &self,
        chain: ChainId,
        mode: OverloadMode,
        options: AnalysisOptions,
        compute: impl FnOnce() -> LatencyValue,
    ) -> LatencyValue {
        let key = LatencyKey {
            chain: chain.index(),
            mode,
            horizon: options.horizon,
            max_q: options.max_q,
        };
        let table: Table<LatencyKey, LatencyValue> = |memo| &mut memo.latency;
        if let Some(hit) = self.lookup(table, &key) {
            return hit;
        }
        let value = compute();
        let stored = value.clone();
        let heap = stored
            .as_ref()
            .map_or(0, |r| r.busy_times.capacity() * std::mem::size_of::<Time>());
        self.store(table, key, stored, heap);
        value
    }

    /// Memoizes one full miss-model evaluation `dmm(k)`; errors pass
    /// through uncached (they are rare and re-deriving them is cheap
    /// relative to their packing-free paths).
    pub(crate) fn dmm(
        &self,
        chain: ChainId,
        k: u64,
        options: AnalysisOptions,
        exact: bool,
        compute: impl FnOnce() -> Result<DmmResult, AnalysisError>,
    ) -> Result<DmmResult, AnalysisError> {
        let key = DmmKey {
            chain: chain.index(),
            k,
            horizon: options.horizon,
            max_q: options.max_q,
            max_combinations: options.max_combinations,
            packing_budget: options.packing_budget,
            exact,
        };
        let table: Table<DmmKey, DmmResult> = |memo| &mut memo.dmm;
        if let Some(hit) = self.lookup(table, &key) {
            return Ok(hit);
        }
        let value = compute()?;
        let stored = value.clone();
        let heap = stored.omegas.capacity() * std::mem::size_of::<(ChainId, u64)>();
        self.store(table, key, stored, heap);
        Ok(value)
    }
}

impl Drop for MemoHandle {
    fn drop(&mut self) {
        self.cache.settle(self.fingerprint, &self.memo);
    }
}

/// Counters of an [`AnalysisCache`]. `hits`, `misses` and `evictions`
/// are monotone; `entries` and `resident_bytes_est` are the sums over
/// the resident systems as last counted, when a context holding each
/// was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
    /// Entries (latency and dmm answers) currently resident.
    pub entries: usize,
    /// Entries removed by capacity eviction since construction.
    pub evictions: u64,
    /// Approximate bytes currently resident: table capacity, value heap
    /// and per-system bookkeeping.
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

impl CacheCapacity {
    /// The capacity of a long-running server's cache: 16 MiB estimated,
    /// no entry cap.
    pub const SERVE_DEFAULT: CacheCapacity = CacheCapacity {
        max_entries: None,
        max_bytes: Some(16 << 20),
    };
}

/// One resident system: its memo, its collision guard, what the memo
/// held when last counted, and the second-chance reference bit.
#[derive(Debug)]
struct Resident {
    guard: FingerprintGuard,
    memo: Arc<Mutex<SystemMemo>>,
    entries: u64,
    bytes: u64,
    referenced: bool,
}

/// The resident systems and their totals, kept together under one lock.
#[derive(Debug, Default)]
struct Residents {
    systems: HashMap<SystemFingerprint, Resident>,
    /// Insertion-ordered clock ring of the second-chance eviction.
    ring: VecDeque<SystemFingerprint>,
    entries: u64,
    bytes: u64,
    evictions: u64,
}

impl Residents {
    /// Forgets `resident`'s counted share of the totals.
    fn discount(&mut self, resident: &Resident) {
        self.entries -= resident.entries;
        self.bytes -= resident.bytes;
    }
}

/// Thread-safe memo store for the analysis pipeline; see the
/// [module docs](self).
#[derive(Debug)]
pub struct AnalysisCache {
    residents: Mutex<Residents>,
    capacity: CacheCapacity,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::with_capacity(CacheCapacity::default())
    }

    /// An empty cache bounded to `capacity`: once either limit is
    /// exceeded, dropping a context evicts cold systems (second-chance
    /// clock) until the cache is back under budget. `None` limits are
    /// unbounded.
    pub fn with_capacity(capacity: CacheCapacity) -> Self {
        AnalysisCache {
            residents: Mutex::default(),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The configured capacity (`None` fields = unbounded).
    pub fn capacity(&self) -> CacheCapacity {
        self.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let residents = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: residents.entries as usize,
            evictions: residents.evictions,
            resident_bytes_est: residents.bytes,
        }
    }

    /// Drops every resident system (counters keep running; clears are
    /// not counted as evictions).
    pub fn clear(&self) {
        let mut residents = self.lock();
        let evictions = residents.evictions;
        *residents = Residents {
            evictions,
            ..Residents::default()
        };
    }

    fn lock(&self) -> MutexGuard<'_, Residents> {
        self.residents.lock().expect("cache residents poisoned")
    }

    /// The memo of the system keyed `key`, created if none is resident.
    /// A resident memo whose guard differs (a fingerprint collision) is
    /// replaced, so the other system's answers are never read.
    pub(crate) fn checkout(self: Arc<Self>, key: SystemKey) -> MemoHandle {
        let mut residents = self.lock();
        let fresh = || Resident {
            guard: key.guard,
            memo: Arc::default(),
            entries: 0,
            bytes: 0,
            // Only a second use earns a second chance, so a system
            // analyzed once leaves before one that clients come back to.
            referenced: false,
        };
        let memo = match residents.systems.entry(key.fingerprint) {
            Entry::Occupied(mut slot) if slot.get().guard == key.guard => {
                slot.get_mut().referenced = true;
                Arc::clone(&slot.get().memo)
            }
            Entry::Occupied(mut slot) => {
                let collided = slot.insert(fresh());
                let memo = Arc::clone(&slot.get().memo);
                residents.discount(&collided);
                memo
            }
            Entry::Vacant(slot) => {
                let memo = Arc::clone(&slot.insert(fresh()).memo);
                residents.ring.push_back(key.fingerprint);
                memo
            }
        };
        drop(residents);
        MemoHandle {
            cache: self,
            fingerprint: key.fingerprint,
            memo,
        }
    }

    /// Counts `memo`'s entries and bytes if it is still resident, then
    /// evicts cold systems until the cache is back under budget. Called
    /// when a context drops its hold; a poisoned lock skips the count.
    fn settle(&self, fingerprint: SystemFingerprint, memo: &Arc<Mutex<SystemMemo>>) {
        let Ok(mut residents) = self.residents.lock() else {
            return;
        };
        let residents = &mut *residents;
        if let Some(resident) = residents
            .systems
            .get_mut(&fingerprint)
            .filter(|resident| Arc::ptr_eq(&resident.memo, memo))
        {
            let Ok(memo) = memo.lock() else {
                return;
            };
            let (entries, bytes) = (memo.entries(), memo.bytes_est());
            residents.entries = residents.entries - resident.entries + entries;
            residents.bytes = residents.bytes - resident.bytes + bytes;
            (resident.entries, resident.bytes) = (entries, bytes);
        }
        self.evict(residents);
    }

    /// Rotates the second-chance clock over the resident systems until
    /// the totals are within the capacity. Two revolutions clear every
    /// reference bit and reach every system.
    fn evict(&self, residents: &mut Residents) {
        let max_entries = self.capacity.max_entries.unwrap_or(u64::MAX);
        let max_bytes = self.capacity.max_bytes.unwrap_or(u64::MAX);
        let mut steps = 2 * residents.ring.len();
        while (residents.entries > max_entries || residents.bytes > max_bytes) && steps > 0 {
            steps -= 1;
            let Some(fingerprint) = residents.ring.pop_front() else {
                return;
            };
            match residents.systems.get_mut(&fingerprint) {
                Some(resident) if resident.referenced => {
                    resident.referenced = false;
                    residents.ring.push_back(fingerprint);
                }
                Some(_) => {
                    if let Some(evicted) = residents.systems.remove(&fingerprint) {
                        residents.discount(&evicted);
                        residents.evictions += evicted.entries;
                    }
                }
                None => {}
            }
        }
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

    /// The `i`-th of a family of distinct systems.
    fn system(i: u64) -> SystemKey {
        key((i, i), (1, 1))
    }

    fn answer(wcl: Time) -> LatencyValue {
        Ok(LatencyResult {
            busy_window_activations: 1,
            busy_times: vec![wcl],
            worst_case_latency: wcl,
        })
    }

    /// Memoizes `answer(value)` as chain `chain`'s latency.
    fn latency(memo: &MemoHandle, chain: usize, value: Time) -> LatencyValue {
        lookup(memo, chain, || answer(value))
    }

    fn must_hit(memo: &MemoHandle, chain: usize) -> LatencyValue {
        lookup(memo, chain, || panic!("must hit"))
    }

    fn lookup(
        memo: &MemoHandle,
        chain: usize,
        compute: impl FnOnce() -> LatencyValue,
    ) -> LatencyValue {
        let (id, mode) = (ChainId::from_index(chain), OverloadMode::Include);
        memo.latency(id, mode, AnalysisOptions::default(), compute)
    }

    fn bounded(max_entries: Option<u64>, max_bytes: Option<u64>) -> Arc<AnalysisCache> {
        Arc::new(AnalysisCache::with_capacity(CacheCapacity {
            max_entries,
            max_bytes,
        }))
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
    fn memo_returns_cached_value_and_counts_on_drop() {
        let cache = Arc::new(AnalysisCache::new());
        let memo = Arc::clone(&cache).checkout(system(1));
        assert_eq!(latency(&memo, 0, 42), answer(42));
        // A second context of the same system shares the memo.
        let twin = Arc::clone(&cache).checkout(system(1));
        assert_eq!(must_hit(&twin, 0), answer(42));
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        assert_eq!(cache.stats().entries, 0, "counted only when dropped");
        drop((memo, twin));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.resident_bytes_est > SYSTEM_BYTES);
        cache.clear();
        let cleared = cache.stats();
        assert_eq!(cleared.entries, 0);
        assert_eq!(cleared.resident_bytes_est, 0);
        assert_eq!(cleared.evictions, 0, "clears are not evictions");
    }

    /// Two systems forced onto the same fingerprint (the collision the
    /// two FNV streams make astronomically unlikely, constructed here
    /// directly) must never see each other's answers: the guard replaces
    /// the memo, and the replaced one is gone for the first system too.
    #[test]
    fn guard_rejects_forced_fingerprint_collisions() {
        let cache = Arc::new(AnalysisCache::new());
        let system_a = key((7, 7), (10, 1111));
        let system_b = key((7, 7), (10, 2222)); // same fingerprint, different encoding

        let memo = Arc::clone(&cache).checkout(system_a);
        assert_eq!(latency(&memo, 0, 100), answer(100));
        drop(memo);
        // A colliding context must not surface system A's value.
        let memo = Arc::clone(&cache).checkout(system_b);
        assert_eq!(latency(&memo, 0, 200), answer(200));
        drop(memo);
        // B's memo replaced A's: A recomputes too.
        let memo = Arc::clone(&cache).checkout(system_a);
        assert_eq!(latency(&memo, 0, 100), answer(100));
        drop(memo);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "no collision may ever read as a hit");
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 1, "a collision replaces the memo in place");
    }

    #[test]
    fn entry_capacity_evicts_whole_systems() {
        let cache = bounded(Some(8), None);
        for i in 0..50 {
            let memo = Arc::clone(&cache).checkout(system(i));
            for chain in 0..3 {
                let _ = latency(&memo, chain, i);
            }
            drop(memo);
            let stats = cache.stats();
            assert!(stats.entries <= 8, "resident {} > 8", stats.entries);
            assert_eq!(stats.entries % 3, 0, "systems leave whole");
        }
        assert!(cache.stats().evictions >= 150 - 8);
        // An evicted system recomputes, bit-identically.
        let memo = Arc::clone(&cache).checkout(system(0));
        assert_eq!(latency(&memo, 0, 0), answer(0));
    }

    #[test]
    fn byte_capacity_bounds_resident_bytes() {
        let cache = bounded(None, Some(4_096));
        for i in 0..200 {
            let memo = Arc::clone(&cache).checkout(system(i));
            let _ = latency(&memo, 0, i);
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
    fn byte_estimate_counts_table_capacity_and_value_heap() {
        let cache = Arc::new(AnalysisCache::new());
        let memo = Arc::clone(&cache).checkout(system(1));
        let options = AnalysisOptions::default();
        let long = || {
            Ok(LatencyResult {
                busy_window_activations: 100,
                busy_times: (0..100).collect(),
                worst_case_latency: 7,
            })
        };
        let _ = memo.latency(ChainId::from_index(0), OverloadMode::Include, options, long);
        let table = memo.lock().latency.capacity();
        drop(memo);
        let bytes = cache.stats().resident_bytes_est;
        assert_eq!(
            bytes,
            SYSTEM_BYTES + table_bytes::<LatencyKey, LatencyValue>(table) + 100 * 8
        );
    }

    #[test]
    fn hot_systems_survive_the_clock() {
        let cache = bounded(Some(4), None);
        let hot = system(0);
        let memo = Arc::clone(&cache).checkout(hot);
        let _ = latency(&memo, 0, 77);
        drop(memo);
        for i in 1..100 {
            // Keep system 0 hot while colder systems churn through.
            let memo = Arc::clone(&cache).checkout(hot);
            let _ = must_hit(&memo, 0);
            drop(memo);
            let memo = Arc::clone(&cache).checkout(system(i));
            let _ = latency(&memo, 0, i);
        }
        let memo = Arc::clone(&cache).checkout(hot);
        assert_eq!(must_hit(&memo, 0), answer(77));
    }

    /// A context keeps reading its memo after its system was evicted,
    /// and dropping it then counts nothing.
    #[test]
    fn a_held_memo_outlives_its_eviction() {
        let cache = bounded(Some(1), None);
        let held = Arc::clone(&cache).checkout(system(1));
        let _ = latency(&held, 0, 10);
        let other = Arc::clone(&cache).checkout(system(2));
        let _ = latency(&other, 0, 20);
        let _ = latency(&other, 1, 21);
        drop(other);
        assert_eq!(cache.stats().entries, 0, "both systems evicted");
        assert_eq!(must_hit(&held, 0), answer(10));
        drop(held);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().resident_bytes_est, 0);
    }

    #[test]
    fn unbounded_capacity_reports_none() {
        assert_eq!(AnalysisCache::new().capacity(), CacheCapacity::default());
        let bounded = bounded(Some(3), Some(1_000));
        assert_eq!(bounded.capacity().max_entries, Some(3));
        assert_eq!(bounded.capacity().max_bytes, Some(1_000));
    }

    /// Concurrent checkouts, lookups and evictions must keep the
    /// counters consistent: resident ≤ cap at quiescence, hits + misses
    /// equal to the lookups issued, and the totals equal to the sums
    /// over the resident systems.
    #[test]
    fn concurrent_checkouts_keep_stats_consistent() {
        let cache = bounded(Some(16), None);
        let threads = 4;
        let per_thread = 100u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        // Neighbouring threads share every other system.
                        let memo = Arc::clone(&cache).checkout(system((t + i) % 150));
                        let _ = latency(&memo, 0, i);
                        let _ = latency(&memo, 1, i);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2 * threads * per_thread);
        assert!(stats.entries <= 16, "resident {} > cap", stats.entries);
        assert!(stats.evictions > 0);
        let residents = cache.lock();
        let entries: u64 = residents.systems.values().map(|r| r.entries).sum();
        let bytes: u64 = residents.systems.values().map(|r| r.bytes).sum();
        assert_eq!((residents.entries, residents.bytes), (entries, bytes));
    }
}

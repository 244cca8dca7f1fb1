//! Fingerprint-keyed caches with LRU eviction under a hard byte budget.
//!
//! The daemon sees the same netlists over and over (CI re-checks, sweep
//! dashboards, editor integrations), so it caches at two levels:
//!
//! 1. **circuits** — parsed [`Circuit`]s keyed by a fingerprint of the
//!    netlist bytes, skipping the parser entirely on a repeat;
//! 2. **results** — finished response payloads keyed by
//!    `(fingerprint, request signature)`, served without running the
//!    engine at all.
//!
//! Every entry carries an approximate byte cost; the cache evicts
//! least-recently-used entries whenever a budget is exceeded, so a hostile
//! client streaming unique netlists cannot grow the daemon without bound.
//! A doorkeeper in front of the circuit cache keeps such one-off
//! netlists out of it altogether: a parsed circuit is only worth keeping
//! once its netlist has been seen twice.
//! A separate **quarantine** set records fingerprints whose requests
//! panicked the engine: they are fenced off permanently (never evicted —
//! a panic is a bug, and re-running the bug on retry helps nobody).

use smo_circuit::Circuit;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// FNV-1a 64-bit hash — the cache key for netlist bytes. Not
/// collision-resistant against adversaries, but a collision only yields a
/// wrong *cached* answer for the colliding netlist, never memory
/// unsafety; and the daemon is not a trust boundary between clients.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Slots in a [`Doorkeeper`]: 4096 fingerprints, 32 KiB.
const DOORKEEPER_SLOTS: usize = 4096;

/// A direct-mapped memory of recently seen netlist fingerprints, used to
/// admit a parsed circuit into the cache only on its netlist's second
/// sighting. Unique netlists (one-off solves) then never displace the
/// circuits of netlists that do repeat, and the circuit cache stays
/// small under unique-netlist traffic.
///
/// Each fingerprint maps to one slot, and a newer fingerprint in the same
/// slot overwrites it, so memory is fixed. A collision only delays an
/// admission, and a zero fingerprint is admitted on first sight; neither
/// affects any answer. Lock-free: slots are relaxed atomics, since a
/// slot publishes no other data (the circuit itself goes through the
/// cache mutex).
pub(crate) struct Doorkeeper {
    slots: Box<[AtomicU64]>,
}

impl Doorkeeper {
    /// An empty doorkeeper.
    pub(crate) fn new() -> Self {
        Doorkeeper {
            slots: (0..DOORKEEPER_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records `fp` and reports whether its slot already held it, i.e.
    /// whether the netlist was seen recently.
    pub(crate) fn admit(&self, fp: u64) -> bool {
        let slot = &self.slots[(fp % DOORKEEPER_SLOTS as u64) as usize];
        slot.swap(fp, Ordering::Relaxed) == fp
    }
}

/// A byte-budgeted LRU map. Recency is a monotone counter stamped on
/// every touch; eviction scans for the stale minimum (the maps here hold
/// tens of entries, so O(n) eviction beats the constant factor of an
/// intrusive list).
struct LruMap<K, V> {
    entries: HashMap<K, (V, u64, usize)>, // value, last-use stamp, cost
    clock: u64,
    total_cost: usize,
    max_cost: usize,
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    fn new(max_cost: usize) -> Self {
        LruMap {
            entries: HashMap::new(),
            clock: 0,
            total_cost: 0,
            max_cost,
        }
    }

    fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|(v, stamp, _)| {
            *stamp = clock;
            &*v
        })
    }

    fn insert(&mut self, key: K, value: V, cost: usize) {
        if cost > self.max_cost {
            return; // would evict everything and still not fit
        }
        if let Some((_, _, old)) = self.entries.remove(&key) {
            self.total_cost -= old;
        }
        self.clock += 1;
        self.entries.insert(key, (value, self.clock, cost));
        self.total_cost += cost;
        while self.total_cost > self.max_cost {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some((_, _, c)) = self.entries.remove(&oldest) {
                self.total_cost -= c;
            }
        }
    }

    fn remove(&mut self, key: &K) {
        if let Some((_, _, cost)) = self.entries.remove(key) {
            self.total_cost -= cost;
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Cache sizing knobs (bytes, approximate).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Budget for parsed circuits.
    pub circuit_bytes: usize,
    /// Budget for finished response payloads.
    pub result_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            circuit_bytes: 8 << 20,
            result_bytes: 8 << 20,
        }
    }
}

/// Running hit/miss counters, surfaced by the `stats` command.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result-cache hits (engine skipped entirely).
    pub result_hits: u64,
    /// Parsed-circuit hits (parser skipped).
    pub circuit_hits: u64,
    /// Requests refused because their input is quarantined.
    pub quarantined: u64,
}

/// The daemon's shared cache. Not internally synchronized — the engine
/// wraps it in a `Mutex` and holds the lock only for lookups and
/// insertions, never across a solve.
pub struct ApiCache {
    circuits: LruMap<u64, Arc<Circuit>>,
    results: LruMap<(u64, String), Arc<str>>,
    quarantine: HashSet<u64>,
    /// Counters; publicly readable via [`ApiCache::stats`].
    stats: CacheStats,
}

impl ApiCache {
    /// Creates an empty cache under `config`'s budgets.
    pub fn new(config: &CacheConfig) -> Self {
        ApiCache {
            circuits: LruMap::new(config.circuit_bytes),
            results: LruMap::new(config.result_bytes),
            quarantine: HashSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// Whether `fp` previously panicked the engine.
    pub fn is_quarantined(&mut self, fp: u64) -> bool {
        let hit = self.quarantine.contains(&fp);
        if hit {
            self.stats.quarantined += 1;
        }
        hit
    }

    /// Fences `fp` off permanently and purges every cached artifact
    /// derived from it — a panic mid-handler may have left half-built
    /// state behind, and quarantined entries must not be servable.
    pub fn quarantine(&mut self, fp: u64) {
        self.quarantine.insert(fp);
        self.circuits.remove(&fp);
        // Result keys are (fp, signature); collect then remove.
        let stale: Vec<(u64, String)> = self
            .results
            .entries
            .keys()
            .filter(|(f, _)| *f == fp)
            .cloned()
            .collect();
        for key in stale {
            self.results.remove(&key);
        }
    }

    /// A cached parsed circuit for `fp`.
    pub fn circuit(&mut self, fp: u64) -> Option<Arc<Circuit>> {
        let hit = self.circuits.get(&fp).cloned();
        if hit.is_some() {
            self.stats.circuit_hits += 1;
        }
        hit
    }

    /// Caches a parsed circuit.
    pub fn store_circuit(&mut self, fp: u64, circuit: Arc<Circuit>) {
        let cost = Self::circuit_cost(&circuit);
        self.circuits.insert(fp, circuit, cost);
    }

    /// The byte cost charged for a cached circuit: edges and syncs
    /// dominate.
    pub(crate) fn circuit_cost(circuit: &Circuit) -> usize {
        256 + circuit.num_syncs() * 128 + circuit.num_edges() * 64
    }

    /// A cached finished response for `(fp, signature)`.
    pub fn result(&mut self, fp: u64, signature: &str) -> Option<Arc<str>> {
        let hit = self.results.get(&(fp, signature.to_string())).cloned();
        if hit.is_some() {
            self.stats.result_hits += 1;
        }
        hit
    }

    /// Caches a finished response payload.
    pub fn store_result(&mut self, fp: u64, signature: String, payload: Arc<str>) {
        let cost = 64 + signature.len() + payload.len();
        self.results.insert((fp, signature), payload, cost);
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entry counts (circuits, results, quarantined) for `stats`.
    pub fn sizes(&self) -> (usize, usize, usize) {
        (
            self.circuits.len(),
            self.results.len(),
            self.quarantine.len(),
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use smo_gen::paper;

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        assert_eq!(fingerprint(b"abc"), fingerprint(b"abc"));
        assert_ne!(fingerprint(b"abc"), fingerprint(b"abd"));
        assert_ne!(fingerprint(b""), fingerprint(b"\0"));
    }

    #[test]
    fn lru_evicts_the_coldest_entry_under_budget_pressure() {
        let mut m: LruMap<u32, &'static str> = LruMap::new(100);
        m.insert(1, "a", 40);
        m.insert(2, "b", 40);
        assert_eq!(m.get(&1), Some(&"a")); // touch 1 → 2 is now coldest
        m.insert(3, "c", 40); // over budget → evict 2
        assert_eq!(m.get(&2), None);
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&3), Some(&"c"));
        // An entry larger than the whole budget is refused outright.
        m.insert(4, "d", 1000);
        assert_eq!(m.get(&4), None);
    }

    #[test]
    fn quarantine_purges_and_fences() {
        let mut cache = ApiCache::new(&CacheConfig::default());
        let fp = fingerprint(b"poison");
        cache.store_circuit(fp, Arc::new(paper::example2()));
        cache.store_result(fp, "solve".into(), Arc::from("{}"));
        assert!(cache.circuit(fp).is_some());
        cache.quarantine(fp);
        assert!(cache.is_quarantined(fp));
        assert!(cache.circuit(fp).is_none());
        assert!(cache.result(fp, "solve").is_none());
        assert_eq!(cache.stats().quarantined, 1);
    }

    #[test]
    fn doorkeeper_admits_on_the_second_sighting() {
        let door = Doorkeeper::new();
        let fp = fingerprint(b"netlist");
        assert!(!door.admit(fp));
        assert!(door.admit(fp));
        assert!(door.admit(fp));
        // A different fingerprint in the same slot displaces it.
        let rival = fp ^ (1 << 40);
        assert!(!door.admit(rival));
        assert!(!door.admit(fp));
    }

    #[test]
    fn result_cache_round_trips() {
        let mut cache = ApiCache::new(&CacheConfig::default());
        let fp = fingerprint(b"x");
        assert!(cache.result(fp, "sig").is_none());
        cache.store_result(fp, "sig".into(), Arc::from("payload"));
        assert_eq!(cache.result(fp, "sig").as_deref(), Some("payload"));
        assert!(cache.result(fp, "other-sig").is_none());
        assert_eq!(cache.stats().result_hits, 1);
    }
}

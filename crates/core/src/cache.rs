//! Spec-hash decision cache.
//!
//! The serve daemon (and replay clients) see repeated decide-hour
//! requests: identical `(system, inputs)` tuples recur whenever a
//! workload trace revisits an operating point. Since a decision
//! ([`crate::DecisionEngine::decide_hour`]) is a pure function of its
//! inputs, a finished decision can be replayed verbatim for an exact
//! match — the cache keys on **raw bits**, never tolerances, so a hit is
//! bitwise-identical to a fresh solve by construction and two
//! almost-equal inputs never alias.
//!
//! What a hit replays is up to the owner: the cache is generic over its
//! value, an [`HourDecision`] by default. The decision server stores the
//! rendered response body instead, so a hit costs no re-rendering.
//!
//! The system itself is folded into the key as an FNV-1a fingerprint of
//! every number the MILPs read from it (site power/queueing parameters
//! and the full pricing schedule), so one cache instance can safely
//! serve requests that name different policies. A long-lived caller
//! computes [`system_fingerprint`] once per system and builds keys with
//! [`DecisionKey::with_fingerprint`].

use crate::capper::HourDecision;
use crate::spec::DataCenterSystem;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// 64-bit FNV-1a over little-endian words: this crate's one fingerprint
/// hash (it also keys the engine's built structures).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprints every input the decision MILPs read from `system`:
/// per-site name, queueing/power coefficients, caps, and the full
/// price schedule. Two systems with equal fingerprints produce
/// identical models for identical hour inputs.
pub fn system_fingerprint(system: &DataCenterSystem) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(system.len() as u64);
    for (i, site) in system.sites.iter().enumerate() {
        h.write_str(&site.name);
        h.write_f64(site.mw_per_request());
        h.write_f64(site.base_power_mw());
        h.write_f64(site.max_rate());
        h.write_f64(site.response_target);
        h.write_f64(site.power_cap_mw);
        h.write_u64(site.max_servers);
        let policy = system.policy(i);
        for (lo, hi, price) in policy.levels() {
            h.write_f64(lo);
            h.write_f64(hi);
            h.write_f64(price);
        }
    }
    h.0
}

/// The exact-match key of one decide-hour request. All floats are
/// stored as raw bits ([`f64::to_bits`]); `-0.0` and `0.0`, or two
/// NaN payloads, are deliberately distinct.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionKey {
    system: u64,
    integral_servers: bool,
    offered: u64,
    premium_offered: u64,
    background: Vec<u64>,
    budget: u64,
}

impl DecisionKey {
    /// Builds the key for one request against `system`, hashing the
    /// whole system spec.
    pub fn new(
        system: &DataCenterSystem,
        integral_servers: bool,
        offered: f64,
        premium_offered: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Self {
        Self::with_fingerprint(
            system_fingerprint(system),
            integral_servers,
            offered,
            premium_offered,
            background_mw,
            hourly_budget,
        )
    }

    /// Builds the key for one request against the system whose
    /// [`system_fingerprint`] is `system`, without re-hashing the spec.
    pub fn with_fingerprint(
        system: u64,
        integral_servers: bool,
        offered: f64,
        premium_offered: f64,
        background_mw: &[f64],
        hourly_budget: f64,
    ) -> Self {
        Self {
            system,
            integral_servers,
            offered: offered.to_bits(),
            premium_offered: premium_offered.to_bits(),
            background: background_mw.iter().map(|d| d.to_bits()).collect(),
            budget: hourly_budget.to_bits(),
        }
    }
}

/// A bounded FIFO cache of finished decisions.
///
/// FIFO (not LRU) keeps eviction deterministic under concurrent
/// readers: the eviction order depends only on insertion order, never
/// on who happened to read an entry last.
///
/// `V` is what an entry holds: an [`HourDecision`] by default, or any
/// other image of one, such as the decision server's rendered response
/// body. Capacity and eviction order do not depend on `V`.
///
/// The cache counts nothing itself: [`insert`](Self::insert) returns
/// how many entries it evicted, and a caller that reports hits, misses
/// and evictions keeps those counts where it reports them.
#[derive(Debug)]
pub struct DecisionCache<V = HourDecision> {
    map: HashMap<DecisionKey, V>,
    order: VecDeque<DecisionKey>,
    capacity: usize,
}

impl DecisionCache {
    /// Default capacity: a month of hourly decisions.
    pub const DEFAULT_CAPACITY: usize = 744;
}

impl<V> DecisionCache<V> {
    /// Creates a cache holding at most `capacity` decisions
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            map: HashMap::with_capacity(capacity.min(4096)),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Looks up a decision. A hit borrows the stored value; nothing is
    /// cloned.
    pub fn get(&self, key: &DecisionKey) -> Option<&V> {
        self.map.get(key)
    }

    /// Stores a decision, evicting the oldest entries while the cache
    /// is over capacity, and returns how many it evicted. Re-inserting
    /// an existing key refreshes the value without growing the FIFO.
    pub fn insert(&mut self, key: DecisionKey, decision: V) -> u64 {
        match self.map.entry(key.clone()) {
            Entry::Occupied(mut e) => {
                e.insert(decision);
                return 0;
            }
            Entry::Vacant(e) => {
                e.insert(decision);
                self.order.push_back(key);
            }
        }
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
            evicted += 1;
        }
        evicted
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<V> Default for DecisionCache<V> {
    fn default() -> Self {
        Self::new(DecisionCache::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capper::BillCapper;
    use crate::spec::DataCenterSystem;

    fn decision(sys: &DataCenterSystem, offered: f64) -> HourDecision {
        BillCapper::default()
            .decide_hour(sys, offered, 0.5 * offered, &[330.0, 410.0, 280.0], 1e9)
            .unwrap()
    }

    #[test]
    fn hit_returns_the_stored_decision_bitwise() {
        let sys = DataCenterSystem::paper_system(1);
        let d = decision(&sys, 4e8);
        let key = DecisionKey::new(&sys, false, 4e8, 2e8, &[330.0, 410.0, 280.0], 1e9);
        let mut cache = DecisionCache::new(8);
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.insert(key.clone(), d.clone()), 0);
        let hit = cache.get(&key).unwrap();
        assert_eq!(hit.cost().to_bits(), d.cost().to_bits());
        assert_eq!(hit.allocation, d.allocation);
    }

    #[test]
    fn keys_are_exact_not_tolerant() {
        let sys = DataCenterSystem::paper_system(1);
        let base = DecisionKey::new(&sys, false, 4e8, 2e8, &[330.0, 410.0, 280.0], 1e9);
        let nudged = DecisionKey::new(
            &sys,
            false,
            4e8 * (1.0 + f64::EPSILON),
            2e8,
            &[330.0, 410.0, 280.0],
            1e9,
        );
        assert_ne!(base, nudged, "one-ulp input changes must miss");
        let negzero = DecisionKey::new(&sys, false, 4e8, 2e8, &[-0.0, 410.0, 280.0], 1e9);
        let poszero = DecisionKey::new(&sys, false, 4e8, 2e8, &[0.0, 410.0, 280.0], 1e9);
        assert_ne!(negzero, poszero);
        let integral = DecisionKey::new(&sys, true, 4e8, 2e8, &[330.0, 410.0, 280.0], 1e9);
        assert_ne!(base, integral);
        let prehashed = DecisionKey::with_fingerprint(
            system_fingerprint(&sys),
            false,
            4e8,
            2e8,
            &[330.0, 410.0, 280.0],
            1e9,
        );
        assert_eq!(base, prehashed, "a kept fingerprint keys like a fresh hash");
    }

    #[test]
    fn different_systems_do_not_alias() {
        let p1 = DataCenterSystem::paper_system(1);
        let p2 = DataCenterSystem::paper_system(2);
        assert_ne!(system_fingerprint(&p1), system_fingerprint(&p2));
        let k1 = DecisionKey::new(&p1, false, 4e8, 2e8, &[330.0, 410.0, 280.0], 1e9);
        let k2 = DecisionKey::new(&p2, false, 4e8, 2e8, &[330.0, 410.0, 280.0], 1e9);
        assert_ne!(k1, k2);
    }

    #[test]
    fn fifo_eviction_drops_the_oldest() {
        let sys = DataCenterSystem::paper_system(1);
        let d = decision(&sys, 4e8);
        let mut cache = DecisionCache::new(2);
        let keys: Vec<DecisionKey> = (0..3)
            .map(|i| {
                DecisionKey::new(
                    &sys,
                    false,
                    4e8 + f64::from(i),
                    2e8,
                    &[330.0, 410.0, 280.0],
                    1e9,
                )
            })
            .collect();
        let evicted: Vec<u64> = keys
            .iter()
            .map(|k| cache.insert(k.clone(), d.clone()))
            .collect();
        assert_eq!(evicted, [0, 0, 1]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[0]).is_none(), "oldest must be evicted");
        assert!(cache.get(&keys[1]).is_some());
        assert!(cache.get(&keys[2]).is_some());
        // Re-inserting an existing key must not evict anything.
        assert_eq!(cache.insert(keys[2].clone(), d.clone()), 0);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&keys[1]).is_some());
    }
}

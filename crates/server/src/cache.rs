//! Content-addressed result cache (the in-memory tier).
//!
//! A repair is a pure function of the *canonicalized* spec text and the
//! [`RepairOptions`](ftrepair_core::RepairOptions), so its result can be
//! addressed by a hash of exactly those inputs. Canonicalization (parse →
//! `unparse`) means formatting, comments, and declaration spelling do not
//! fragment the cache; two differently-indented copies of the same program
//! hit the same entry.
//!
//! Keys are SHA-256 digests computed by [`ftrepair_store::content_key`] —
//! the same addressing the on-disk tier uses, so one key identifies a
//! result in both tiers. (The hash must be collision-resistant because the
//! spec text is untrusted network input; see `ftrepair_store::sha`.) The
//! capacity is bounded with LRU eviction — touch-on-hit, matching the disk
//! tier's policy — so the daemon's memory stays flat no matter how many
//! distinct specs it has seen, and a hot key survives capacity pressure
//! from a stream of one-off specs.
//!
//! A repeated request parses nothing and serializes nothing: the
//! [`PrepareMemo`] recalls the content key of a byte-identical body, and
//! each [`CacheEntry`] holds its response serialized once, so a reply is a
//! copy with two fields spliced in.

use crate::job::SimStatus;
use ftrepair_telemetry::trace::format_trace_id;
use ftrepair_telemetry::{Counter, Json, Telemetry};
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// The content address of a (canonical spec, options fingerprint) pair —
/// shared with the disk tier.
pub use ftrepair_store::content_key;

/// One cached repair: the `/repair` response, serialized once, plus, for
/// instances small enough to enumerate, the explicit bundle `/simulate`
/// replays.
pub struct CacheEntry {
    /// Content address of this entry (hex).
    pub key: String,
    /// Did the algorithm declare failure (no repair exists)? `/simulate`
    /// refuses such entries.
    pub failed: bool,
    /// The response's `case` field (the program name), which `/simulate`
    /// echoes.
    pub case: Json,
    /// Explicit-state bundle for fault-injection simulation, or the
    /// precise reason `/simulate` must refuse this entry.
    pub sim: SimStatus,
    /// The `/repair` response document, serialized once. It never carries
    /// the per-reply `cached` and `trace_id` fields; [`CacheEntry::reply`]
    /// appends them.
    body: String,
}

impl CacheEntry {
    /// The entry for `response`, a JSON object without `cached` or
    /// `trace_id` keys: every reply appends those two after the
    /// document's own fields, which is where setting them would put them.
    pub fn new(key: String, response: &Json, sim: SimStatus) -> CacheEntry {
        let fields = response.as_obj().expect("a repair response is a JSON object");
        assert!(
            fields.iter().all(|(k, _)| k != "cached" && k != "trace_id"),
            "a cached response must not carry the per-reply cached/trace_id fields"
        );
        CacheEntry {
            key,
            failed: response.get("failed").and_then(Json::as_bool) == Some(true),
            case: response.get("case").cloned().unwrap_or(Json::Null),
            sim,
            body: response.to_string(),
        }
    }

    /// The `/repair` reply body: the stored document with
    /// `"cached":…,"trace_id":"…"` spliced in before its closing brace —
    /// byte for byte what setting both fields on the response and
    /// serializing it gives, without re-serializing anything.
    pub fn reply(&self, cached: bool, trace_id: u64) -> String {
        let open = &self.body[..self.body.len() - 1];
        let mut out = String::with_capacity(self.body.len() + 48);
        out.push_str(open);
        if open.len() > 1 {
            out.push(',');
        }
        out.push_str(if cached { "\"cached\":true" } else { "\"cached\":false" });
        out.push_str(",\"trace_id\":\"");
        out.push_str(&format_trace_id(trace_id));
        out.push_str("\"}");
        out
    }
}

/// A map bounded to `capacity` entries with least-recently-used eviction.
/// Front of `order` = least recently used; a hit moves its key to the
/// back, an O(n) reposition that is fine at the default capacity (256).
struct Lru<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Lru<K, V> {
        Lru { map: HashMap::new(), order: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// The value under `key`, marked most recently used.
    fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let value = self.map.get(key)?.clone();
        if let Some(pos) = self.order.iter().position(|k| k.borrow() == key) {
            let k = self.order.remove(pos).expect("position is in range");
            self.order.push_back(k);
        }
        Some(value)
    }

    /// Insert or replace `key`'s value and mark it most recently used.
    /// Returns how many entries were evicted to stay within capacity.
    fn insert(&mut self, key: K, value: V) -> u64 {
        if self.map.insert(key.clone(), value).is_some() {
            if let Some(pos) = self.order.iter().position(|k| *k == key) {
                self.order.remove(pos);
            }
            self.order.push_back(key);
            return 0;
        }
        self.order.push_back(key);
        let mut evicted = 0;
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                evicted += 1;
            }
        }
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The cache. Hit/miss/eviction counts feed the server's telemetry
/// registry, so they show up in `GET /metrics` and the JSONL reports.
pub struct ResultCache {
    inner: Mutex<Lru<String, Arc<CacheEntry>>>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries, reporting counters into
    /// `tele`'s registry.
    pub fn new(capacity: usize, tele: &Telemetry) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Lru::new(capacity)),
            hits: tele.counter("server.cache.hits"),
            misses: tele.counter("server.cache.misses"),
            evictions: tele.counter("server.cache.evictions"),
        }
    }

    /// Look up a content address, counting the hit or miss. A hit marks the
    /// key most-recently-used.
    pub fn get(&self, key: &str) -> Option<Arc<CacheEntry>> {
        let entry = self.inner.lock().unwrap().get(key);
        match &entry {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        entry
    }

    /// Insert an entry, evicting the least recently used when full.
    /// Re-inserting an existing key replaces the value and refreshes its
    /// recency without growing the queue.
    pub fn insert(&self, entry: CacheEntry) -> Arc<CacheEntry> {
        let entry = Arc::new(entry);
        let evicted = self.inner.lock().unwrap().insert(entry.key.clone(), Arc::clone(&entry));
        if evicted > 0 {
            self.evictions.add(evicted);
        }
        entry
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What [`crate::job::prepare`] derived from one exact request body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prepared {
    /// The content key (see [`content_key`]).
    pub key: String,
    /// The program name from the spec.
    pub name: String,
}

/// The prepare memo: SHA-256 of (options fingerprint, exact request body)
/// to the content key and program name `job::prepare` derived from them.
///
/// A repeated request costs one digest and one lookup here instead of a
/// parse, an unparse and a SHA-256 of the canonical text. Only bodies that
/// prepared successfully are remembered, and only byte-identical repeats
/// hit: a reformatted copy misses here and still reaches its entry through
/// `prepare`'s canonical key. Bounded like [`ResultCache`] (same
/// capacity, LRU), so a stream of one-off bodies cannot grow it.
pub struct PrepareMemo {
    inner: Mutex<Lru<[u8; 32], Arc<Prepared>>>,
}

impl PrepareMemo {
    /// A memo holding at most `capacity` bodies.
    pub fn new(capacity: usize) -> PrepareMemo {
        PrepareMemo { inner: Mutex::new(Lru::new(capacity)) }
    }

    /// The memo address of `body` submitted under the options
    /// `fingerprint` ([`crate::job::options_fingerprint`]).
    pub fn address(fingerprint: &str, body: &[u8]) -> [u8; 32] {
        let mut material = Vec::with_capacity(fingerprint.len() + 1 + body.len());
        material.extend_from_slice(fingerprint.as_bytes());
        material.push(b'\n');
        material.extend_from_slice(body);
        ftrepair_store::sha256(&material)
    }

    /// What an earlier request with this address prepared to, marked most
    /// recently used.
    pub fn get(&self, address: &[u8; 32]) -> Option<Arc<Prepared>> {
        self.inner.lock().unwrap().get(address)
    }

    /// Remember what the request at `address` prepared to.
    pub fn insert(&self, address: [u8; 32], prepared: Prepared) -> Arc<Prepared> {
        let prepared = Arc::new(prepared);
        self.inner.lock().unwrap().insert(address, Arc::clone(&prepared));
        prepared
    }

    /// Bodies currently remembered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct PoisonInner {
    set: HashSet<String>,
    order: VecDeque<String>,
}

/// Quarantine set for content keys whose repair panicked the engine.
///
/// A spec that crashed the worker once will crash it again — the repair is
/// deterministic — so resubmissions are refused (`422`) straight from the
/// cache path instead of being handed to a fresh worker to kill. Like
/// [`ResultCache`] the set is bounded, but with FIFO eviction (quarantine
/// entries have no useful recency): an adversary feeding an endless stream
/// of crashing specs must not grow the daemon's memory, and the oldest
/// quarantine aging out is harmless (the spec just gets one more chance to
/// panic and be re-quarantined).
pub struct PoisonList {
    inner: Mutex<PoisonInner>,
    capacity: usize,
}

impl PoisonList {
    /// A quarantine list holding at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize) -> PoisonList {
        PoisonList {
            inner: Mutex::new(PoisonInner { set: HashSet::new(), order: VecDeque::new() }),
            capacity: capacity.max(1),
        }
    }

    /// Quarantine `key`. Returns `true` if it was newly added, `false` if
    /// it was already quarantined (lets callers count distinct keys).
    pub fn insert(&self, key: &str) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if !inner.set.insert(key.to_string()) {
            return false;
        }
        inner.order.push_back(key.to_string());
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.set.remove(&old);
            }
        }
        true
    }

    /// Is `key` currently quarantined?
    pub fn contains(&self, key: &str) -> bool {
        self.inner.lock().unwrap().set.contains(key)
    }

    /// Keys currently quarantined.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().set.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str) -> CacheEntry {
        CacheEntry::new(key.to_string(), &Json::obj(), SimStatus::Unavailable)
    }

    /// What a reply was before entries kept their serialized body: clone
    /// the document, set both per-reply fields, serialize.
    fn set_and_serialize(response: &Json, cached: bool, trace_id: u64) -> String {
        let mut body = response.clone();
        body.set("cached", cached.into());
        body.set("trace_id", format_trace_id(trace_id).into());
        body.to_string()
    }

    #[test]
    fn replies_splice_exactly_what_setting_the_fields_serializes() {
        let mut report = Json::obj();
        report.set("phases_s", Json::Arr(vec![0.000123.into(), 1.5.into()]));
        let mut response = Json::obj();
        response.set("ok", true.into());
        response.set("case", "toggle \"ünï\"".into());
        response.set("failed", false.into());
        response.set("program", "// repaired\n(x = 2) -> x := 0;\t\\".into());
        response.set("report", report);
        for doc in [response, Json::obj()] {
            let entry = CacheEntry::new("k".into(), &doc, SimStatus::Unavailable);
            for (cached, trace_id) in [(false, 1), (true, 0xc1c1_c1c1), (true, u64::MAX)] {
                assert_eq!(
                    entry.reply(cached, trace_id),
                    set_and_serialize(&doc, cached, trace_id)
                );
            }
        }
    }

    #[test]
    fn entries_keep_the_fields_simulate_reads() {
        let mut response = Json::obj();
        response.set("case", "toggle".into());
        response.set("failed", true.into());
        let full = CacheEntry::new("k".into(), &response, SimStatus::Unavailable);
        assert!(full.failed);
        assert_eq!(full.case, Json::from("toggle"));
        let bare = entry("k");
        assert!(!bare.failed);
        assert_eq!(bare.case, Json::Null);
    }

    #[test]
    #[should_panic(expected = "per-reply")]
    fn entries_never_carry_a_cached_flag() {
        let mut response = Json::obj();
        response.set("cached", false.into());
        CacheEntry::new("k".into(), &response, SimStatus::Unavailable);
    }

    #[test]
    #[should_panic(expected = "per-reply")]
    fn entries_never_carry_a_trace_id() {
        let mut response = Json::obj();
        response.set("trace_id", "00000000c1c1c1c1".into());
        CacheEntry::new("k".into(), &response, SimStatus::Unavailable);
    }

    #[test]
    fn memo_addresses_bodies_under_their_options() {
        let body = b"program p;\n";
        let lazy = PrepareMemo::address("lazy:r1c1e1p0t1m32:auto", body);
        assert_eq!(lazy, PrepareMemo::address("lazy:r1c1e1p0t1m32:auto", body));
        assert_ne!(lazy, PrepareMemo::address("cautious:r1c1e1p0t1m32:auto", body));
        assert_ne!(lazy, PrepareMemo::address("lazy:r1c1e1p0t1m32:auto", b"program p; \n"));
    }

    #[test]
    fn memo_is_bounded_lru() {
        let memo = PrepareMemo::new(4);
        let prepared = |i: usize| Prepared { key: format!("key{i}"), name: format!("p{i}") };
        let address = |i: usize| PrepareMemo::address("lazy", format!("body {i}").as_bytes());
        memo.insert(address(0), prepared(0));
        for i in 1..14 {
            // Touching body 0 between one-offs keeps it resident.
            assert_eq!(memo.get(&address(0)).as_deref(), Some(&prepared(0)), "after {i}");
            memo.insert(address(i), prepared(i));
            assert!(memo.len() <= 4);
        }
        assert_eq!(memo.len(), 4);
        assert!(memo.get(&address(1)).is_none(), "least recently used evicted");
        assert_eq!(memo.get(&address(13)).as_deref(), Some(&prepared(13)));
    }

    #[test]
    fn keys_are_content_addressed() {
        let a = content_key("program p;\n", "lazy");
        let b = content_key("program p;\n", "lazy");
        let c = content_key("program q;\n", "lazy");
        let d = content_key("program p;\n", "cautious");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let tele = Telemetry::new();
        let cache = ResultCache::new(8, &tele);
        assert!(cache.get("k").is_none());
        cache.insert(entry("k"));
        assert!(cache.get("k").is_some());
        let snap = tele.snapshot();
        assert_eq!(snap.counter("server.cache.hits"), 1);
        assert_eq!(snap.counter("server.cache.misses"), 1);
    }

    #[test]
    fn capacity_is_bounded_lru() {
        let tele = Telemetry::new();
        let cache = ResultCache::new(2, &tele);
        cache.insert(entry("a"));
        cache.insert(entry("b"));
        cache.insert(entry("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none(), "least recently used evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(tele.snapshot().counter("server.cache.evictions"), 1);
    }

    #[test]
    fn hot_key_survives_capacity_pressure() {
        // The LRU upgrade's whole point: a key that is *hit* between
        // insertions of one-off keys must outlive them all. Under the old
        // FIFO policy `hot` would age out after two insertions regardless
        // of traffic.
        let tele = Telemetry::new();
        let cache = ResultCache::new(2, &tele);
        cache.insert(entry("hot"));
        for i in 0..10 {
            assert!(cache.get("hot").is_some(), "hot key evicted after {i} one-offs");
            cache.insert(entry(&format!("one-off-{i}")));
        }
        assert!(cache.get("hot").is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(tele.snapshot().counter("server.cache.evictions"), 9);
    }

    #[test]
    fn reinsert_replaces_and_refreshes_recency() {
        let tele = Telemetry::new();
        let cache = ResultCache::new(2, &tele);
        cache.insert(entry("a"));
        cache.insert(entry("b"));
        // Re-inserting `a` marks it most recently used, so `b` is the LRU
        // victim when `c` arrives.
        cache.insert(entry("a"));
        cache.insert(entry("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert_eq!(tele.snapshot().counter("server.cache.evictions"), 1);
    }

    #[test]
    fn poison_list_quarantines_and_reports_novelty() {
        let poison = PoisonList::new(8);
        assert!(!poison.contains("k"));
        assert!(poison.insert("k"), "first insert is new");
        assert!(!poison.insert("k"), "second insert is a repeat");
        assert!(poison.contains("k"));
        assert_eq!(poison.len(), 1);
    }

    #[test]
    fn poison_list_is_bounded_fifo() {
        let poison = PoisonList::new(2);
        poison.insert("a");
        poison.insert("b");
        poison.insert("c");
        assert_eq!(poison.len(), 2);
        assert!(!poison.contains("a"), "oldest quarantine aged out");
        assert!(poison.contains("b"));
        assert!(poison.contains("c"));
    }
}

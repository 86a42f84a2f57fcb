//! The compiled-grammar session cache.
//!
//! The frontend pipeline (overlays 1–4: parse, lower, implicit copies,
//! evaluability) is pure per grammar *text*, so a resident service
//! should pay it exactly once per distinct grammar and serve every
//! later request from the compiled form. [`GrammarStore`] is that
//! cache:
//!
//! * **keyed by content hash** — FNV-1a 64 over the source text plus
//!   the scanner binding, so "the same grammar again" is decided by
//!   bytes, not by file names or client identity;
//! * **LRU-bounded** — at most `capacity` compiled grammars stay
//!   resident; eviction is safe because entries are `Arc` snapshots
//!   (an in-flight request keeps its grammar alive after eviction);
//! * **single-flight** — concurrent misses on the same key block on
//!   one compile instead of burning a core each; the
//!   [`analyses`](StoreStats::analyses) counter therefore counts real
//!   frontend runs, which is what the warm-path tests assert against;
//! * **concurrent** — lookups clone an `Arc` under a short-held mutex;
//!   compilation itself runs with the lock released.

use linguist_ag::analysis::{Analysis, Config};
use linguist_ag::lint::SpanMap;
use linguist_engine::{Engine as ExecEngine, EngineKind, PreparedEngine};
use linguist_frontend::driver::{analyze_with_spans, DriverError};
use linguist_frontend::translate::{TranslateError, Translator};
use linguist_lexgen::Scanner;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The workspace's stock content hash (shared with the codegen artifact
/// keys and the router's ring — see `linguist_support::fnv`).
pub(crate) use linguist_support::fnv::hash_chunks as fnv1a;

/// Cache key for a grammar: hash of the source text and the scanner
/// binding, rendered as 16 hex digits (what the wire protocol calls the
/// *grammar handle*).
pub fn grammar_key(source: &str, scanner: Option<&str>) -> String {
    linguist_support::fnv::hex16(fnv1a(&[
        source.as_bytes(),
        b"\0",
        scanner.unwrap_or("").as_bytes(),
    ]))
}

/// How a compiled grammar can be exercised.
enum Engine {
    /// Analysis only: requests evaluate synthetic trees grown from the
    /// grammar (the `budget` form of `Translate`).
    Synthetic(Box<Analysis>),
    /// Full translator: a scanner was bound at load time, so requests
    /// may also carry concrete `input` text to scan, parse and evaluate.
    Full(Box<Translator>),
}

/// One resident compiled grammar: the session-cache entry.
pub struct CompiledGrammar {
    /// The content-hash handle clients use to address this grammar.
    pub key: String,
    /// Display name (client-chosen at load, or the handle).
    pub name: String,
    /// Source lines, for stats.
    pub source_lines: usize,
    /// Wall-clock cost of the frontend run this entry amortizes.
    pub compile_time: Duration,
    /// Warm lookups served from this entry.
    hits: AtomicU64,
    engine: Engine,
    /// Source spans per dense id, captured at compile time so `check`
    /// requests against a cached grammar never re-run the frontend.
    spans: SpanMap,
    /// Compiled-engine route resolved at load time (AOT registry
    /// lookup), cached alongside the analysis so warm requests pay
    /// zero preparation cost. `None` when the service runs interpreted.
    prepared: Option<PreparedEngine>,
}

impl CompiledGrammar {
    /// The analyzed grammar.
    pub fn analysis(&self) -> &Analysis {
        match &self.engine {
            Engine::Synthetic(a) => a,
            Engine::Full(t) => &t.analysis,
        }
    }

    /// Source spans for the grammar's dense ids (the lint layer's
    /// input).
    pub fn spans(&self) -> &SpanMap {
        &self.spans
    }

    /// The full translator, when a scanner was bound at load time.
    pub fn translator(&self) -> Option<&Translator> {
        match &self.engine {
            Engine::Synthetic(_) => None,
            Engine::Full(t) => Some(t),
        }
    }

    /// Alternating passes the evaluator needs.
    pub fn passes(&self) -> usize {
        self.analysis().passes.num_passes()
    }

    /// Warm lookups served from this entry so far.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The compiled-engine route resolved at load time, when the
    /// service runs a compiled engine.
    pub fn prepared(&self) -> Option<&PreparedEngine> {
        self.prepared.as_ref()
    }
}

impl fmt::Debug for CompiledGrammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledGrammar")
            .field("key", &self.key)
            .field("name", &self.name)
            .field("passes", &self.passes())
            .finish()
    }
}

/// A [`GrammarStore::load`] failure.
#[derive(Debug)]
pub enum LoadError {
    /// The frontend rejected the grammar (overlays 1–4).
    Compile(DriverError),
    /// The scanner could not be bound (unknown name, non-LALR CFG, or
    /// an unbound token kind).
    Bind(TranslateError),
    /// No bundled scanner has this name.
    UnknownScanner(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Compile(e) => write!(f, "{}", e),
            LoadError::Bind(e) => write!(f, "{}", e),
            LoadError::UnknownScanner(name) => {
                write!(f, "no bundled scanner is named `{}`", name)
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// The bundled scanner registry: scanner definitions cannot cross the
/// wire (they are code), so `LoadGrammar` refers to them by name.
pub fn bundled_scanner(name: &str) -> Option<Scanner> {
    match name {
        "calc" => Some(linguist_grammars::calc_scanner()),
        "block" => Some(linguist_grammars::block_scanner()),
        "knuth" => Some(linguist_grammars::knuth_scanner()),
        "pascal" => Some(linguist_grammars::pascal_scanner()),
        "meta" => Some(linguist_grammars::meta_scanner()),
        _ => None,
    }
}

/// Counter snapshot of a [`GrammarStore`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing under the key.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Frontend analysis runs actually performed — the number the
    /// warm-path acceptance test pins to 1 per distinct grammar.
    pub analyses: u64,
    /// Grammars resident right now.
    pub entries: usize,
    /// The LRU bound.
    pub capacity: usize,
    /// Optimizer effect, cumulative over every compile this store
    /// performed (all zero when the service runs with `--opt=off`):
    /// constant reads materialized as literals.
    pub opt_folded: u64,
    /// Dead attributes detached plus dead rules deleted.
    pub opt_eliminated: u64,
    /// Reads forwarded past copy chains.
    pub opt_collapsed: u64,
}

enum Slot {
    /// Another thread is compiling this key; wait on the condvar.
    Building,
    /// Compiled and resident.
    Ready(Arc<CompiledGrammar>),
}

struct Inner {
    slots: HashMap<String, Slot>,
    /// LRU order, least-recent first. Only `Ready` keys appear.
    order: Vec<String>,
}

impl Inner {
    fn touch(&mut self, key: &str) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

/// The session cache. See the module docs for the design.
pub struct GrammarStore {
    inner: Mutex<Inner>,
    built: Condvar,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    analyses: AtomicU64,
    opt_folded: AtomicU64,
    opt_eliminated: AtomicU64,
    opt_collapsed: AtomicU64,
}

impl GrammarStore {
    /// A store holding at most `capacity` compiled grammars (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> GrammarStore {
        GrammarStore {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                order: Vec::new(),
            }),
            built: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            analyses: AtomicU64::new(0),
            opt_folded: AtomicU64::new(0),
            opt_eliminated: AtomicU64::new(0),
            opt_collapsed: AtomicU64::new(0),
        }
    }

    /// Look a grammar up by its handle. Counts a hit or a miss; a hit
    /// refreshes the entry's LRU position.
    pub fn get(&self, key: &str) -> Option<Arc<CompiledGrammar>> {
        let mut inner = self.inner.lock().expect("store poisoned");
        // A key mid-compile is not addressable by handle yet: the
        // loading client gets the handle only with the load reply.
        match inner.slots.get(key) {
            Some(Slot::Ready(g)) => {
                let g = g.clone();
                inner.touch(key);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                g.hits.fetch_add(1, Ordering::Relaxed);
                Some(g)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Get-or-compile: the service's `LoadGrammar` and by-source
    /// `Translate` entry point. Returns the compiled grammar and
    /// whether it was already resident (`true` = session-cache hit; the
    /// request paid zero analysis cost).
    ///
    /// Concurrent misses on one key are single-flighted: the first
    /// caller compiles with the store unlocked, later callers block
    /// until the slot is ready. A failed compile wakes the waiters,
    /// who observe the cleared slot and retry the compile themselves
    /// (failure is not cached — a transiently broken load should not
    /// poison the key).
    ///
    /// # Errors
    ///
    /// See [`LoadError`]. The store is unchanged on error.
    pub fn load(
        &self,
        source: &str,
        scanner: Option<&str>,
        name: Option<&str>,
        config: &Config,
    ) -> Result<(Arc<CompiledGrammar>, bool), LoadError> {
        self.load_with_engine(source, scanner, name, config, None)
    }

    /// [`load`](GrammarStore::load), resolving the grammar against an
    /// execution engine at compile time: the entry caches the prepared
    /// route (the AOT function pointer, or the typed miss) alongside the
    /// analysis, so warm translate requests pay zero engine preparation.
    /// Preparation shares the store's single-flight — concurrent misses
    /// on one key generate the grammar's source at most once.
    ///
    /// # Errors
    ///
    /// See [`LoadError`]. Engine preparation itself never fails a load —
    /// a grammar whose evaluator cannot be built degrades to the
    /// interpreter with the typed reason recorded in the entry.
    pub fn load_with_engine(
        &self,
        source: &str,
        scanner: Option<&str>,
        name: Option<&str>,
        config: &Config,
        exec: Option<&ExecEngine>,
    ) -> Result<(Arc<CompiledGrammar>, bool), LoadError> {
        let key = grammar_key(source, scanner);
        loop {
            {
                let mut inner = self.inner.lock().expect("store poisoned");
                match inner.slots.get(&key) {
                    Some(Slot::Ready(g)) => {
                        let g = g.clone();
                        inner.touch(&key);
                        drop(inner);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        g.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((g, true));
                    }
                    Some(Slot::Building) => {
                        // Someone else is compiling this key; wait for
                        // the slot to resolve, then loop to re-check.
                        let _unused = self.built.wait(inner).expect("store poisoned");
                        continue;
                    }
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        inner.slots.insert(key.clone(), Slot::Building);
                    }
                }
            }
            // This thread owns the compile for `key`; the lock is
            // released while the frontend runs.
            let built = self.compile(source, scanner, name, config, &key, exec);
            let mut inner = self.inner.lock().expect("store poisoned");
            match built {
                Ok(g) => {
                    let g = Arc::new(g);
                    inner.slots.insert(key.clone(), Slot::Ready(g.clone()));
                    inner.order.push(key.clone());
                    while inner.order.len() > self.capacity {
                        let victim = inner.order.remove(0);
                        inner.slots.remove(&victim);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    drop(inner);
                    self.built.notify_all();
                    return Ok((g, false));
                }
                Err(e) => {
                    inner.slots.remove(&key);
                    drop(inner);
                    self.built.notify_all();
                    return Err(e);
                }
            }
        }
    }

    fn compile(
        &self,
        source: &str,
        scanner: Option<&str>,
        name: Option<&str>,
        config: &Config,
        key: &str,
        exec: Option<&ExecEngine>,
    ) -> Result<CompiledGrammar, LoadError> {
        let started = Instant::now();
        self.analyses.fetch_add(1, Ordering::Relaxed);
        let (analysis, spans) = analyze_with_spans(source, config).map_err(LoadError::Compile)?;
        if let Some(report) = &analysis.opt {
            self.opt_folded
                .fetch_add(report.folded_uses as u64, Ordering::Relaxed);
            self.opt_eliminated.fetch_add(
                (report.eliminated_rules + report.eliminated_attrs) as u64,
                Ordering::Relaxed,
            );
            self.opt_collapsed
                .fetch_add(report.collapsed_copies as u64, Ordering::Relaxed);
        }
        // Resolve the compiled-engine route while the analysis is still
        // in hand (source generation and the registry lookup happen here,
        // inside the load's single-flight, on the loading client's time).
        let prepared = exec
            .filter(|e| e.config().kind != EngineKind::Interpreted)
            .map(|e| e.prepare(&analysis));
        let engine = match scanner {
            Some(sn) => {
                let sc =
                    bundled_scanner(sn).ok_or_else(|| LoadError::UnknownScanner(sn.to_string()))?;
                Engine::Full(Box::new(
                    Translator::new(analysis, sc).map_err(LoadError::Bind)?,
                ))
            }
            None => Engine::Synthetic(Box::new(analysis)),
        };
        Ok(CompiledGrammar {
            key: key.to_string(),
            name: name.unwrap_or(key).to_string(),
            source_lines: source.lines().count(),
            compile_time: started.elapsed(),
            hits: AtomicU64::new(0),
            engine,
            spans,
            prepared,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store poisoned");
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
            entries: inner.order.len(),
            capacity: self.capacity,
            opt_folded: self.opt_folded.load(Ordering::Relaxed),
            opt_eliminated: self.opt_eliminated.load(Ordering::Relaxed),
            opt_collapsed: self.opt_collapsed.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every resident grammar, LRU order (least-recent
    /// first) — the `Stats` endpoint's per-grammar table.
    pub fn entries(&self) -> Vec<Arc<CompiledGrammar>> {
        let inner = self.inner.lock().expect("store poisoned");
        inner
            .order
            .iter()
            .filter_map(|k| match inner.slots.get(k) {
                Some(Slot::Ready(g)) => Some(g.clone()),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Debug for GrammarStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GrammarStore({:?})", self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = r#"
grammar Tiny ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s0 = s1 x :
  s0.V = s1.V + x.OBJ ;
end
prod s0 = x :
  s0.V = x.OBJ ;
end
end
"#;

    fn variant(i: usize) -> String {
        // Content-hash keys: a comment suffices to make a new grammar.
        format!("{}\n# variant {}\n", TINY, i)
    }

    #[test]
    fn second_load_is_a_hit_with_no_reanalysis() {
        let store = GrammarStore::new(4);
        let cfg = Config::default();
        let (g1, cached1) = store.load(TINY, None, Some("tiny"), &cfg).unwrap();
        let (g2, cached2) = store.load(TINY, None, Some("tiny"), &cfg).unwrap();
        assert!(!cached1);
        assert!(cached2);
        assert!(Arc::ptr_eq(&g1, &g2));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.analyses), (1, 1, 1));
        assert_eq!(g1.hit_count(), 1);
        assert_eq!(g1.passes(), 1);
    }

    #[test]
    fn distinct_sources_and_scanner_bindings_get_distinct_keys() {
        assert_ne!(grammar_key(TINY, None), grammar_key(&variant(0), None));
        assert_ne!(grammar_key(TINY, None), grammar_key(TINY, Some("calc")));
        assert_eq!(grammar_key(TINY, None), grammar_key(TINY, None));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let store = GrammarStore::new(2);
        let cfg = Config::default();
        let (a, _) = store.load(&variant(1), None, None, &cfg).unwrap();
        store.load(&variant(2), None, None, &cfg).unwrap();
        // Touch 1 so 2 is now the LRU victim.
        assert!(store.get(&a.key).is_some());
        store.load(&variant(3), None, None, &cfg).unwrap();
        let s = store.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert!(store.get(&a.key).is_some(), "recently-used entry evicted");
        assert!(
            store.get(&grammar_key(&variant(2), None)).is_none(),
            "LRU entry survived"
        );
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let store = GrammarStore::new(2);
        let cfg = Config::default();
        assert!(store.load("grammar Broken", None, None, &cfg).is_err());
        let s = store.stats();
        assert_eq!(s.entries, 0);
        // The key stays loadable (a later, fixed load under the same
        // scanner binding is a fresh compile).
        assert!(store.load(TINY, None, None, &cfg).is_ok());
    }

    #[test]
    fn concurrent_loads_of_one_key_compile_once() {
        let store = GrammarStore::new(4);
        let cfg = Config::default();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    store.load(TINY, None, None, &cfg).unwrap();
                });
            }
        });
        let s = store.stats();
        assert_eq!(s.analyses, 1, "single-flight failed: {:?}", s);
        assert_eq!(s.hits + s.misses, 8);
    }

    #[test]
    fn unknown_scanner_is_rejected() {
        let store = GrammarStore::new(2);
        let err = store
            .load(TINY, Some("no-such-scanner"), None, &Config::default())
            .unwrap_err();
        assert!(matches!(err, LoadError::UnknownScanner(_)));
    }
}

//! Per-layer probes for the embedded-engine workloads, all taken from
//! outside the program: a timing wrapper re-registered over each IE
//! function, and before/after readings of the counters the crates
//! publish (`Session::profile`, `Session::cache_stats`,
//! `prefilter::stats`, `DocumentStore::bytes`).

use crate::util::{median, Report};
use spannerlib_core::Value;
use spannerlog_engine::{IeContext, IeFunction, IeOutput, Result, Session};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls and user time of one wrapped IE function.
#[derive(Default)]
pub struct IeTally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl IeTally {
    /// Total user time, in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// Forwards to the registered function, timing each real call. Memo
/// hits never reach it, so `calls` counts user-code invocations.
struct TimedIe {
    inner: Arc<dyn IeFunction>,
    tally: Arc<IeTally>,
}

impl IeFunction for TimedIe {
    fn input_arity(&self) -> Option<usize> {
        self.inner.input_arity()
    }

    fn call(&self, args: &[Value], n_outputs: usize, ctx: &mut IeContext<'_>) -> Result<IeOutput> {
        let t = Instant::now();
        let out = self.inner.call(args, n_outputs, ctx);
        self.tally
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn cacheable(&self) -> bool {
        self.inner.cacheable()
    }
}

/// Re-registers each of `names` (as `(function, metric label)`) behind
/// a timing wrapper.
pub fn wrap_ie(
    session: &mut Session,
    names: &[(&str, &'static str)],
) -> Vec<(&'static str, Arc<IeTally>)> {
    names
        .iter()
        .map(|&(name, label)| {
            let inner = session
                .registry()
                .ie(name)
                .unwrap_or_else(|e| panic!("IE function {name} is registered: {e}"))
                .clone();
            let tally = Arc::new(IeTally::default());
            session.register_ie(
                name,
                Arc::new(TimedIe {
                    inner,
                    tally: tally.clone(),
                }),
            );
            (label, tally)
        })
        .collect()
}

/// Median time, in milliseconds, of a full compile of the session's
/// program (`Session::prepare_program`). Each round first re-registers
/// IE function `name` as it is, which invalidates the compiled program.
pub fn compile_ms(session: &mut Session, name: &str) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let f = session
                .registry()
                .ie(name)
                .unwrap_or_else(|e| panic!("IE function {name} is registered: {e}"))
                .clone();
            session.register_ie(name, f);
            let t = Instant::now();
            session.prepare_program().expect("the program compiles");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Counter readings taken before an op, diffed after it.
pub struct Before {
    ie: Vec<(u64, u64)>,
    cache: spannerlog_engine::CacheStats,
    prefilter: spannerlib_regex::prefilter::PrefilterStats,
}

/// Per-op samples of every engine-side layer metric.
#[derive(Default)]
pub struct EngineLayers {
    samples: BTreeMap<String, Vec<f64>>,
    units: BTreeMap<String, &'static str>,
}

impl EngineLayers {
    pub fn before(session: &Session, ie: &[(&'static str, Arc<IeTally>)]) -> Before {
        Before {
            ie: ie.iter().map(|(_, t)| t.read()).collect(),
            cache: session.cache_stats(),
            prefilter: spannerlib_regex::prefilter::stats(),
        }
    }

    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
        self.units.insert(name.to_string(), unit);
    }

    /// Records one op's layer readings: `eval_ms` is the op's
    /// `ensure_evaluated` span, from which IE user time is subtracted to
    /// give the engine's own share.
    pub fn after(
        &mut self,
        session: &Session,
        ie: &[(&'static str, Arc<IeTally>)],
        before: Before,
        eval_ms: f64,
    ) {
        let mut user_ms = 0.0;
        for ((label, tally), (calls0, ns0)) in ie.iter().zip(&before.ie) {
            let (calls, ns) = tally.read();
            let ms = (ns - ns0) as f64 / 1e6;
            user_ms += ms;
            self.push(&format!("ie.user_ms.{label}"), ms, "ms");
            self.push(
                &format!("ie.user_calls.{label}"),
                (calls - calls0) as f64,
                "count",
            );
        }
        self.push("engine.eval_self_ms", eval_ms - user_ms, "ms");

        let profile = session
            .profile()
            .expect("the traced session evaluates at Summary level");
        self.push("engine.rounds", profile.rounds as f64, "count");
        self.push("engine.rule_firings", profile.rule_firings as f64, "count");
        self.push(
            "engine.tuples_derived",
            profile.tuples_derived as f64,
            "count",
        );
        self.push("engine.tuples_new", profile.tuples_new as f64, "count");
        let scanned: u64 = profile
            .strata
            .iter()
            .flat_map(|s| &s.rules)
            .map(|r| r.join_rows_scanned)
            .sum();
        self.push("engine.rows_scanned", scanned as f64, "count");
        self.push("planner.index_builds", profile.index_builds as f64, "count");
        self.push("planner.index_hits", profile.index_hits as f64, "count");
        let lookups: u64 = profile.ie_functions.iter().map(|f| f.calls).sum();
        self.push("ie.lookups", lookups as f64, "count");
        self.push("par.shards", profile.par_shards as f64, "count");
        self.push("par.stolen", profile.par_stolen as f64, "count");
        self.push("par.serial_rules", profile.par_serial_rules as f64, "count");

        let cache = session.cache_stats();
        self.push(
            "cache.hits",
            (cache.hits - before.cache.hits) as f64,
            "count",
        );
        self.push(
            "cache.misses",
            (cache.misses - before.cache.misses) as f64,
            "count",
        );
        self.push(
            "cache.evictions",
            (cache.evictions - before.cache.evictions) as f64,
            "count",
        );
        self.push("cache.bytes", cache.bytes as f64, "bytes");
        let pf = spannerlib_regex::prefilter::stats();
        self.push(
            "regex.prefilter_searches",
            (pf.searches - before.prefilter.searches) as f64,
            "count",
        );
        self.push(
            "regex.prefilter_pruned",
            (pf.pruned - before.prefilter.pruned) as f64,
            "count",
        );
        self.push("core.doc_bytes", session.docs().bytes() as f64, "bytes");
    }

    /// Reports the per-op median of every layer metric.
    pub fn report(&self, report: &mut Report) {
        for (name, values) in &self.samples {
            report.put(name, median(values), self.units[name]);
        }
    }
}

//! `xref_closure`: a recursive regex-plus-closure program. Each op
//! imports a page set the session has never seen, whose texts
//! cross-reference each other with `[[name]]` markup; a regex rule
//! extracts the links, a recursive rule computes reachability, an
//! aggregate counts each page's reach, and both are exported. Every op
//! is checked against a breadth-first search over the links the
//! generator planted.

use crate::probe::{compile_ms, wrap_ie, EngineLayers};
use crate::spans::{op_layers, Recorder};
use crate::util::{
    median, mix, ms_since, peak_rss_mb, quantile, timed_setup, Clocks, Phases, Report,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spannerlib_core::{Schema, Value, ValueType};
use spannerlib_dataframe::DataFrame;
use spannerlog_engine::{PreparedQuery, Session, TraceLevel};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Instant;

pub const RULES: &str = r#"
Link(p, q) <- Pages(p, t), rgx_string("\[\[(x[0-9]+_[0-9]+)\]\]", t) -> (q).
Reach(p, q) <- Link(p, q).
Reach(p, r) <- Reach(p, q), Link(q, r).
ReachCount(p, count(q)) <- Reach(p, q).
"#;

/// Pages per set.
pub const PAGES: usize = 150;
/// Forward links land within this many pages ahead.
const WINDOW: usize = 8;
/// Filler words per page.
const WORDS: usize = 1200;
/// `parse_program` repetitions measured in the traced run.
const PARSE_REPS: usize = 31;
/// Untimed page sets first: at the default 64 MiB the IE memo, which
/// holds each page text, starts evicting after about 64 sets.
const WARMUP: u64 = 80;

const VOCAB: &[&str] = &[
    "the",
    "archive",
    "records",
    "describe",
    "a",
    "survey",
    "of",
    "river",
    "towns",
    "with",
    "notes",
    "on",
    "trade",
    "routes",
    "and",
    "[see",
    "appendix]",
    "maps",
    "from",
    "early",
    "editions",
    "where",
    "each",
    "entry",
    "lists",
    "sources",
    "[cf.",
    "index]",
    "in",
    "order",
];

/// One generated page set: names, texts, and the planted links.
pub struct PageSet {
    pub names: Vec<String>,
    pub texts: Vec<String>,
    pub links: Vec<Vec<usize>>,
}

/// Page set `k` of the run. Page `i` links to one to three pages within
/// `WINDOW` ahead, and now and then back, which closes cycles.
pub fn page_set(seed: u64, k: u64) -> PageSet {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x7872_6566 ^ k));
    let names: Vec<String> = (0..PAGES).map(|i| format!("x{k}_{i}")).collect();
    let mut links = Vec::with_capacity(PAGES);
    let mut texts = Vec::with_capacity(PAGES);
    for i in 0..PAGES {
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(1..=3) {
            let j = i + rng.gen_range(1..=WINDOW);
            if j < PAGES {
                out.push(j);
            }
        }
        if i > 0 && rng.gen_bool(0.15) {
            out.push(rng.gen_range(i.saturating_sub(3 * WINDOW)..i));
        }
        let mut words: Vec<String> = (0..WORDS)
            .map(|_| VOCAB[rng.gen_range(0..VOCAB.len())].to_string())
            .collect();
        for &j in &out {
            let at = rng.gen_range(0..=words.len());
            words.insert(at, format!("[[{}]]", names[j]));
        }
        texts.push(words.join(" "));
        links.push(out);
    }
    PageSet {
        names,
        texts,
        links,
    }
}

/// Reachability (paths of length ≥ 1) by breadth-first search.
fn bfs_pairs(set: &PageSet) -> BTreeSet<(usize, usize)> {
    let mut pairs = BTreeSet::new();
    for p in 0..set.names.len() {
        let mut seen = vec![false; set.names.len()];
        let mut queue: VecDeque<usize> = set.links[p].iter().copied().collect();
        while let Some(q) = queue.pop_front() {
            if !std::mem::replace(&mut seen[q], true) {
                pairs.insert((p, q));
                queue.extend(&set.links[q]);
            }
        }
    }
    pairs
}

fn check(set: &PageSet, reach: &DataFrame, counts: &DataFrame, report: &mut Report) {
    let index: BTreeMap<&str, usize> = set
        .names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let lookup = |v: &Value| v.as_str().and_then(|s| index.get(s).copied());
    let mut got = BTreeSet::new();
    for row in reach.iter_rows() {
        match (lookup(&row[0]), lookup(&row[1])) {
            (Some(p), Some(q)) => {
                got.insert((p, q));
            }
            _ => return report.wrong(format!("Reach row {row:?} names an unknown page")),
        }
    }
    let want = bfs_pairs(set);
    if got != want || reach.num_rows() != want.len() {
        return report.wrong(format!(
            "Reach has {} pairs, BFS finds {}",
            reach.num_rows(),
            want.len()
        ));
    }
    let mut want_counts: BTreeMap<usize, i64> = BTreeMap::new();
    for &(p, _) in &want {
        *want_counts.entry(p).or_default() += 1;
    }
    let mut got_counts = BTreeMap::new();
    for row in counts.iter_rows() {
        match (lookup(&row[0]), row[1].as_int()) {
            (Some(p), Some(n)) => {
                got_counts.insert(p, n);
            }
            _ => return report.wrong(format!("ReachCount row {row:?} is malformed")),
        }
    }
    if got_counts != want_counts {
        report.wrong("ReachCount disagrees with BFS".into());
    }
}

struct Program {
    session: Session,
    reach: PreparedQuery,
    counts: PreparedQuery,
}

fn build(session: Session) -> Program {
    let mut session = session;
    session
        .declare("Pages", Schema::new(vec![ValueType::Str, ValueType::Str]))
        .expect("declare Pages");
    session.run(RULES).expect("xref rules load");
    let program = session.prepare_program().expect("xref program compiles");
    Program {
        reach: program.query("?Reach(p, q)").expect("reach query"),
        counts: program.query("?ReachCount(p, n)").expect("count query"),
        session,
    }
}

fn pages_frame(set: &PageSet) -> DataFrame {
    DataFrame::from_rows(
        vec!["page".into(), "text".into()],
        set.names
            .iter()
            .zip(&set.texts)
            .map(|(n, t)| vec![Value::str(n.as_str()), Value::str(t.as_str())])
            .collect(),
    )
    .expect("two string columns")
}

type OpOut = spannerlog_engine::Result<(DataFrame, DataFrame)>;

impl Program {
    fn op(&mut self, set: &PageSet) -> OpOut {
        self.session.import_dataframe(&pages_frame(set), "Pages")?;
        Ok((
            self.reach.execute(&mut self.session)?,
            self.counts.execute(&mut self.session)?,
        ))
    }

    /// The same op, spanned layer by layer; returns the eval time too.
    fn traced_op(&mut self, set: &PageSet, rec: &Recorder, name: &'static str) -> (OpOut, f64) {
        let mut eval_ms = 0.0;
        let out = rec.span(name, || -> OpOut {
            rec.span("dataframe.import", || {
                self.session.import_dataframe(&pages_frame(set), "Pages")
            })?;
            rec.span("engine.eval", || {
                let t = Instant::now();
                let r = self.session.ensure_evaluated();
                eval_ms = ms_since(t);
                r
            })?;
            rec.span("engine.export", || {
                Ok((
                    self.reach.execute(&mut self.session)?,
                    self.counts.execute(&mut self.session)?,
                ))
            })
        });
        (out, eval_ms)
    }
}

pub fn run(seed: u64, seconds: f64, trace: Option<&Recorder>, report: &mut Report) {
    let mut plain = timed_setup(report, || build(Session::new()));

    let mut traced = trace.map(|_| {
        let parse: Vec<f64> = (0..PARSE_REPS)
            .map(|_| {
                let t = Instant::now();
                spannerlog_parser::parse_program(RULES).expect("xref rules parse");
                ms_since(t)
            })
            .collect();
        report.put("parser.parse_ms", median(&parse), "ms");
        let mut program = build(Session::builder().tracing(TraceLevel::Summary).build());
        let ie = wrap_ie(&mut program.session, &[("rgx_string", "rgx")]);
        let prepare_ms = compile_ms(&mut program.session, "rgx_string");
        report.put("engine.prepare_ms", prepare_ms, "ms");
        let compiled = program
            .session
            .prepare_program()
            .expect("xref program compiles");
        program.reach = compiled.query("?Reach(p, q)").expect("reach query");
        program.counts = compiled.query("?ReachCount(p, n)").expect("count query");
        (program, ie, EngineLayers::default())
    });

    let (mut plain_ms, mut traced_ms, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut pages_done = 0usize;
    // A traced run alternates sessions, so each gets a full warm-up.
    let warmup = if trace.is_some() { 2 * WARMUP } else { WARMUP };
    let mut phases = Phases::new(warmup, seconds);
    while let Some((k, measured)) = phases.next_op() {
        let set = page_set(seed, k);
        let use_trace = trace.is_some() && k % 2 == 1;
        report.attempted += 1;
        let clocks = Clocks::start();
        let out = match (&mut traced, trace) {
            (Some((program, ie, layers)), Some(rec)) if use_trace => {
                let before = EngineLayers::before(&program.session, ie);
                let name = if measured { "op" } else { "warmup" };
                let (out, eval_ms) = program.traced_op(&set, rec, name);
                if measured {
                    traced_ms.push(clocks.wall_ms());
                    cpu_ms.push(clocks.cpu_ms());
                }
                if out.is_ok() && measured {
                    layers.after(&program.session, ie, before, eval_ms);
                }
                out
            }
            _ => {
                let out = plain.op(&set);
                if measured {
                    plain_ms.push(clocks.wall_ms());
                    cpu_ms.push(clocks.cpu_ms());
                    // Set-up is sampled across the whole run, not in one
                    // burst that a moment of host load can skew.
                    timed_setup(report, || build(Session::new()));
                }
                out
            }
        };
        match out {
            Ok((reach, counts)) => {
                if measured {
                    pages_done += set.names.len();
                }
                check(&set, &reach, &counts, report);
            }
            Err(e) => report.fail(format!("page set {k}: {e}")),
        }
    }

    if let (Some((_, _, layers)), Some(rec)) = (&traced, trace) {
        layers.report(report);
        crate::report_op_layers(&op_layers(&rec.spans(), "op"), report);
        report.put(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&plain_ms),
            "ratio",
        );
    }
    report.sample("op_ms", [plain_ms, traced_ms].concat());
    report.sample("op_cpu_ms", cpu_ms);
    report.sample("pages", [pages_done as f64]);
    report.sample("rss_mb", [peak_rss_mb()]);
}

/// Derives the workload's metrics from its recorded series.
pub fn derive(report: &mut Report) {
    report.derive_common("op_cpu_ms", 1.0);
    let ops = report.series("op_ms").to_vec();
    let pages_per_s = report.sum("pages") / (report.sum("op_ms") / 1e3);
    let pages_per_cpu_s = report.sum("pages") / (report.sum("op_cpu_ms") / 1e3);
    report.put("items_per_cpu_s", pages_per_cpu_s, "1/s");
    report.put("pages_per_s", pages_per_s, "1/s");
    report.put("closure_p50_ms", median(&ops), "ms");
    report.put("closure_p90_ms", quantile(&ops, 0.9), "ms");
    let cpu = report.series("op_cpu_ms").to_vec();
    report.put("closure_cpu_p50_ms", median(&cpu), "ms");
    report.put("closure_cpu_p90_ms", quantile(&cpu, 0.9), "ms");
}

//! `covid_stream`: the paper's §4.2 notebook loop. One pipeline is built
//! with the default configuration; each op classifies a batch of notes
//! the session has never seen. Every batch is checked against the
//! imperative `NativePipeline` (status and mention evidence) and, over
//! the run, against the generator's gold labels.

use crate::probe::{compile_ms, wrap_ie, EngineLayers};
use crate::spans::{op_layers, Recorder};
use crate::util::{
    median, mix, ms_since, peak_rss_mb, quantile, timed_setup, Clocks, Phases, Report,
};
use spannerlib_core::Value;
use spannerlib_covid::classify::{CovidStatus, DocumentResult, MentionEvidence};
use spannerlib_covid::corpus::{generate_corpus, CorpusDoc};
use spannerlib_covid::native::NativePipeline;
use spannerlib_covid::spanner::{SpannerPipeline, RULES};
use spannerlib_dataframe::DataFrame;
use spannerlog_engine::{PreparedQuery, Result, Session, TraceLevel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Notes per batch.
pub const BATCH: usize = 240;
/// `parse_program` repetitions measured in the traced run.
const PARSE_REPS: usize = 31;
const ACCURACY_FLOOR: f64 = 0.95;
/// Untimed batches first: at the default 64 MiB the IE memo starts
/// evicting after about 27 batches.
const WARMUP: u64 = 40;
/// The memory high-water mark is read after this many timed batches:
/// the document store keeps growing until its 32 MiB collection
/// threshold, so a mark read at the end of a fixed-length run would
/// move with the host's speed.
const RSS_AFTER: usize = 200;

/// Batch `k` of the run: a freshly generated corpus whose ids and texts
/// carry the batch number, so no note repeats within a run.
pub fn batch(seed: u64, k: u64) -> Vec<CorpusDoc> {
    let mut docs = generate_corpus(BATCH, mix(seed, k));
    for d in &mut docs {
        d.id = format!("b{k}_{}", d.id);
        d.text = format!("{} Batch marker b{k} filed.", d.text);
    }
    docs
}

/// Checks one batch's output against the native pipeline; returns the
/// number of gold-label agreements.
fn check(
    native: &NativePipeline,
    docs: &[CorpusDoc],
    got: &[DocumentResult],
    report: &mut Report,
) -> usize {
    let want = native.classify_corpus(docs);
    if let Some((w, g)) = want.iter().zip(got).find(|(w, g)| w != g) {
        report.wrong(format!("{}: native {w:?}, engine {g:?}", w.doc_id));
    }
    if want.len() != got.len() {
        report.wrong(format!("{} results for {} notes", got.len(), docs.len()));
    }
    got.iter()
        .zip(docs)
        .filter(|(r, d)| r.status == d.gold)
        .count()
}

fn new_pipeline() -> SpannerPipeline {
    SpannerPipeline::new().expect("pipeline builds")
}

pub fn run(seed: u64, seconds: f64, trace: Option<&Recorder>, report: &mut Report) {
    let native = NativePipeline::new();

    let mut pipeline = timed_setup(report, new_pipeline);

    match trace {
        None => measure(seed, seconds, &native, &mut pipeline, report),
        Some(rec) => traced(seed, seconds, &native, pipeline, rec, report),
    }
    if report.series("rss_mb").is_empty() {
        report.sample("rss_mb", [peak_rss_mb()]);
    }
}

/// Derives the workload's metrics from its recorded series.
pub fn derive(report: &mut Report) {
    report.derive_common("batch_cpu_ms", 1.0);
    let notes = report.sum("notes");
    let accuracy = report.sum("gold_hits") / notes.max(1.0);
    if accuracy < ACCURACY_FLOOR {
        report.wrong(format!(
            "gold accuracy {accuracy:.4} below {ACCURACY_FLOOR}"
        ));
    }
    let docs_per_s = notes / (report.sum("batch_ms") / 1e3);
    let docs_per_cpu_s = notes / (report.sum("batch_cpu_ms") / 1e3);
    let batches = report.series("batch_ms").to_vec();
    report.put("items_per_cpu_s", docs_per_cpu_s, "1/s");
    report.put("docs_per_s", docs_per_s, "1/s");
    report.put("batch_p50_ms", median(&batches), "ms");
    report.put("batch_p90_ms", quantile(&batches, 0.9), "ms");
    let cpu = report.series("batch_cpu_ms").to_vec();
    report.put("batch_cpu_p50_ms", median(&cpu), "ms");
    report.put("batch_cpu_p90_ms", quantile(&cpu, 0.9), "ms");
    report.put("gold_accuracy", accuracy, "ratio");
    let full = median(report.series("memo_full_batch"));
    report.put("memo_full_after_batches", full, "count");
}

fn measure(
    seed: u64,
    seconds: f64,
    native: &NativePipeline,
    pipeline: &mut SpannerPipeline,
    report: &mut Report,
) {
    let (mut wall, mut cpu) = (Vec::new(), Vec::new());
    let (mut docs_done, mut gold_hits) = (0usize, 0usize);
    let mut fill_batch = None;
    let mut phases = Phases::new(WARMUP, seconds);
    while let Some((k, measured)) = phases.next_op() {
        let docs = batch(seed, k);
        report.attempted += 1;
        let clocks = Clocks::start();
        let out = pipeline.classify_corpus(&docs);
        let (wall_ms, cpu_ms) = (clocks.wall_ms(), clocks.cpu_ms());
        match out {
            Ok(results) => {
                let hits = check(native, &docs, &results, report);
                if measured {
                    wall.push(wall_ms);
                    cpu.push(cpu_ms);
                    if wall.len() == RSS_AFTER {
                        report.sample("rss_mb", [peak_rss_mb()]);
                    }
                    docs_done += docs.len();
                    gold_hits += hits;
                    // Set-up is sampled across the whole run, not in
                    // one burst that a moment of host load can skew.
                    timed_setup(report, new_pipeline);
                }
            }
            Err(e) => report.fail(format!("batch {k}: {e}")),
        }
        if fill_batch.is_none() && pipeline.session_mut().cache_stats().evictions > 0 {
            fill_batch = Some(k + 1);
        }
    }
    record(report, wall, cpu, docs_done, gold_hits);
    report.sample("memo_full_batch", fill_batch.map(|k| k as f64));
}

fn record(
    report: &mut Report,
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    notes: usize,
    gold_hits: usize,
) {
    report.sample("batch_ms", wall_ms);
    report.sample("batch_cpu_ms", cpu_ms);
    report.sample("notes", [notes as f64]);
    report.sample("gold_hits", [gold_hits as f64]);
}

/// The covid pipeline's op, spelled out call by call so each layer can
/// be spanned: import, evaluate, export both queries.
struct Steps {
    status: PreparedQuery,
    evidence: PreparedQuery,
}

impl Steps {
    /// One spanned op; returns the result and the eval time.
    fn op(
        &self,
        session: &mut Session,
        docs: &[CorpusDoc],
        rec: &Recorder,
        name: &'static str,
    ) -> (Result<Vec<DocumentResult>>, f64) {
        let mut eval_ms = 0.0;
        let out = rec.span(name, || -> Result<Vec<DocumentResult>> {
            rec.span("dataframe.import", || {
                let notes = DataFrame::from_rows(
                    vec!["doc".into(), "text".into()],
                    docs.iter()
                        .map(|d| vec![Value::str(d.id.as_str()), Value::str(d.text.as_str())])
                        .collect(),
                )?;
                session.import_dataframe(&notes, "Notes")
            })?;
            rec.span("engine.eval", || {
                let t = Instant::now();
                let r = session.ensure_evaluated();
                eval_ms = ms_since(t);
                r
            })?;
            rec.span("engine.export", || {
                let status = self.status.execute(session)?;
                let evidence = self.evidence.execute(session)?;
                Ok(to_results(docs, &status, &evidence))
            })
        });
        (out, eval_ms)
    }
}

/// Folds the two exported frames into per-note results, the same shape
/// `SpannerPipeline::classify_corpus` returns.
fn to_results(docs: &[CorpusDoc], status: &DataFrame, evidence: &DataFrame) -> Vec<DocumentResult> {
    let mut by_doc = BTreeMap::new();
    for row in status.iter_rows() {
        let s =
            CovidStatus::from_name(row[1].as_str().unwrap_or("")).unwrap_or(CovidStatus::Unknown);
        by_doc.insert(row[0].as_str().unwrap_or("").to_string(), s);
    }
    let mut mentions: BTreeMap<String, Vec<(usize, usize, MentionEvidence)>> = BTreeMap::new();
    for row in evidence.iter_rows() {
        let Some(span) = row[1].as_span() else {
            continue;
        };
        let e = match row[2].as_str() {
            Some("positive") => MentionEvidence::Positive,
            Some("negated") => MentionEvidence::Negated,
            _ => MentionEvidence::Uncertain,
        };
        mentions
            .entry(row[0].as_str().unwrap_or("").to_string())
            .or_default()
            .push((span.start_usize(), span.end_usize(), e));
    }
    docs.iter()
        .map(|d| {
            let mut ms = mentions.remove(&d.id).unwrap_or_default();
            ms.sort_by_key(|&(s, e, _)| (s, e));
            DocumentResult {
                doc_id: d.id.clone(),
                status: by_doc.get(&d.id).copied().unwrap_or(CovidStatus::Unknown),
                mentions: ms,
            }
        })
        .collect()
}

/// The traced run: ops alternate between the default pipeline (measured
/// whole, for the overhead ratio) and a Summary-traced pipeline whose
/// IE functions sit behind timing wrappers and whose op is spanned
/// layer by layer.
fn traced(
    seed: u64,
    seconds: f64,
    native: &NativePipeline,
    mut plain: SpannerPipeline,
    rec: &Recorder,
    report: &mut Report,
) {
    let parse: Vec<f64> = (0..PARSE_REPS)
        .map(|_| {
            let t = Instant::now();
            spannerlog_parser::parse_program(RULES).expect("covid rules parse");
            ms_since(t)
        })
        .collect();
    report.put("parser.parse_ms", median(&parse), "ms");

    let mut pipeline = SpannerPipeline::with_tracing(TraceLevel::Summary).expect("pipeline builds");
    let session = pipeline.session_mut();
    let names = [
        ("sents", "sents"),
        ("note_sections", "note_sections"),
        ("mentions", "mentions"),
        ("assertions", "assertions"),
    ];
    let ie = wrap_ie(session, &names);
    report.put("engine.prepare_ms", compile_ms(session, "sents"), "ms");
    let program = session.prepare_program().expect("covid program compiles");
    let steps = Steps {
        status: program.query("?Status(d, s)").expect("status query"),
        evidence: program.query("?Evidence(d, m, e)").expect("evidence query"),
    };

    let mut layers = EngineLayers::default();
    let (mut plain_ms, mut traced_ms, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut docs_done, mut gold_hits) = (0usize, 0usize);
    // Each pipeline sees every other batch, so both get a full warm-up.
    let mut phases = Phases::new(2 * WARMUP, seconds);
    while let Some((k, measured)) = phases.next_op() {
        let docs = batch(seed, k);
        let traced_op = k % 2 == 1;
        report.attempted += 1;
        let clocks = Clocks::start();
        let out = if traced_op {
            let session = pipeline.session_mut();
            let before = EngineLayers::before(session, &ie);
            // Warm-up ops are spanned under another name, so the layer
            // table covers measured ops only.
            let name = if measured { "op" } else { "warmup" };
            let (out, eval_ms) = steps.op(session, &docs, rec, name);
            if measured {
                traced_ms.push(clocks.wall_ms());
            }
            if out.is_ok() && measured {
                layers.after(session, &ie, before, eval_ms);
            }
            out
        } else {
            let out = plain.classify_corpus(&docs);
            if measured {
                plain_ms.push(clocks.wall_ms());
            }
            out
        };
        if measured {
            cpu_ms.push(clocks.cpu_ms());
        }
        match out {
            Ok(results) => {
                let hits = check(native, &docs, &results, report);
                if measured {
                    docs_done += docs.len();
                    gold_hits += hits;
                }
            }
            Err(e) => report.fail(format!("batch {k}: {e}")),
        }
    }
    layers.report(report);
    crate::report_op_layers(&op_layers(&rec.spans(), "op"), report);
    report.put(
        "trace.overhead_ratio",
        median(&traced_ms) / median(&plain_ms),
        "ratio",
    );
    record(
        report,
        [plain_ms, traced_ms].concat(),
        cpu_ms,
        docs_done,
        gold_hits,
    );
}

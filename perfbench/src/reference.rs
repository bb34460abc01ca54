//! `reference`: the README's reference figures, not a benchmark
//! workload. Prints the `Json::parse` size/time table, the covid batch
//! time under the default worker pool against a serial session, the IE
//! user share of a serial batch, and the batch at which the IE memo
//! first evicts.

use crate::covid::batch;
use crate::probe::wrap_ie;
use crate::util::{median, ms_since};
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlib_serve::Json;
use spannerlog_engine::TraceLevel;
use std::time::Instant;

const BATCHES: u64 = 30;

pub fn run(seed: u64) {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host_cores {host_cores}, seed {seed}");

    println!("Json::parse of an /import body of covid notes:");
    for notes in [60, 120, 240, 480] {
        let docs = batch(seed, 0);
        let rows: Vec<Json> = docs
            .iter()
            .cycle()
            .take(notes)
            .map(|d| Json::Arr(vec![Json::str(d.id.as_str()), Json::str(d.text.as_str())]))
            .collect();
        let body = Json::Obj(vec![
            ("relation".into(), Json::str("Notes")),
            ("rows".into(), Json::Arr(rows)),
        ])
        .render();
        let times: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                Json::parse(&body).expect("body parses");
                ms_since(t)
            })
            .collect();
        println!(
            "  {notes:>4} notes {:>7.1} KB  {:>9.2} ms",
            body.len() as f64 / 1024.0,
            median(&times)
        );
    }

    let batch_ms = |workers: Option<usize>| -> (f64, Option<u64>, f64) {
        let mut p =
            SpannerPipeline::with_config(TraceLevel::Off, true, workers).expect("pipeline builds");
        let ie = wrap_ie(
            p.session_mut(),
            &[
                ("sents", "sents"),
                ("note_sections", "note_sections"),
                ("mentions", "mentions"),
                ("assertions", "assertions"),
            ],
        );
        let mut times = Vec::new();
        let mut full = None;
        for k in 0..BATCHES {
            let t = Instant::now();
            p.classify_corpus(&batch(seed, k))
                .expect("batch classifies");
            times.push(ms_since(t));
            if full.is_none() && p.session_mut().cache_stats().evictions > 0 {
                full = Some(k + 1);
            }
        }
        let user_ms: f64 =
            ie.iter().map(|(_, t)| t.ns() as f64 / 1e6).sum::<f64>() / BATCHES as f64;
        (median(&times), full, user_ms)
    };
    let (default_ms, full, _) = batch_ms(None);
    let (serial_ms, _, user_ms) = batch_ms(Some(1));
    println!(
        "covid batch of {} notes, median of {BATCHES} batches:",
        crate::covid::BATCH
    );
    println!("  default pool   {default_ms:>7.1} ms");
    println!("  parallelism(1) {serial_ms:>7.1} ms, of which IE user code {user_ms:.1} ms");
    match full {
        Some(k) => println!("IE memo first evicts after batch {k}"),
        None => println!("IE memo did not fill within {BATCHES} batches"),
    }
}

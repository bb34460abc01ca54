//! One benchmark for the embedded Spannerlog engine and `spannerd`.
//!
//! `perfbench --workload <covid_stream|xref_closure|serve_mixed>
//! --seed <n> --seconds <s> --trace <0|1> [--spans FILE]` runs one
//! workload against the library's default configuration, checks every
//! output against a computation made apart from the program, prints
//! every metric by name and unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! taken from spans and counters read around calls into each crate.

mod covid;
mod probe;
mod reference;
mod serve;
mod spans;
mod util;
mod xref;

use spans::{OpLayers, Recorder};
use util::{median, Args, Report};

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("items_per_cpu_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_ms", "ms"),
    ("engine.prepare_ms", "ms"),
    ("dataframe.import_ms", "ms"),
    ("engine.export_ms", "ms"),
    ("engine.eval_ms", "ms"),
    ("engine.eval_self_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.rule_firings", "count"),
    ("engine.tuples_derived", "count"),
    ("engine.tuples_new", "count"),
    ("engine.rows_scanned", "count"),
    ("planner.index_builds", "count"),
    ("planner.index_hits", "count"),
    ("ie.user_ms.sents", "ms"),
    ("ie.user_ms.note_sections", "ms"),
    ("ie.user_ms.mentions", "ms"),
    ("ie.user_ms.assertions", "ms"),
    ("ie.user_ms.rgx", "ms"),
    ("ie.user_calls.sents", "count"),
    ("ie.user_calls.note_sections", "count"),
    ("ie.user_calls.mentions", "count"),
    ("ie.user_calls.assertions", "count"),
    ("ie.user_calls.rgx", "count"),
    ("ie.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("regex.prefilter_searches", "count"),
    ("regex.prefilter_pruned", "count"),
    ("par.shards", "count"),
    ("par.stolen", "count"),
    ("par.serial_rules", "count"),
    ("core.doc_bytes", "bytes"),
    ("serve.import_ms", "ms"),
    ("serve.json_parse_ms", "ms"),
    ("serve.refresh_eval_ms", "ms"),
    ("serve.write_lateness_ms", "ms"),
    ("serve.read_server_us", "us"),
    ("serve.read_transport_us", "us"),
    ("serve.evaluations", "count"),
    ("serve.requests_per_eval", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_max", "ratio"),
    ("trace.sum_violations", "count"),
];

/// Largest share of an op's wall time its layer spans may leave
/// uncovered.
const LAYER_SUM_TOLERANCE: f64 = 0.05;

/// Reports each layer's per-op median wall and self time, and checks
/// that the layers of every op sum to its wall time.
fn report_op_layers(layers: &OpLayers, report: &mut Report) {
    for (name, ms) in &layers.layer_ms {
        report.put(&format!("{name}_ms"), median(ms), "ms");
        // Only layers with spans of their own nested inside differ.
        let own = median(&layers.self_ms[name]);
        if own != median(ms) {
            report.put(&format!("{name}.span_self_ms"), own, "ms");
        }
    }
    let worst = layers.unattributed.iter().copied().fold(0.0, f64::max);
    let violations = layers
        .unattributed
        .iter()
        .filter(|&&u| u > LAYER_SUM_TOLERANCE)
        .count();
    report.put("trace.unattributed_max", worst, "ratio");
    report.put("trace.sum_violations", violations as f64, "count");
    report.put("trace.ops", layers.ops as f64, "count");
    println!(
        "layer sum check: {} traced ops, {violations} leave more than {:.0}% of their wall time outside the layers (worst {:.2}%)",
        layers.ops,
        LAYER_SUM_TOLERANCE * 100.0,
        worst * 100.0
    );
}

fn run_workload(args: &Args, rec: Option<&Recorder>, report: &mut Report) {
    let run = match args.workload.as_str() {
        "covid_stream" => covid::run,
        "xref_closure" => xref::run,
        "serve_mixed" => serve::run,
        _ => unreachable!("workload names are checked in main"),
    };
    run(args.seed, args.seconds, rec, report);
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let derive = match args.workload.as_str() {
        "covid_stream" => covid::derive,
        "xref_closure" => xref::derive,
        "serve_mixed" => serve::derive,
        "reference" => return reference::run(args.seed),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let rec = args.trace.then(Recorder::default);
    let mut report = Report::default();
    run_workload(&args, rec.as_ref(), &mut report);
    derive(&mut report);
    if let (Some(rec), Some(path)) = (&rec, &args.spans) {
        if let Err(e) = rec.write(path) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            std::process::exit(1);
        }
        println!("spans written to {path}");
    }
    report.print(
        &args.workload,
        if args.trace { PER_LAYER } else { END_TO_END },
    );
}

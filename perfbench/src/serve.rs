//! `serve_mixed`: an in-process `spannerd` (default `ServeConfig`)
//! serving the covid session to two keep-alive connections.
//!
//! * Connection 1 reads in closed-loop bursts: at the start of every
//!   write period it sends [`READS_PER_WRITE`] `POST /execute`s on the
//!   prepared `?Status(d, s)` back to back, then waits for the next
//!   period (or goes straight on if the burst ran late). Every read
//!   must be a 200 whose `row_count` equals the window.
//! * Connection 2 writes in an open loop, one write every
//!   [`PERIOD_MS`]: it `POST /import`s a sliding window of notes (a few
//!   new, most already seen), then `/execute`s until it reads the new
//!   snapshot. A write is timed from the moment it was due; the first
//!   read after it must carry a new fingerprint and the native
//!   classification of the window.
//!
//! Both connections do a fixed amount of work per period, so every run
//! serves the same mix of reads and writes. With a reader that never
//! paused, the share of cheap reads in the process's CPU time rose and
//! fell with how much CPU the host left the reader, and reads per CPU
//! second spread by up to 40% across runs of the same code.
//!
//! The HTTP client below is the benchmark's own (one request per
//! write, `Content-Length` framing), so client-side cost does not move
//! with the program's code.

use crate::spans::{op_layers, spanned, Recorder};
use crate::util::{median, mix, ms_since, peak_rss_mb, quantile, timed_setup, Clocks, Report};
use spannerlib_covid::classify::CovidStatus;
use spannerlib_covid::corpus::generate_corpus;
use spannerlib_covid::native::NativePipeline;
use spannerlib_covid::spanner::SpannerPipeline;
use spannerlib_serve::{Json, ServeConfig, Server, ServerHandle};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// New notes per write.
pub const CHUNK: usize = 12;
/// Chunks in the served window (the window holds `CHUNK * CHUNKS` notes).
pub const CHUNKS: usize = 20;
pub const WINDOW: usize = CHUNK * CHUNKS;
/// The writer's fixed schedule.
pub const PERIOD_MS: u64 = 500;
/// Reads in each period's burst: about 160 ms of CPU against ~300 ms
/// for the write, so the two fit on two cores with room to spare.
pub const READS_PER_WRITE: usize = 400;
/// Boots timed for `setup_s`: before the run (the last one serves it)
/// and after it, so one moment of host load cannot skew the median.
const BOOTS_BEFORE: usize = 3;
const BOOTS_AFTER: usize = 2;
const READ_BODY: &str = r#"{"prepared":"status"}"#;

/// A keep-alive HTTP/1.1 connection.
struct Conn {
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request and reads the response: `(status, body)`.
    fn send(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        req.push_str(body);
        self.reader.get_mut().write_all(req.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("status line {line:?}"))
            })?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut buf = vec![0; len];
        self.reader.read_exact(&mut buf)?;
        Ok((status, String::from_utf8_lossy(&buf).into_owned()))
    }
}

/// A note of the stream with its native classification.
struct Note {
    id: String,
    text: String,
    status: CovidStatus,
}

/// Chunk `j` of the note stream: fresh notes, ids unique in the run.
fn chunk(seed: u64, j: u64, native: &NativePipeline) -> Vec<Note> {
    generate_corpus(CHUNK, mix(seed, 0x7365_7276 ^ j))
        .into_iter()
        .map(|mut d| {
            d.id = format!("c{j}_{}", d.id);
            d.text = format!("{} Stream marker c{j} filed.", d.text);
            let status = native.classify_document(&d.id, &d.text).status;
            Note {
                id: d.id,
                text: d.text,
                status,
            }
        })
        .collect()
}

/// The window served after write `k`: chunks `k..k + CHUNKS`.
fn window(chunks: &[Vec<Note>], k: usize) -> Vec<&Note> {
    chunks[k..k + CHUNKS].iter().flatten().collect()
}

fn escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn import_body(window: &[&Note]) -> String {
    let mut out = String::from(r#"{"relation":"Notes","rows":["#);
    for (i, n) in window.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        escape(&mut out, &n.id);
        out.push(',');
        escape(&mut out, &n.text);
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// The integer after `"key":` in a compact JSON body.
fn int_field(body: &str, key: &str) -> Option<i64> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The string after `"key":` in a compact JSON body.
fn str_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":\""))? + key.len() + 4;
    body[at..].split('"').next()
}

/// The `(doc, status)` pairs of an `/execute` body's `rows`.
fn status_rows(body: &str) -> Option<Vec<(String, String)>> {
    let start = body.find("\"rows\":[")? + 8;
    let mut strings = Vec::new();
    let mut chars = body[start..].chars();
    let mut depth = 1;
    while depth > 0 {
        match chars.next()? {
            '[' => depth += 1,
            ']' => depth -= 1,
            '"' => {
                let mut s = String::new();
                loop {
                    match chars.next()? {
                        '"' => break,
                        '\\' => s.push(chars.next()?),
                        c => s.push(c),
                    }
                }
                strings.push(s);
            }
            _ => {}
        }
    }
    let mut it = strings.into_iter();
    let mut rows = Vec::new();
    while let (Some(d), Some(s)) = (it.next(), it.next()) {
        rows.push((d, s));
    }
    Some(rows)
}

/// One booted server with its first window imported and evaluated.
struct Booted {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    addr: SocketAddr,
    writer: Conn,
    fingerprint: String,
}

fn boot(body: &str) -> Booted {
    let session = SpannerPipeline::new()
        .expect("pipeline builds")
        .into_session();
    let server = Server::bind(session, ServeConfig::default()).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.serve().expect("server runs"));
    let mut writer = Conn::connect(addr).expect("connect");
    let ok = |r: io::Result<(u16, String)>, what: &str| -> String {
        match r {
            Ok((200, body)) => body,
            other => panic!("set-up {what} failed: {other:?}"),
        }
    };
    ok(writer.send("POST", "/import", body), "import");
    ok(
        writer.send(
            "POST",
            "/prepare",
            r#"{"name":"status","query":"?Status(d, s)"}"#,
        ),
        "prepare",
    );
    let first = ok(writer.send("POST", "/execute", READ_BODY), "execute");
    assert_eq!(
        int_field(&first, "row_count"),
        Some(WINDOW as i64),
        "first window served"
    );
    Booted {
        handle,
        thread,
        addr,
        writer,
        fingerprint: str_field(&first, "fingerprint").unwrap_or("").to_string(),
    }
}

fn shutdown(b: Booted) {
    drop(b.writer);
    b.handle.shutdown();
    b.thread.join().expect("server thread");
}

/// Reader results: client latencies (µs), the reads per second of
/// each burst, and failures.
struct Reads {
    lat_us: Vec<f64>,
    burst_qps: Vec<f64>,
    failed: u64,
    wrong: Option<String>,
}

/// Runs `bursts` bursts of [`READS_PER_WRITE`] reads, burst `k` due at
/// `t0 + k * period`.
fn reader(addr: SocketAddr, t0: Instant, period: Duration, bursts: u32) -> Reads {
    let mut conn = Conn::connect(addr).expect("reader connects");
    let mut out = Reads {
        lat_us: Vec::with_capacity(bursts as usize * READS_PER_WRITE),
        burst_qps: Vec::with_capacity(bursts as usize),
        failed: 0,
        wrong: None,
    };
    for k in 0..bursts {
        if let Some(wait) = (t0 + period * k).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let burst = Instant::now();
        for _ in 0..READS_PER_WRITE {
            let t = Instant::now();
            let r = conn.send("POST", "/execute", READ_BODY);
            let us = t.elapsed().as_secs_f64() * 1e6;
            match r {
                Ok((200, body)) => {
                    out.lat_us.push(us);
                    if int_field(&body, "row_count") != Some(WINDOW as i64) && out.wrong.is_none() {
                        out.wrong = Some(format!(
                            "read row_count {:?}",
                            int_field(&body, "row_count")
                        ));
                    }
                }
                _ => out.failed += 1,
            }
        }
        out.burst_qps
            .push(READS_PER_WRITE as f64 / burst.elapsed().as_secs_f64());
    }
    out
}

/// Counters scraped from `/metrics` and `/profile`.
#[derive(Clone, Copy, Default, Debug)]
struct Scrape {
    exec_ns_sum: f64,
    exec_count: f64,
    eval_ns_sum: f64,
    evals: f64,
    coalesced: f64,
    hits: f64,
    misses: f64,
    bytes: f64,
}

fn scrape(conn: &mut Conn) -> Scrape {
    let (_, metrics) = conn.send("GET", "/metrics", "").expect("scrape /metrics");
    let mut s = Scrape::default();
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let v: f64 = value.parse().unwrap_or(0.0);
        let execute = name.contains("route=\"/execute\"");
        match name.split('{').next().unwrap_or("") {
            "http_request_duration_ns_sum" if execute => s.exec_ns_sum += v,
            "http_request_duration_ns_count" if execute => s.exec_count += v,
            "eval_duration_ns_sum" => s.eval_ns_sum += v,
            "evals_total" => s.evals += v,
            "execute_coalesced" => s.coalesced += v,
            "ie_cache_bytes" => s.bytes = v,
            _ => {}
        }
    }
    let (_, profile) = conn.send("GET", "/profile", "").expect("scrape /profile");
    if let Some(cache) = profile.find("\"cache\":").map(|at| &profile[at..]) {
        s.hits = int_field(cache, "hits").unwrap_or(0) as f64;
        s.misses = int_field(cache, "misses").unwrap_or(0) as f64;
    }
    s
}

pub fn run(seed: u64, seconds: f64, trace: Option<&Recorder>, report: &mut Report) {
    let native = NativePipeline::new();
    let mut chunks: Vec<Vec<Note>> = (0..CHUNKS as u64)
        .map(|j| chunk(seed, j, &native))
        .collect();
    let body0 = import_body(&window(&chunks, 0));

    for _ in 1..BOOTS_BEFORE {
        shutdown(timed_setup(report, || boot(&body0)));
    }
    let booted = timed_setup(report, || boot(&body0));
    let Booted {
        handle,
        thread,
        addr,
        mut writer,
        mut fingerprint,
    } = booted;

    let first_scrape = trace.map(|_| scrape(&mut writer));
    let period = Duration::from_millis(PERIOD_MS);
    let writes = ((seconds * 1000.0) as u64 / PERIOD_MS).max(1);
    let run_clocks = Clocks::start();
    let t0 = Instant::now();
    let reads = std::thread::spawn(move || reader(addr, t0, period, writes as u32));
    let (mut refresh_ms, mut import_ms, mut lateness_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_refresh, mut traced_refresh, mut parse_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut writer_exec_ms, mut writer_execs) = (0.0, 0u64);
    for k in 1..=writes as usize {
        chunks.push(chunk(seed, (k + CHUNKS - 1) as u64, &native));
        let win = window(&chunks, k);
        let body = import_body(&win);
        let want: HashMap<&str, &str> = win
            .iter()
            .map(|n| (n.id.as_str(), n.status.name()))
            .collect();
        let due = t0 + period * k as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let traced_op = trace.is_some() && k % 2 == 0;
        report.attempted += 1;
        let begin = Instant::now();
        lateness_ms.push((begin - due).as_secs_f64() * 1e3);
        let rec = trace.filter(|_| traced_op);
        let out = spanned(rec, "op", || -> Result<String, String> {
            // The two layers of a write: the import round trip, then the
            // reads until the new snapshot shows.
            let t = Instant::now();
            let r = spanned(rec, "serve.import", || {
                writer.send("POST", "/import", &body)
            });
            import_ms.push(ms_since(t));
            match r {
                Ok((200, _)) => {}
                other => return Err(format!("import: {other:?}")),
            }
            spanned(rec, "serve.refresh", || {
                // A stale read cannot be served once the import is
                // acknowledged, so one poll normally suffices.
                for _ in 0..1000 {
                    let t = Instant::now();
                    let r = writer.send("POST", "/execute", READ_BODY);
                    writer_exec_ms += ms_since(t);
                    writer_execs += 1;
                    match r {
                        Ok((200, read))
                            if str_field(&read, "fingerprint") != Some(&fingerprint) =>
                        {
                            return Ok(read)
                        }
                        Ok((200, _)) => {}
                        other => return Err(format!("execute: {other:?}")),
                    }
                }
                Err("the import never became visible".into())
            })
        });
        let done = ms_since(due);
        match out {
            Ok(read) => {
                refresh_ms.push(done);
                if traced_op {
                    traced_refresh.push(done)
                } else {
                    plain_refresh.push(done)
                }
                fingerprint = str_field(&read, "fingerprint").unwrap_or("").to_string();
                match status_rows(&read) {
                    Some(rows)
                        if rows.len() == want.len()
                            && rows
                                .iter()
                                .all(|(d, s)| want.get(d.as_str()) == Some(&s.as_str())) => {}
                    rows => report.wrong(format!(
                        "write {k}: statuses differ from the native classification ({} rows)",
                        rows.map_or(0, |r| r.len())
                    )),
                }
            }
            Err(e) => report.fail(format!("write {k}: {e}")),
        }
        if let Some(rec) = rec {
            rec.record("serve.lateness", None, due, begin);
            let t = Instant::now();
            Json::parse(&body).expect("import body parses");
            parse_ms.push(ms_since(t));
        }
    }
    let reads = reads.join().expect("reader thread");
    report.sample("run_cpu_s", [run_clocks.cpu_ms() / 1e3]);
    let last_scrape = trace.map(|_| scrape(&mut writer));
    drop(writer);
    handle.shutdown();
    thread.join().expect("server thread");
    // The high-water mark is read before the extra boots below.
    report.sample("rss_mb", [peak_rss_mb()]);
    for _ in 0..BOOTS_AFTER {
        shutdown(timed_setup(report, || boot(&body0)));
    }

    report.attempted += reads.lat_us.len() as u64 + reads.failed;
    for _ in 0..reads.failed {
        report.fail("a read did not return 200".into());
    }
    if let Some(e) = reads.wrong {
        report.wrong(e);
    }
    report.sample("refresh_ms", refresh_ms.iter().copied());
    report.sample(
        "read_us",
        reads.lat_us.iter().map(|us| (us * 10.0).round() / 10.0),
    );
    report.sample("burst_qps", reads.burst_qps.iter().copied());

    if let (Some(rec), Some(a), Some(b)) = (trace, first_scrape, last_scrape) {
        let n = refresh_ms.len().max(1) as f64;
        report.put("serve.import_ms", median(&import_ms), "ms");
        report.put("serve.json_parse_ms", median(&parse_ms), "ms");
        report.put("serve.write_lateness_ms", median(&lateness_ms), "ms");
        let evals = b.evals - a.evals;
        report.put(
            "serve.refresh_eval_ms",
            (b.eval_ns_sum - a.eval_ns_sum) / evals.max(1.0) / 1e6,
            "ms",
        );
        report.put("serve.evaluations", evals / n, "count");
        report.put(
            "serve.requests_per_eval",
            (evals + b.coalesced - a.coalesced) / evals.max(1.0),
            "ratio",
        );
        // Server-side /execute time of the reader alone: the writer's
        // few polls (timed client-side) are taken out of the sums.
        let server_reads = (b.exec_count - a.exec_count) - writer_execs as f64;
        let server_us =
            ((b.exec_ns_sum - a.exec_ns_sum) / 1e3 - writer_exec_ms * 1e3) / server_reads.max(1.0);
        let client_us = reads.lat_us.iter().sum::<f64>() / reads.lat_us.len().max(1) as f64;
        report.put("serve.read_server_us", server_us, "us");
        report.put("serve.read_transport_us", client_us - server_us, "us");
        report.put("cache.hits", (b.hits - a.hits) / n, "count");
        report.put("cache.misses", (b.misses - a.misses) / n, "count");
        report.put("cache.bytes", b.bytes, "bytes");
        report.put(
            "trace.overhead_ratio",
            median(&traced_refresh) / median(&plain_refresh),
            "ratio",
        );
        crate::report_op_layers(&op_layers(&rec.spans(), "op"), report);
    }
}

/// Derives the workload's metrics from its recorded series.
pub fn derive(report: &mut Report) {
    report.derive_common("read_us", 1e-3);
    let reads = report.series("read_us").to_vec();
    // Whole-process CPU over a fixed mix of work: server threads, the
    // reader and the writer, with each write's parse and evaluation
    // spread over its period's reads.
    let reads_per_cpu_s = reads.len() as f64 / report.sum("run_cpu_s");
    report.put("items_per_cpu_s", reads_per_cpu_s, "1/s");
    // Closed-loop read throughput inside the bursts, median over bursts.
    report.put("read_qps", median(report.series("burst_qps")), "1/s");
    report.put("read_p50_us", median(&reads), "us");
    report.put("read_p99_us", quantile(&reads, 0.99), "us");
    report.put("reads", reads.len() as f64, "count");
    // Sixty writes in a 30 s run leave twelve samples beyond p80.
    let refresh = report.series("refresh_ms").to_vec();
    report.put("refresh_p50_ms", median(&refresh), "ms");
    report.put("refresh_p80_ms", quantile(&refresh, 0.8), "ms");
}

//! The traced run's span recorder. Spans are taken in the benchmark's
//! own code around calls into the library crates (nothing inside the
//! program is instrumented), kept in memory, and written out as JSON
//! lines when the run ends.
//!
//! A span records its name, start and end (nanoseconds since the
//! recorder was made), its parent span and the thread it ran on. An
//! op's layers are the direct children of its `op` span; a layer's self
//! time is its duration minus the part its own children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    done: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            done: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Runs `f` inside a span named `name`, child of this thread's
    /// innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| s.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.done.lock().expect("span list").push(span);
        out
    }

    /// Records an already-timed span (used where the interval starts
    /// before the code that closes it, e.g. an open-loop deadline).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.done.lock().expect("span list").push(Span {
            id,
            parent,
            name,
            thread: THREAD.with(|t| *t),
            start_ns: at(start),
            end_ns: at(end),
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.done.lock().expect("span list").clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when a recorder is given, bare otherwise.
pub fn spanned<R>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.span(name, f),
        None => f(),
    }
}

/// Per-op layer breakdown of every span named `op_name`: for each op,
/// the wall time of each direct child layer (summed by name) and the
/// share of the op's wall time the layers leave uncovered.
pub struct OpLayers {
    pub ops: usize,
    /// Layer name → per-op milliseconds (one entry per op, 0 if absent).
    pub layer_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per-op self time of each layer (its time minus its children's).
    pub self_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per-op `(op wall - sum of layers) / op wall`.
    pub unattributed: Vec<f64>,
}

pub fn op_layers(spans: &[Span], op_name: &str) -> OpLayers {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let covered = |id: u32| -> u64 {
        children
            .get(&id)
            .map_or(0, |c| c.iter().map(|s| s.end_ns - s.start_ns).sum())
    };
    let ops: Vec<&Span> = spans.iter().filter(|s| s.name == op_name).collect();
    let mut names: Vec<&'static str> = Vec::new();
    for op in &ops {
        for c in children.get(&op.id).into_iter().flatten() {
            if !names.contains(&c.name) {
                names.push(c.name);
            }
        }
    }
    let mut out = OpLayers {
        ops: ops.len(),
        layer_ms: names.iter().map(|n| (*n, Vec::new())).collect(),
        self_ms: names.iter().map(|n| (*n, Vec::new())).collect(),
        unattributed: Vec::new(),
    };
    for op in &ops {
        let kids = children.get(&op.id).cloned().unwrap_or_default();
        for name in &names {
            let (mut wall, mut own) = (0u64, 0u64);
            for k in kids.iter().filter(|k| k.name == *name) {
                let d = k.end_ns - k.start_ns;
                wall += d;
                own += d.saturating_sub(covered(k.id));
            }
            out.layer_ms.get_mut(name).unwrap().push(wall as f64 / 1e6);
            out.self_ms.get_mut(name).unwrap().push(own as f64 / 1e6);
        }
        let wall = op.end_ns - op.start_ns;
        out.unattributed
            .push(wall.saturating_sub(covered(op.id)) as f64 / wall.max(1) as f64);
    }
    out
}

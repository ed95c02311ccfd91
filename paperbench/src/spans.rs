//! The benchmark's own span log: one record per call into a layer's
//! public API, kept in memory and written out when the run ends.
//! Only the traced run records; the end-to-end run times with plain
//! clocks and never touches this log.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Record {
    id: u64,
    parent: u64,
    name: String,
    start_us: f64,
    end_us: f64,
}

/// An in-memory span log.
pub struct Spans {
    t0: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<Record>>,
}

/// An open span; records itself when dropped.
pub struct Span<'a> {
    log: &'a Spans,
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
}

impl Span<'_> {
    /// This span's id, to open child spans under it.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let log = self.log;
        let rec = Record {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            start_us: (self.start - log.t0).as_secs_f64() * 1e6,
            end_us: (end - log.t0).as_secs_f64() * 1e6,
        };
        if let Ok(mut records) = log.records.lock() {
            records.push(rec);
        }
    }
}

impl Spans {
    /// An empty log.
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Open a span named `name` under `parent` (0 for a root).
    pub fn open(&self, name: impl Into<String>, parent: u64) -> Span<'_> {
        Span {
            log: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.into(),
            start: Instant::now(),
        }
    }

    /// Durations in milliseconds of every closed span, by name.
    pub fn durations_ms(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in self.records.lock().expect("span log poisoned").iter() {
            out.entry(r.name.clone())
                .or_default()
                .push((r.end_us - r.start_us) / 1e3);
        }
        out
    }

    /// Write every span as tab-separated `id parent name start_us end_us`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tparent\tname\tstart_us\tend_us")?;
        for r in self.records.lock().expect("span log poisoned").iter() {
            writeln!(
                f,
                "{}\t{}\t{}\t{:.1}\t{:.1}",
                r.id, r.parent, r.name, r.start_us, r.end_us
            )?;
        }
        f.flush()
    }
}

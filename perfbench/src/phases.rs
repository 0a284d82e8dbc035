//! The building blocks the workloads are made of: a durable-ingest writer,
//! the reopen probe, the per-request layer measurements of the query path,
//! and the storage-layer probes. Every layer is timed from here, around
//! calls into its public functions.

use crate::check::Cells;
use crate::client::Sample;
use crate::inputs::{Corpus, Query};
use crate::stats;
use crate::trace::Tracer;
use dslog::api::Dslog;
use dslog::interval::Interval;
use dslog::provrc::{self, CompressJob};
use dslog::service::{DslogService, IngestJob};
use dslog::storage::{format, persist, wal};
use dslog::table::{Orientation, TableIndex};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Operation counts and the first few failures of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers and unclean verifies: the run is not correct.
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.fail(what);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for n in other.notes {
            if self.notes.len() < 20 {
                self.notes.push(n);
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- writer

/// How a writer paces and commits.
pub struct WriterPlan {
    /// Commit after this many batches (count-triggered, never a timer).
    pub commit_every: usize,
    /// Start batch `i` no earlier than `i * pace` after the writer starts.
    pub pace: Option<Duration>,
    /// Stop starting batches after this instant.
    pub deadline: Option<Instant>,
    pub max_batches: usize,
}

#[derive(Default)]
pub struct WriterOut {
    /// Lineage rows made durable by a successful commit.
    pub rows_durable: u64,
    /// Writer wall time in `ingest_batch` and `commit`, in seconds.
    pub busy_s: f64,
    pub ingest_ms: Vec<f64>,
    pub commit_ms: Vec<f64>,
    pub bytes_written: Vec<f64>,
    pub files_written: Vec<f64>,
    pub files_reused: Vec<f64>,
    pub epochs_published: u64,
    pub failed_commits: u64,
    pub log_bytes_grown: u64,
    pub layers: WriteLayers,
    pub tally: Tally,
}

/// Traced-run measurements of the write path's layers, taken on the same
/// jobs `ingest_batch` received, on in-memory bytes.
#[derive(Default)]
pub struct WriteLayers {
    pub compress_ms: f64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes: u64,
    pub serialize_ms: f64,
    pub crc_ms: f64,
    pub deserialize_ms: f64,
    /// Per commit: its time minus the serialize + crc32 time of its tables.
    pub commit_unattributed_ms: Vec<f64>,
}

impl WriterOut {
    /// Fold another writer phase of the same run into this one.
    pub fn absorb(&mut self, o: WriterOut) {
        self.rows_durable += o.rows_durable;
        self.busy_s += o.busy_s;
        self.ingest_ms.extend(o.ingest_ms);
        self.commit_ms.extend(o.commit_ms);
        self.bytes_written.extend(o.bytes_written);
        self.files_written.extend(o.files_written);
        self.files_reused.extend(o.files_reused);
        self.epochs_published += o.epochs_published;
        self.failed_commits += o.failed_commits;
        self.log_bytes_grown += o.log_bytes_grown;
        let (l, m) = (&mut self.layers, o.layers);
        l.compress_ms += m.compress_ms;
        l.rows_in += m.rows_in;
        l.rows_out += m.rows_out;
        l.bytes += m.bytes;
        l.serialize_ms += m.serialize_ms;
        l.crc_ms += m.crc_ms;
        l.deserialize_ms += m.deserialize_ms;
        l.commit_unattributed_ms.extend(m.commit_unattributed_ms);
        self.tally.merge(o.tally);
    }
}

fn log_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(wal::OPS_LOG_FILE)).map_or(0, |m| m.len())
}

/// Compress, serialize, checksum and decode `batch` outside the service,
/// as `ingest_batch` and `commit` will; returns serialize + crc32 ms.
fn probe_write_layers(
    batch: &Corpus,
    opts: provrc::CompressOptions,
    layers: &mut WriteLayers,
    tracer: &Tracer,
    req: u64,
) -> f64 {
    let jobs: Vec<CompressJob<'_>> = batch
        .edges
        .iter()
        .map(|e| {
            (
                &e.lineage,
                batch.shape(&e.out_array),
                batch.shape(&e.in_array),
            )
        })
        .collect();
    let t = Instant::now();
    let tables = provrc::compress_batch_parallel_opts(&jobs, Orientation::Backward, opts);
    layers.compress_ms += ms(t.elapsed());
    tracer.finish("provrc.compress", None, req, t);
    layers.rows_in += batch.rows() as u64;
    let mut ser_crc = 0.0;
    for table in &tables {
        layers.rows_out += table.n_rows() as u64;
        let t = Instant::now();
        let bytes = std::hint::black_box(format::serialize(table));
        let d = ms(t.elapsed());
        tracer.finish("format.serialize", None, req, t);
        let t = Instant::now();
        std::hint::black_box(dslog_codecs::crc32::crc32(&bytes));
        let c = ms(t.elapsed());
        tracer.finish("codecs.crc32", None, req, t);
        let t = Instant::now();
        let decoded = format::deserialize(&bytes);
        layers.deserialize_ms += ms(t.elapsed());
        tracer.finish("format.deserialize", None, req, t);
        std::hint::black_box(decoded.is_ok());
        layers.serialize_ms += d;
        layers.crc_ms += c;
        layers.bytes += bytes.len() as u64;
        ser_crc += d + c;
    }
    ser_crc
}

/// Ingest `next(i)` batches through `DslogService::ingest_batch`,
/// committing every `plan.commit_every` batches and once more at the end
/// if anything is pending.
pub fn run_writer(
    service: &DslogService,
    dir: &Path,
    next: &mut dyn FnMut(usize) -> Option<Corpus>,
    plan: &WriterPlan,
    tracer: &Tracer,
) -> WriterOut {
    let mut out = WriterOut::default();
    let opts = service.with_db(Dslog::compress_options);
    let epoch0 = service.stats().epoch;
    let failed0 = service.stats().failed_commits;
    let log0 = log_len(dir);
    let begin = Instant::now();
    let mut pending = Pending::default();
    let mut i = 0usize;
    loop {
        let last = i >= plan.max_batches || plan.deadline.is_some_and(|d| Instant::now() >= d);
        let batch = if last { None } else { next(i) };
        let Some(batch) = batch else {
            if pending.batches > 0 {
                commit(service, &mut out, &mut pending, tracer, None, i as u64);
            }
            break;
        };
        if let Some(pace) = plan.pace {
            let due = begin + pace * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let req = i as u64;
        if tracer.on() {
            pending.ser_crc_ms += probe_write_layers(&batch, opts, &mut out.layers, tracer, req);
        }
        let t_batch = Instant::now();
        let batch_id = tracer.record("writer.batch", None, req, 0, 0);
        let mut defined = true;
        for (name, shape) in &batch.arrays {
            if let Err(e) = service.define_array(name, shape) {
                out.tally.fail(format!("define {name}: {e}"));
                defined = false;
            }
        }
        let rows = batch.rows() as u64;
        let jobs: Vec<IngestJob> = batch
            .edges
            .into_iter()
            .map(|e| IngestJob::new(e.in_array, e.out_array, e.lineage))
            .collect();
        if defined {
            let t = Instant::now();
            let r = service.ingest_batch(jobs);
            let d = t.elapsed();
            tracer.finish("service.ingest_batch", Some(batch_id), req, t);
            match r {
                Ok(_) => {
                    out.tally.ok();
                    out.ingest_ms.push(ms(d));
                    out.busy_s += d.as_secs_f64();
                    pending.rows += rows;
                    pending.batches += 1;
                }
                Err(e) => out.tally.fail(format!("ingest_batch {i}: {e}")),
            }
        }
        if pending.batches >= plan.commit_every {
            commit(service, &mut out, &mut pending, tracer, Some(batch_id), req);
        }
        close_span(tracer, batch_id, t_batch);
        i += 1;
    }
    out.epochs_published = service.stats().epoch - epoch0;
    out.failed_commits = service.stats().failed_commits - failed0;
    out.log_bytes_grown = log_len(dir).saturating_sub(log0);
    out
}

/// Give a span recorded up front (so children can name it) its interval.
fn close_span(tracer: &Tracer, id: u64, start: Instant) {
    let (s, e) = (tracer.ns(start), tracer.ns(Instant::now()));
    tracer.set_interval(id, s, e);
}

/// Batches ingested since the last commit.
#[derive(Default)]
struct Pending {
    batches: usize,
    rows: u64,
    /// Serialize + crc32 time of their tables (traced runs).
    ser_crc_ms: f64,
}

/// Commit the pending batches; on success their rows become durable.
fn commit(
    service: &DslogService,
    out: &mut WriterOut,
    pending: &mut Pending,
    tracer: &Tracer,
    parent: Option<u64>,
    req: u64,
) {
    let t = Instant::now();
    let r = service.commit();
    let d = t.elapsed();
    tracer.finish("service.commit", parent, req, t);
    match r {
        Ok(report) => {
            out.tally.ok();
            out.commit_ms.push(ms(d));
            out.busy_s += d.as_secs_f64();
            out.bytes_written.push(report.bytes_written as f64);
            out.files_written.push(report.files_written as f64);
            out.files_reused.push(report.files_reused as f64);
            out.rows_durable += pending.rows;
            if tracer.on() {
                out.layers
                    .commit_unattributed_ms
                    .push(ms(d) - pending.ser_crc_ms);
            }
        }
        Err(e) => out.tally.fail(format!("commit: {e}")),
    }
    *pending = Pending::default();
}

// ---------------------------------------------------------------- reopen

#[derive(Default)]
pub struct ReopenOut {
    pub eager_ms: Vec<f64>,
    pub lazy_ms: Vec<f64>,
    /// Eager opens only: the first query after the open.
    pub first_query_ms: Vec<f64>,
    pub tally: Tally,
}

/// Open `dir` (eagerly, or lazily), answer `first`, and check the answer
/// against `want`; `extra` queries are answered and checked afterwards,
/// untimed. Returns the open database.
#[allow(clippy::too_many_arguments)]
pub fn reopen(
    dir: &Path,
    lazy: bool,
    first: &Query,
    want: &Cells,
    extra: &[(&Query, &Cells)],
    req: u64,
    tracer: &Tracer,
    out: &mut ReopenOut,
) -> Option<Dslog> {
    let t = Instant::now();
    let root = tracer.record("open.reopen", None, req, 0, 0);
    let db = Dslog::options().lazy(lazy).open(dir);
    tracer.finish("open.open", Some(root), req, t);
    let db = match db {
        Ok(db) => db,
        Err(e) => {
            out.tally.fail(format!("open (lazy={lazy}): {e}"));
            return None;
        }
    };
    let tq = Instant::now();
    let r = db.prov_query(&first.path_refs(), &first.cells);
    let (total, query) = (t.elapsed(), tq.elapsed());
    tracer.finish("open.first_query", Some(root), req, tq);
    close_span(tracer, root, t);
    match r {
        Ok(r) if r.cells.cell_set() == *want => {
            out.tally.ok();
            if lazy {
                out.lazy_ms.push(ms(total));
            } else {
                out.eager_ms.push(ms(total));
                out.first_query_ms.push(ms(query));
            }
        }
        Ok(_) => out
            .tally
            .wrong(format!("wrong first answer after reopen (lazy={lazy})")),
        Err(e) => out.tally.fail(format!("first query after reopen: {e}")),
    }
    for (q, want) in extra {
        match db.prov_query(&q.path_refs(), &q.cells) {
            Ok(r) if r.cells.cell_set() == **want => out.tally.ok(),
            Ok(_) => out.tally.wrong("wrong answer after reopen".to_string()),
            Err(e) => out.tally.fail(format!("query after reopen: {e}")),
        }
    }
    Some(db)
}

// ------------------------------------------------------- storage layers

/// Files and total bytes of a database directory.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(m) = e.metadata() {
                if m.is_file() {
                    files += 1;
                    bytes += m.len();
                }
            }
        }
    }
    (files, bytes)
}

/// `persist::verify` must succeed and find no stale files.
pub fn verify_clean(dir: &Path, tally: &mut Tally) {
    match persist::verify(dir) {
        Ok(r) if r.stale_files.is_empty() => tally.ok(),
        Ok(r) => tally.wrong(format!("verify: stale files {:?}", r.stale_files)),
        Err(e) => tally.wrong(format!("verify: {e}")),
    }
}

/// Storage-only open, log read and replay, and index builds over the
/// stored tables of `corpus`'s edges.
pub fn storage_layers(dir: &Path, corpus: &Corpus, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let t = Instant::now();
    let storage = persist::open(dir);
    m.insert("persist.open_ms", ms(t.elapsed()));
    tracer.finish("persist.open", None, 0, t);
    let t = Instant::now();
    let records = wal::history(dir).unwrap_or_default();
    m.insert("wal.history_ms", ms(t.elapsed()));
    tracer.finish("wal.history", None, 0, t);
    let t = Instant::now();
    std::hint::black_box(wal::replay(&records));
    m.insert("wal.replay_ms", ms(t.elapsed()));
    tracer.finish("wal.replay", None, 0, t);
    let (files, _) = dir_usage(dir);
    m.insert("persist.dir_files", files as f64);
    let (mut build_ms, mut rows) = (0.0, 0usize);
    if let Ok(storage) = storage {
        for e in &corpus.edges {
            let Ok(table) = storage.stored_table(&e.in_array, &e.out_array, Orientation::Backward)
            else {
                continue;
            };
            let t = Instant::now();
            std::hint::black_box(TableIndex::build(&table));
            build_ms += ms(t.elapsed());
            tracer.finish("index.build", None, 0, t);
            rows += table.n_rows();
        }
    }
    m.insert(
        "index.build_ms_per_mrow",
        build_ms / (rows.max(1) as f64 / 1e6),
    );
    m
}

// ---------------------------------------------------------- query layers

/// Per-request layer measurements of the traced query path.
#[derive(Default)]
pub struct QueryLayers {
    pub overhead_us: Vec<f64>,
    pub response_bytes: Vec<f64>,
    pub service_us: Vec<f64>,
    pub plan_other_us: Vec<f64>,
    pub plans: BTreeMap<&'static str, u64>,
    pub hop_wall_us: Vec<f64>,
    pub rows_probed: u64,
    pub rows_matched: u64,
    pub boxes_emitted: Vec<f64>,
    pub hops: u64,
    pub parallel_hops: u64,
    pub probe_ns: Vec<f64>,
    /// In-process re-runs that failed (each also fails the run).
    pub errors: u64,
}

/// After a TCP answer: re-run the same request in process through
/// `DslogService::query`, and time `TableIndex::probe` on its query boxes.
/// The in-process query is recorded as a child of the round trip laid
/// out from its start, so the round trip's self time is the net overhead.
pub fn trace_request(
    service: &DslogService,
    q: &Query,
    answer: &Sample,
    req: u64,
    tracer: &Tracer,
    layers: &Mutex<QueryLayers>,
) {
    let (sent, rtt) = (answer.sent, Duration::from_secs_f64(answer.rtt_s));
    let path = q.path_refs();
    let t = Instant::now();
    let r = service.query(&path, &q.cells);
    let svc = t.elapsed();
    let s0 = tracer.ns(sent);
    let rt = tracer.record("net.roundtrip", None, req, s0, s0 + rtt.as_nanos() as u64);
    let sq = tracer.record(
        "service.query",
        Some(rt),
        req,
        s0,
        s0 + svc.as_nanos() as u64,
    );
    let tp = Instant::now();
    let probe_ns = probe_first_hop(service, q);
    tracer.finish("index.probe", None, req, tp);
    let mut l = layers.lock().expect("layer buffer poisoned");
    let Ok(r) = r else {
        l.errors += 1;
        return;
    };
    let mut off = s0;
    let mut hop_sum = Duration::ZERO;
    for h in &r.stats.hops {
        let d = h.wall.as_nanos() as u64;
        tracer.record("exec.hop", Some(sq), req, off, off + d);
        off += d;
        hop_sum += h.wall;
        l.hop_wall_us.push(h.wall.as_secs_f64() * 1e6);
        l.rows_probed += h.rows_probed as u64;
        l.rows_matched += h.rows_matched as u64;
        l.hops += 1;
        l.parallel_hops += u64::from(h.threads > 1);
    }
    let label = r.stats.plan.as_ref().map_or("off", |p| p.decision.label());
    *l.plans.entry(label).or_default() += 1;
    l.boxes_emitted
        .push(r.stats.hops.iter().map(|h| h.boxes_emitted).sum::<usize>() as f64);
    l.service_us.push(svc.as_secs_f64() * 1e6);
    l.overhead_us
        .push((rtt.as_secs_f64() - svc.as_secs_f64()) * 1e6);
    l.plan_other_us
        .push(svc.saturating_sub(hop_sum).as_secs_f64() * 1e6);
    l.response_bytes.push(answer.response_bytes as f64);
    if let Some(ns) = probe_ns {
        l.probe_ns.extend(ns);
    }
}

/// `TableIndex::probe` on each query cell against the first hop's stored
/// table, in the orientation that hop reads.
fn probe_first_hop(service: &DslogService, q: &Query) -> Option<Vec<f64>> {
    let (a, b) = (&q.path[0], &q.path[1]);
    let table = service.with_db(|db| {
        let s = db.storage();
        if s.has_directed_edge(a, b) {
            s.stored_table(a, b, Orientation::Forward).ok()
        } else {
            s.stored_table(b, a, Orientation::Backward).ok()
        }
    })?;
    let index = table.index()?;
    Some(
        q.cells
            .iter()
            .map(|c| {
                let qbox: Vec<Interval> = c.iter().map(|&v| Interval::point(v)).collect();
                let t = Instant::now();
                std::hint::black_box(index.probe(&qbox));
                t.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

impl QueryLayers {
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let p50 = stats::median_or_zero;
        let n_plans: u64 = self.plans.values().sum();
        let share =
            |k: &str| self.plans.get(k).copied().unwrap_or(0) as f64 / n_plans.max(1) as f64;
        BTreeMap::from([
            ("net.overhead_p50_us", p50(&self.overhead_us)),
            ("net.response_bytes_p50", p50(&self.response_bytes)),
            ("service.query_p50_us", p50(&self.service_us)),
            ("plan.share.path_order", share("path_order")),
            ("plan.share.selective_first", share("selective_first")),
            ("plan.share.empty_edge", share("empty_edge")),
            ("plan.share.composite", share("composite")),
            ("plan.other_p50_us", p50(&self.plan_other_us)),
            ("exec.hop_wall_p50_us", p50(&self.hop_wall_us)),
            (
                "exec.rows_probed_per_matched",
                self.rows_probed as f64 / self.rows_matched.max(1) as f64,
            ),
            ("exec.boxes_emitted_p50", p50(&self.boxes_emitted)),
            (
                "exec.parallel_hop_share",
                self.parallel_hops as f64 / self.hops.max(1) as f64,
            ),
            ("index.probe_p50_ns", p50(&self.probe_ns)),
        ])
    }
}

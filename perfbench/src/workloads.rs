//! The three workloads. Each reports every end-to-end metric on its own
//! database. Serving runs in rounds spread over the whole run — queries,
//! then (serve_read) a chunk of the write probe, then shut down and reopen
//! lazily and eagerly — so each metric samples the run's whole length
//! rather than one slice of it: this machine class drifts by ±20% over
//! tens of seconds. Reopens only ever follow the writing service's
//! shutdown (the documented single-writer use).

use crate::check::{self, Cells};
use crate::client::{closed_loop, open_loop, LoopResult, Sample};
use crate::inputs::{self, derive, Corpus, Query, Rng};
use crate::phases::{self, QueryLayers, ReopenOut, Tally, WriterOut, WriterPlan};
use crate::stats;
use crate::trace::{Span, Tracer};
use dslog::api::Dslog;
use dslog::net::{NetServer, ServeOptions};
use dslog::service::{AutoCommitPolicy, DslogService};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Serving rounds per run (a traced run alternates untraced and traced
/// rounds, so it needs an even count).
const ROUNDS: usize = 5;
const TRACED_ROUNDS: usize = 4;
/// Client connections of the closed loops (the machine class has 2 cores).
const CLIENTS: usize = 2;
/// Queries in a seeded pool, and how many of them are checked per run.
const POOL: usize = 4096;
const CHECKS: usize = 6;
/// Distinct small pipelines the serve writers cycle through.
const WRITER_TEMPLATES: usize = 32;
/// serve_read: batches (one commit each) of the write probe per round.
const WRITE_CHUNK: usize = 24;
/// serve_mixed: open-loop query rate, writer pacing, commit trigger.
const MIXED_RATE: f64 = 1000.0;
const MIXED_PACE: Duration = Duration::from_millis(80);
const MIXED_COMMIT_EVERY: usize = 1;
/// ingest_reopen: generations (one commit per single-edge batch).
pub const GENERATIONS: usize = 400;
/// ingest_reopen: share of `--seconds` spent serving queries.
const QUERY_PROBE_SHARE: f64 = 0.25;
/// Lazy and eager reopens after each round.
const REOPENS_PER_ROUND: usize = 3;
/// Untimed closed-loop traffic before each timed query window.
const WARM_UP: Duration = Duration::from_millis(300);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
}

/// Everything a run measured.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample count behind each timing.
    pub samples: BTreeMap<&'static str, usize>,
    /// Percentile each tail metric reports.
    pub tails: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub spans: Vec<Span>,
}

impl Report {
    fn timing(&mut self, name: &'static str, v: &[f64]) -> f64 {
        self.samples.insert(name, v.len());
        stats::median_or_zero(v)
    }

    fn tail(&mut self, name: &'static str, v: &[f64], cap: f64) -> f64 {
        self.samples.insert(name, v.len());
        if v.is_empty() {
            return 0.0;
        }
        let t = stats::tail(v, cap);
        self.tails.insert(name, t.q);
        if !t.honest {
            self.tally.notes.push(format!(
                "{name}: only {} samples, reporting the median",
                t.n
            ));
        }
        t.value
    }
}

pub fn run(a: &Args) -> Result<Report, String> {
    let dir = a
        .work
        .join(format!("{}-{}", a.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let tracer = Tracer::new(a.trace);
    let r = match a.workload.as_str() {
        "serve_read" => serve(a, &dir, &tracer, false),
        "serve_mixed" => serve(a, &dir, &tracer, true),
        "ingest_reopen" => ingest_reopen(a, &dir, &tracer),
        w => Err(format!("unknown workload {w:?}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut r = r?;
    r.spans = tracer.take();
    Ok(r)
}

/// Run `setup` `reps` times (each from scratch), keep the last result, and
/// return the wall time of each.
fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // free the previous set-up first
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

fn err(what: &str) -> impl Fn(dslog::DslogError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn fresh(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Tally every answer, and keep the first response of each checked pool
/// index for verification after the timed region.
struct Answers {
    checks: Vec<usize>,
    kept: Mutex<HashMap<usize, String>>,
}

impl Answers {
    fn new(checks: Vec<usize>) -> Self {
        Self {
            checks,
            kept: Mutex::new(HashMap::new()),
        }
    }

    fn keep(&self, s: &Sample, response: &str) {
        if self.checks.contains(&s.idx) {
            self.kept
                .lock()
                .expect("answer buffer poisoned")
                .entry(s.idx)
                .or_insert_with(|| response.to_string());
        }
    }

    /// Check kept answers against the reference; at least one must exist.
    fn verify(&self, corpus: &Corpus, pool: &[Query], tally: &mut Tally) {
        let kept = self.kept.lock().expect("answer buffer poisoned");
        if kept.is_empty() {
            tally.wrong("no sampled answer was received".to_string());
        }
        for (idx, response) in kept.iter() {
            let want = check::expected(corpus, &pool[*idx]);
            match check::response_cells(response) {
                Some(got) if got == want => tally.ok(),
                _ => tally.wrong(format!("wrong answer to {}", pool[*idx].request())),
            }
        }
    }
}

fn tally_loop(l: &LoopResult, tally: &mut Tally) {
    for s in &l.samples {
        if s.ok {
            tally.ok();
        } else {
            tally.fail(format!("query {} refused or failed", s.idx));
        }
    }
    for _ in 0..l.transport_errors {
        tally.fail("connection failed".to_string());
    }
}

fn ok_latencies_us(l: &LoopResult) -> Vec<f64> {
    l.samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_s * 1e6)
        .collect()
}

/// The query metrics of the untraced windows, into `rep.e2e`.
fn query_metrics(rep: &mut Report, loops: &[LoopResult]) {
    let lat: Vec<f64> = loops.iter().flat_map(ok_latencies_us).collect();
    let secs: f64 = loops.iter().map(|l| l.elapsed_s).sum();
    rep.e2e
        .insert("query_qps", lat.len() as f64 / secs.max(1e-9));
    let p50 = rep.timing("query_p50_us", &lat);
    rep.e2e.insert("query_p50_us", p50);
    let p99 = rep.tail("query_p99_us", &lat, 99.0);
    rep.e2e.insert("query_p99_us", p99);
}

fn p50_us(loops: &[LoopResult]) -> f64 {
    let lat: Vec<f64> = loops.iter().flat_map(ok_latencies_us).collect();
    stats::median_or_zero(&lat)
}

/// Per-request layer hook for the traced query windows.
fn traced_hook<'a>(
    service: &'a DslogService,
    pool: &'a [Query],
    answers: &'a Answers,
    tracer: &'a Tracer,
    layers: &'a Mutex<QueryLayers>,
    next_req: &'a AtomicU64,
) -> impl Fn(&Sample, &str) + Sync + 'a {
    move |s, response| {
        answers.keep(s, response);
        let req = next_req.fetch_add(1, Ordering::Relaxed);
        phases::trace_request(service, &pool[s.idx], s, req, tracer, layers);
    }
}

/// Durable-ingest rate and commit latency. Commit latency on the disk of
/// this machine class is dominated by fsync and did not repeat within a
/// quarter between runs on the serve workloads, so these are reported
/// (untraced) as per-layer metrics in a traced run, and printed without a
/// gate in an untraced one.
fn writer_metrics(rep: &mut Report, w: &WriterOut, as_layers: bool) {
    let rows_s = w.rows_durable as f64 / w.busy_s.max(1e-9);
    let p50 = rep.timing("commit_p50_ms", &w.commit_ms);
    let p90 = rep.tail("commit_p90_ms", &w.commit_ms, 90.0);
    rep.samples.insert("ingest_batch_ms", w.ingest_ms.len());
    let (map, names) = if as_layers {
        (
            &mut rep.layers,
            [
                "service.ingest_rows_per_s",
                "persist.commit_p50_ms",
                "persist.commit_p90_ms",
            ],
        )
    } else {
        (
            &mut rep.e2e,
            ["ingest_rows_per_s", "commit_p50_ms", "commit_p90_ms"],
        )
    };
    map.extend(names.into_iter().zip([rows_s, p50, p90]));
}

fn writer_layers(rep: &mut Report, w: &WriterOut) {
    let l = &w.layers;
    let commits = w.commit_ms.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mb = l.bytes as f64 / 1e6;
    let per_s = |ms: f64| if ms > 0.0 { mb / (ms / 1e3) } else { 0.0 };
    let p50 = stats::median_or_zero;
    rep.layers.extend([
        ("service.ingest_batch_p50_ms", p50(&w.ingest_ms)),
        ("service.failed_commits", w.failed_commits as f64),
        ("service.epochs_published", w.epochs_published as f64),
        (
            "provrc.compress_ms_per_mrow",
            l.compress_ms / (l.rows_in.max(1) as f64 / 1e6),
        ),
        (
            "provrc.rows_in_per_row_out",
            l.rows_in as f64 / l.rows_out.max(1) as f64,
        ),
        ("format.serialize_mb_s", per_s(l.serialize_ms)),
        ("format.deserialize_mb_s", per_s(l.deserialize_ms)),
        ("crc32.mb_s", per_s(l.crc_ms)),
        ("persist.bytes_written_per_commit", mean(&w.bytes_written)),
        ("persist.files_written_per_commit", mean(&w.files_written)),
        ("persist.files_reused_per_commit", mean(&w.files_reused)),
        (
            "persist.commit_unattributed_ms",
            p50(&l.commit_unattributed_ms),
        ),
        (
            "wal.log_bytes_per_commit",
            w.log_bytes_grown as f64 / commits,
        ),
    ]);
}

fn reopen_metrics(rep: &mut Report, r: &ReopenOut) {
    let e = rep.timing("open_first_answer_ms", &r.eager_ms);
    rep.e2e.insert("open_first_answer_ms", e);
    let l = rep.timing("lazy_open_first_answer_ms", &r.lazy_ms);
    rep.e2e.insert("lazy_open_first_answer_ms", l);
}

fn finish_db(rep: &mut Report, dir: &Path, rows: u64, corpus: &Corpus, tracer: &Tracer) {
    phases::verify_clean(dir, &mut rep.tally);
    let (_, bytes) = phases::dir_usage(dir);
    rep.e2e
        .insert("db_bytes_per_row", bytes as f64 / rows.max(1) as f64);
    if tracer.on() {
        rep.layers
            .extend(phases::storage_layers(dir, corpus, tracer));
    }
}

fn shutdown(service: DslogService, tally: &mut Tally) {
    match service.shutdown() {
        Ok((_db, Ok(()))) => tally.ok(),
        Ok((_db, Err(e))) => tally.fail(format!("final commit: {e}")),
        Err(e) => tally.fail(format!("shutdown: {e}")),
    }
}

fn overhead(rep: &mut Report, traced: f64, untraced: f64) {
    rep.layers.insert(
        "trace.overhead_frac",
        (traced - untraced) / untraced.max(1e-12),
    );
}

fn layer_metrics(rep: &mut Report, layers: Mutex<QueryLayers>) {
    let layers = layers.into_inner().expect("layer buffer poisoned");
    for _ in 0..layers.errors {
        rep.tally
            .fail("in-process re-run of a traced query failed".to_string());
    }
    rep.layers.extend(layers.metrics());
}

// ------------------------------------------------------------- serving

/// What every serving round shares.
struct Serving<'a> {
    corpus: &'a Corpus,
    /// Paths queried three times in process after each open, so composite
    /// edges and indexes exist before anything is timed.
    warm_paths: &'a [Vec<String>],
    pool: &'a [Query],
    requests: &'a [String],
    answers: &'a Answers,
    /// The reopen probe's first query, its reference answer, and further
    /// checked (untimed) queries.
    first: &'a Query,
    want: &'a Cells,
    extra: &'a [(&'a Query, &'a Cells)],
    /// Timed query window per round.
    window: Duration,
    /// serve_mixed: one open-loop connection beside the paced writer.
    mixed: bool,
    /// serve_read: batches committed one by one after each window.
    write_chunk: usize,
    templates: &'a [Corpus],
}

/// The untraced and the traced half of what the rounds measured.
#[derive(Default)]
struct Half {
    loops: Vec<LoopResult>,
    writes: WriterOut,
    reopen: ReopenOut,
}

#[derive(Default)]
struct RoundsOut {
    plain: Half,
    traced: Half,
    rejected_busy: u64,
    lag_ms: Vec<f64>,
}

/// Serve `db` for `rounds` rounds. Each round warms up in process, serves
/// over TCP (an untimed warm-up, then the timed window, then the write
/// chunk), shuts the service down, and reopens the directory lazily
/// (timed, dropped) and eagerly (timed, served next round). In a traced
/// run the odd rounds are traced.
fn serve_rounds(
    a: &Args,
    dir: &Path,
    mut db: Dslog,
    s: &Serving<'_>,
    tracer: &Tracer,
    layers: &Mutex<QueryLayers>,
    tally: &mut Tally,
) -> Result<RoundsOut, String> {
    let mut out = RoundsOut::default();
    let off = Tracer::new(false);
    let rounds = if a.trace { TRACED_ROUNDS } else { ROUNDS };
    let writer_seq = AtomicU64::new(0);
    let next_batch = |_: usize| -> Option<Corpus> {
        let k = writer_seq.fetch_add(1, Ordering::Relaxed) as usize;
        Some(s.templates[k % s.templates.len()].renamed(&format!("w{k}_")))
    };
    let next_req = AtomicU64::new(0);
    let mut rng = Rng::new(derive(a.seed, 11));
    for round in 0..rounds {
        let traced = a.trace && round % 2 == 1;
        let t = if traced { tracer } else { &off };
        for path in s.warm_paths {
            for _ in 0..3 {
                let q = inputs::random_query(s.corpus, path, &mut rng);
                if let Err(e) = db.prov_query(&q.path_refs(), &q.cells) {
                    tally.fail(format!("warm-up query: {e}"));
                }
            }
        }
        let service = Arc::new(DslogService::new(db, AutoCommitPolicy::manual()));
        let server = NetServer::spawn(Arc::clone(&service), "127.0.0.1:0", ServeOptions::default())
            .map_err(err("spawn server"))?;
        let addr = server.local_addr();
        let keep = |smp: &Sample, r: &str| s.answers.keep(smp, r);
        let hook = traced_hook(&service, s.pool, s.answers, tracer, layers, &next_req);
        let on_answer: &(dyn Fn(&Sample, &str) + Sync) = if traced { &hook } else { &keep };
        tally_loop(
            &closed_loop(addr, s.requests, CLIENTS, WARM_UP, &keep),
            tally,
        );
        let half = if traced {
            &mut out.traced
        } else {
            &mut out.plain
        };
        let l = if s.mixed {
            let plan = WriterPlan {
                commit_every: MIXED_COMMIT_EVERY,
                pace: Some(MIXED_PACE),
                deadline: Some(Instant::now() + s.window),
                max_batches: usize::MAX,
            };
            let (l, w) = std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    let mut next = next_batch;
                    phases::run_writer(&service, dir, &mut next, &plan, t)
                });
                let l = open_loop(addr, s.requests, MIXED_RATE, s.window, on_answer);
                (l, writer.join().expect("writer thread panicked"))
            });
            half.writes.absorb(w);
            if traced {
                out.lag_ms.extend(l.lag_s.iter().map(|x| x * 1e3));
            }
            l
        } else {
            closed_loop(addr, s.requests, CLIENTS, s.window, on_answer)
        };
        tally_loop(&l, tally);
        half.loops.push(l);
        if s.write_chunk > 0 {
            let plan = WriterPlan {
                commit_every: 1,
                pace: None,
                deadline: None,
                max_batches: s.write_chunk,
            };
            let mut next = next_batch;
            half.writes
                .absorb(phases::run_writer(&service, dir, &mut next, &plan, t));
        }
        drop(hook);
        server.stop();
        out.rejected_busy += server.join().rejected_busy;
        let service = Arc::try_unwrap(service)
            .map_err(|_| "service still referenced after its server stopped".to_string())?;
        shutdown(service, tally);
        let mut eager = None;
        for k in 0..REOPENS_PER_ROUND {
            let req = (round * REOPENS_PER_ROUND + k) as u64;
            let out = &mut half.reopen;
            drop(eager.take()); // one open database at a time
            drop(phases::reopen(
                dir, true, s.first, s.want, s.extra, req, t, out,
            ));
            eager = phases::reopen(dir, false, s.first, s.want, s.extra, req, t, out);
        }
        db = eager.ok_or("eager reopen failed")?;
    }
    Ok(out)
}

/// Fold the rounds into the report: end-to-end metrics from the untraced
/// rounds, layer metrics and trace overhead from the traced ones.
fn report_rounds(rep: &mut Report, a: &Args, mut r: RoundsOut) {
    if a.trace {
        let (plain, traced) = (p50_us(&r.plain.loops), p50_us(&r.traced.loops));
        rep.layers.insert("attrib.query_p50_us_untraced", plain);
        writer_metrics(rep, &r.plain.writes, true);
        let lat: Vec<f64> = r.plain.loops.iter().flat_map(ok_latencies_us).collect();
        let p99 = rep.tail("net.query_p99_us", &lat, 99.0);
        rep.layers.insert("net.query_p99_us", p99);
        writer_layers(rep, &r.traced.writes);
        rep.layers.insert(
            "open.first_query_ms",
            stats::median_or_zero(&r.traced.reopen.first_query_ms),
        );
        rep.layers.insert(
            "gen.lag_p99_ms",
            if r.lag_ms.is_empty() {
                0.0
            } else {
                stats::tail(&r.lag_ms, 99.0).value
            },
        );
        overhead(rep, traced, plain);
    } else {
        query_metrics(rep, &r.plain.loops);
        writer_metrics(rep, &r.plain.writes, false);
        reopen_metrics(rep, &r.plain.reopen);
    }
    rep.layers
        .insert("net.rejected_busy", r.rejected_busy as f64);
    for half in [&mut r.plain, &mut r.traced] {
        rep.tally.merge(std::mem::take(&mut half.writes.tally));
        rep.tally.merge(std::mem::take(&mut half.reopen.tally));
    }
}

// ------------------------------------------------------------ serve_*

fn serve(a: &Args, dir: &Path, tracer: &Tracer, mixed: bool) -> Result<Report, String> {
    let mut rep = Report::default();
    let db_dir = dir.join("db");
    let reps = if a.trace { 1 } else { SETUP_REPS };
    // Set-up: generate the inputs, build and save the database, open it.
    let setup = || -> Result<(inputs::ServeInputs, Dslog), String> {
        fresh(&db_dir);
        let inputs = inputs::serve_inputs(a.seed);
        let db = inputs.corpus.build().map_err(err("build"))?;
        db.save(&db_dir, false).map_err(err("save"))?;
        drop(db);
        let db = Dslog::options().open(&db_dir).map_err(err("open"))?;
        Ok((inputs, db))
    };
    let ((inputs, db), setup_times) = timed_setups(reps, setup)?;
    let setup_s = rep.timing("setup_s", &setup_times);
    rep.e2e.insert("setup_s", setup_s);

    let corpus = &inputs.corpus;
    let pool = inputs::query_pool(corpus, &inputs.paths, derive(a.seed, 10), POOL);
    let requests: Vec<String> = pool.iter().map(Query::request).collect();
    let templates = inputs::writer_templates(a.seed, WRITER_TEMPLATES);
    let answers = Answers::new(inputs::sample_indices(POOL, CHECKS, derive(a.seed, 12)));
    // The reopen probe's first query: a seeded point through the whole
    // scatter chain, so every reopen pays the same decode and index work.
    let first = inputs::random_point(
        corpus,
        &inputs.chain_back,
        &mut Rng::new(derive(a.seed, 13)),
    );
    let want = check::expected(corpus, &first);
    let rounds = if a.trace { TRACED_ROUNDS } else { ROUNDS };
    let serving = Serving {
        corpus,
        warm_paths: &inputs.paths,
        pool: &pool,
        requests: &requests,
        answers: &answers,
        first: &first,
        want: &want,
        extra: &[],
        window: Duration::from_secs_f64(a.seconds / rounds as f64),
        mixed,
        write_chunk: if mixed { 0 } else { WRITE_CHUNK },
        templates: &templates,
    };
    let layers = Mutex::new(QueryLayers::default());
    let r = serve_rounds(a, &db_dir, db, &serving, tracer, &layers, &mut rep.tally)?;
    let rows = corpus.rows() as u64 + r.plain.writes.rows_durable + r.traced.writes.rows_durable;
    report_rounds(&mut rep, a, r);
    answers.verify(corpus, &pool, &mut rep.tally);
    finish_db(&mut rep, &db_dir, rows, corpus, tracer);
    layer_metrics(&mut rep, layers);
    Ok(rep)
}

// ------------------------------------------------------- ingest_reopen

fn ingest_reopen(a: &Args, dir: &Path, tracer: &Tracer) -> Result<Report, String> {
    let mut rep = Report::default();
    let db_dir = dir.join("db");
    let reps = if a.trace { 1 } else { SETUP_REPS };
    // Set-up: generate the stream, create the empty database, open it.
    let setup = |dir: &Path| -> Result<(inputs::IngestStream, Dslog), String> {
        fresh(dir);
        let stream = inputs::ingest_stream(a.seed, GENERATIONS);
        drop(Dslog::options().create(dir).map_err(err("create"))?);
        let db = Dslog::options().open(dir).map_err(err("open"))?;
        Ok((stream, db))
    };
    let ((stream, db), setup_times) = timed_setups(reps, || setup(&db_dir))?;
    let s = rep.timing("setup_s", &setup_times);
    rep.e2e.insert("setup_s", s);

    let plan = WriterPlan {
        commit_every: 1,
        pace: None,
        deadline: None,
        max_batches: GENERATIONS,
    };
    let ingest = |db: Dslog, dir: &Path, tracer: &Tracer, tally: &mut Tally| {
        let service = DslogService::new(db, AutoCommitPolicy::manual());
        let mut next = |i: usize| stream.batches.get(i).cloned();
        let w = phases::run_writer(&service, dir, &mut next, &plan, tracer);
        shutdown(service, tally);
        w
    };
    let mut twin = None;
    if a.trace {
        // An untraced twin of the ingest, for trace.overhead_frac.
        let twin_dir = dir.join("twin");
        let (_, db2) = setup(&twin_dir)?;
        let mut w = ingest(db2, &twin_dir, &Tracer::new(false), &mut rep.tally);
        fresh(&twin_dir);
        rep.tally.merge(std::mem::take(&mut w.tally));
        rep.layers.insert(
            "attrib.commit_p50_ms_untraced",
            stats::median_or_zero(&w.commit_ms),
        );
        twin = Some(w);
    }
    let mut w = ingest(db, &db_dir, tracer, &mut rep.tally);
    rep.tally.merge(std::mem::take(&mut w.tally));

    let inputs::IngestStream {
        batches,
        big_query,
        pipeline_query,
        paths,
    } = stream;
    let mut corpus = Corpus::default();
    for b in batches {
        corpus.extend(b);
    }
    let want_big = check::expected(&corpus, &big_query);
    let want_pipe = check::expected(&corpus, &pipeline_query);
    let pool = inputs::query_pool(&corpus, &paths, derive(a.seed, 20), POOL);
    let requests: Vec<String> = pool.iter().map(Query::request).collect();
    let answers = Answers::new(inputs::sample_indices(POOL, CHECKS, derive(a.seed, 21)));
    let rounds = if a.trace { TRACED_ROUNDS } else { ROUNDS };
    let serving = Serving {
        corpus: &corpus,
        warm_paths: &paths,
        pool: &pool,
        requests: &requests,
        answers: &answers,
        first: &big_query,
        want: &want_big,
        extra: &[(&pipeline_query, &want_pipe)],
        window: Duration::from_secs_f64(a.seconds * QUERY_PROBE_SHARE / rounds as f64),
        mixed: false,
        write_chunk: 0,
        templates: &[],
    };
    // Serve the history-deep directory, reopening it after every round.
    let db = Dslog::options().open(&db_dir).map_err(err("open"))?;
    let layers = Mutex::new(QueryLayers::default());
    let r = serve_rounds(a, &db_dir, db, &serving, tracer, &layers, &mut rep.tally)?;
    report_rounds(&mut rep, a, r);
    // The write metrics come from the ingest, not the (write-free) rounds.
    if let Some(twin) = &twin {
        writer_layers(&mut rep, &w);
        writer_metrics(&mut rep, twin, true);
        let untraced = rep.layers["attrib.commit_p50_ms_untraced"];
        overhead(&mut rep, stats::median_or_zero(&w.commit_ms), untraced);
    } else {
        writer_metrics(&mut rep, &w, false);
    }
    answers.verify(&corpus, &pool, &mut rep.tally);
    finish_db(&mut rep, &db_dir, w.rows_durable, &corpus, tracer);
    layer_metrics(&mut rep, layers);
    Ok(rep)
}

/// Peak resident memory of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

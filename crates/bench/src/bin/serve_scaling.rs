//! Network-serving scaling bench: TCP query latency (p50/p99) against a
//! live [`dslog::net::NetServer`], **idle** vs **under sustained
//! ingest**, swept over the number of concurrent client connections.
//!
//! The property under test is the service layer's epoch-snapshot
//! guarantee: queries clone an immutable `Arc<Dslog>` snapshot and never
//! wait on batch compression, epoch installs, or commit file IO. If that
//! holds, tail latency under a saturating ingest+commit load stays close
//! to the idle tail — the `p99 ratio` column. Reader-blocks-behind-writer
//! designs fail exactly here: every commit's file IO stalls the whole
//! query tail.
//!
//! Setup: one in-process server over a database holding a scatter-edge
//! chain (the incompressible regime, so ingest batches do real
//! compression work). Each sweep point runs `clients` connections, each
//! issuing `queries` two-hop backward queries; the "ingest" phase runs a
//! background driver that keeps installing fresh scatter edges through
//! [`DslogService::ingest_batch`] with periodic commits while the same
//! query load repeats. Each phase runs two such waves and pools their
//! samples; every percentile is reported with the sample count behind
//! it (`*_samples`, and `*_p99_beyond`: samples above the p99).
//!
//! Emits an aligned table on stdout and machine-readable
//! `BENCH_serve.json` (with `nproc` and `scale`) in the working
//! directory. A p99 means something only with at least 10 samples beyond
//! it, which takes `--scale 0.3` or more.
//!
//! Run: `cargo run -p dslog-bench --release --bin serve_scaling [--scale f]`

use dslog::api::{Dslog, TableCapture};
use dslog::net::{NetServer, ServeOptions};
use dslog::service::{AutoCommitPolicy, DslogService, IngestJob};
use dslog_bench::{cli_scale_seed, percentile, samples_beyond, secs, TextTable};
use dslog_workloads::edges;
use std::fmt::Write as _;
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Arrays in the served chain `N0 -> N1 -> … -> N4`.
const CHAIN: usize = 5;

struct Point {
    clients: usize,
    queries_per_client: usize,
    idle: Latency,
    ingest: Latency,
    ingested_edges: u64,
    commits: u64,
}

/// One phase's pooled client-observed latencies.
struct Latency {
    samples: usize,
    p50_s: f64,
    p99_s: f64,
    p99_beyond: usize,
}

impl Latency {
    fn of(mut samples: Vec<f64>) -> Self {
        Self {
            samples: samples.len(),
            p50_s: percentile(&mut samples, 50.0),
            p99_s: percentile(&mut samples, 99.0),
            p99_beyond: samples_beyond(samples.len(), 99.0),
        }
    }
}

impl Point {
    fn p99_ratio(&self) -> f64 {
        self.ingest.p99_s / self.idle.p99_s.max(1e-12)
    }
}

/// Run `clients` connections, each issuing `queries` backward queries,
/// and return every request's wall time (client-observed, over TCP).
fn query_wave(addr: std::net::SocketAddr, clients: usize, queries: usize, cells: i64) -> Vec<f64> {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut samples = Vec::with_capacity(queries);
                let mut line = String::new();
                // First requests pay connection/cache warmup; don't time them.
                let warmup = 10;
                for q in 0..queries + warmup {
                    let cell = (c * queries + q) as i64 % cells;
                    let request = format!("query N2,N1,N0 {cell}\n");
                    let start = std::time::Instant::now();
                    writer.write_all(request.as_bytes()).expect("send");
                    line.clear();
                    reader.read_line(&mut line).expect("recv");
                    if q >= warmup {
                        samples.push(start.elapsed().as_secs_f64());
                    }
                    assert!(line.starts_with("{\"ok\":true"), "query failed: {line}");
                }
                writer.write_all(b"quit\n").expect("send quit");
                samples
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect()
}

fn measure(
    service: &Arc<DslogService>,
    addr: std::net::SocketAddr,
    clients: usize,
    queries: usize,
    rows_per_edge: usize,
    cells: i64,
) -> Point {
    // Each phase pools two waves, so its tail has twice the samples; no
    // wave is discarded for being unlucky.
    let pooled_waves = || {
        let mut samples = query_wave(addr, clients, queries, cells);
        samples.extend(query_wave(addr, clients, queries, cells));
        Latency::of(samples)
    };

    // Idle phase: nothing else is touching the service.
    let idle = pooled_waves();

    // Ingest phase: a background driver saturates the write path —
    // compress + install fresh scatter edges in batches, committing every
    // few batches so commit file IO overlaps the query wave too.
    let stop = Arc::new(AtomicBool::new(false));
    let ingested = Arc::new(AtomicU64::new(0));
    let driver = {
        let service = Arc::clone(service);
        let stop = Arc::clone(&stop);
        let ingested = Arc::clone(&ingested);
        std::thread::spawn(move || {
            let mut round = 0u64;
            while !stop.load(Ordering::Acquire) {
                let batch: Vec<IngestJob> = (0..2)
                    .map(|j| {
                        let tag = round * 2 + j;
                        let (lineage, out_shape, in_shape) = edges::scatter(rows_per_edge);
                        let in_name = format!("ing-in-{clients}-{tag}");
                        let out_name = format!("ing-out-{clients}-{tag}");
                        service.define_array(&in_name, &in_shape).expect("define");
                        service.define_array(&out_name, &out_shape).expect("define");
                        IngestJob::new(in_name, out_name, lineage)
                    })
                    .collect();
                let n = batch.len() as u64;
                service.ingest_batch(batch).expect("ingest");
                ingested.fetch_add(n, Ordering::Relaxed);
                if round % 2 == 1 {
                    service.commit().expect("commit");
                }
                round += 1;
                // Sustained, steady ingest — not a hot loop pinning every
                // core on compression. The property under test is that
                // queries never *block* on the write path; a saturated CPU
                // starves client threads regardless of locking discipline.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
        })
    };
    let ingest = pooled_waves();
    stop.store(true, Ordering::Release);
    driver.join().expect("ingest driver");
    let stats = service.stats();

    Point {
        clients,
        queries_per_client: queries,
        idle,
        ingest,
        ingested_edges: ingested.load(Ordering::Relaxed),
        commits: stats.commits,
    }
}

fn main() {
    let (scale, _seed) = cli_scale_seed();
    let rows_per_edge = ((40_000.0 * scale) as usize).max(64);
    let queries = ((2_000.0 * scale) as usize).max(40);
    let client_counts = [1usize, 4, 8];

    // Served database: a scatter chain in a bound temp directory, so
    // background commits during the ingest phase do real file IO.
    let dir = std::env::temp_dir().join(format!("dslog-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Dslog::new();
    let (first, shape, _) = edges::scatter(rows_per_edge);
    let cells = shape[0] as i64;
    for i in 0..CHAIN {
        db.define_array(&format!("N{i}"), &shape).unwrap();
    }
    db.add_lineage("N0", "N1", &TableCapture::new(first))
        .unwrap();
    for i in 1..CHAIN - 1 {
        let (lineage, _, _) = edges::scatter(rows_per_edge);
        db.add_lineage(
            &format!("N{i}"),
            &format!("N{}", i + 1),
            &TableCapture::new(lineage),
        )
        .unwrap();
    }
    db.save(&dir, false).unwrap();

    let service = Arc::new(DslogService::new(db, AutoCommitPolicy::manual()));
    let server = NetServer::spawn(
        Arc::clone(&service),
        "127.0.0.1:0",
        ServeOptions {
            workers: *client_counts.iter().max().unwrap(),
            ..ServeOptions::default()
        },
    )
    .expect("spawn server");
    let addr = server.local_addr();

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut table = TextTable::new(&[
        "clients",
        "queries",
        "samples",
        "p99 beyond",
        "idle p50",
        "idle p99",
        "ingest p50",
        "ingest p99",
        "p99 ratio",
        "edges ingested",
        "commits",
    ]);
    let mut json_rows = String::new();
    for &clients in &client_counts {
        let pt = measure(&service, addr, clients, queries, rows_per_edge, cells);
        table.row(&[
            pt.clients.to_string(),
            (pt.clients * pt.queries_per_client).to_string(),
            pt.idle.samples.to_string(),
            pt.idle.p99_beyond.to_string(),
            secs(pt.idle.p50_s),
            secs(pt.idle.p99_s),
            secs(pt.ingest.p50_s),
            secs(pt.ingest.p99_s),
            format!("{:.2}x", pt.p99_ratio()),
            pt.ingested_edges.to_string(),
            pt.commits.to_string(),
        ]);
        if !json_rows.is_empty() {
            json_rows.push(',');
        }
        write!(
            json_rows,
            "{{\"clients\":{},\"queries\":{},\"idle_samples\":{},\"idle_p99_beyond\":{},\
             \"idle_p50_s\":{:.9},\"idle_p99_s\":{:.9},\"ingest_samples\":{},\
             \"ingest_p99_beyond\":{},\"ingest_p50_s\":{:.9},\"ingest_p99_s\":{:.9},\
             \"p99_ratio\":{:.3},\"ingested_edges\":{},\"commits\":{}}}",
            pt.clients,
            pt.clients * pt.queries_per_client,
            pt.idle.samples,
            pt.idle.p99_beyond,
            pt.idle.p50_s,
            pt.idle.p99_s,
            pt.ingest.samples,
            pt.ingest.p99_beyond,
            pt.ingest.p50_s,
            pt.ingest.p99_s,
            pt.p99_ratio(),
            pt.ingested_edges,
            pt.commits
        )
        .unwrap();
    }
    server.stop();
    server.join();
    // Teardown through the service so pending ingest-phase edges commit.
    let service = Arc::try_unwrap(service).expect("server joined");
    let (_db, final_commit) = service.shutdown().expect("service shutdown");
    final_commit.expect("final commit");
    let _ = std::fs::remove_dir_all(&dir);

    println!("{}", table.render());
    let json = format!(
        "{{\"bench\":\"serve_scaling\",\"nproc\":{nproc},\"scale\":{scale},\
         \"rows_per_edge\":{rows_per_edge},\"edge\":\"scatter\",\"series\":[{json_rows}]}}\n"
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}

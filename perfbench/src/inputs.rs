//! Seeded inputs. Everything the program receives — arrays, lineage,
//! queries, ingest batches — is made here from the `--seed` argument; the
//! same seed gives the same inputs.

use dslog::api::Dslog;
use dslog::query::reference::Direction;
use dslog::table::LineageTable;
use dslog_workloads::edges;
use dslog_workloads::random_numpy::{generate, RandomPipelineSpec};

/// SplitMix64: small, fast, and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An independent seed for one input stream of a run.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x0100_0000_01b3) ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
        .next_u64()
}

/// One lineage edge, output attributes first (the ingest row layout).
#[derive(Debug, Clone)]
pub struct Edge {
    pub in_array: String,
    pub out_array: String,
    pub lineage: LineageTable,
}

/// Arrays plus the uncompressed lineage between them. The same value
/// feeds the program and the reference checker.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    pub arrays: Vec<(String, Vec<usize>)>,
    pub edges: Vec<Edge>,
}

impl Corpus {
    pub fn shape(&self, name: &str) -> &[usize] {
        &self
            .arrays
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown array {name}"))
            .1
    }

    pub fn rows(&self) -> usize {
        self.edges.iter().map(|e| e.lineage.n_rows()).sum()
    }

    pub fn extend(&mut self, other: Corpus) {
        for (name, shape) in other.arrays {
            if !self.arrays.iter().any(|(n, _)| *n == name) {
                self.arrays.push((name, shape));
            }
        }
        self.edges.extend(other.edges);
    }

    /// The stored table and traversal direction of each hop of `path`.
    pub fn hops(&self, path: &[String]) -> Vec<(&LineageTable, Direction)> {
        path.windows(2)
            .map(|w| {
                let find = |i: &str, o: &str| {
                    self.edges
                        .iter()
                        .find(|e| e.in_array == i && e.out_array == o)
                };
                match (find(&w[0], &w[1]), find(&w[1], &w[0])) {
                    (Some(e), _) => (&e.lineage, Direction::Forward),
                    (None, Some(e)) => (&e.lineage, Direction::Backward),
                    (None, None) => panic!("no edge between {} and {}", w[0], w[1]),
                }
            })
            .collect()
    }

    /// A copy with every array name prefixed.
    pub fn renamed(&self, prefix: &str) -> Corpus {
        Corpus {
            arrays: self
                .arrays
                .iter()
                .map(|(n, s)| (format!("{prefix}{n}"), s.clone()))
                .collect(),
            edges: self
                .edges
                .iter()
                .map(|e| Edge {
                    in_array: format!("{prefix}{}", e.in_array),
                    out_array: format!("{prefix}{}", e.out_array),
                    lineage: e.lineage.clone(),
                })
                .collect(),
        }
    }

    /// An in-memory database holding this corpus (default options).
    pub fn build(&self) -> dslog::Result<Dslog> {
        let mut db = Dslog::options().build()?;
        for (name, shape) in &self.arrays {
            db.define_array(name, shape)?;
        }
        for e in &self.edges {
            db.storage_mut()
                .ingest_lineage(&e.in_array, &e.out_array, &e.lineage)?;
        }
        Ok(db)
    }
}

/// A Fig. 9 random numpy pipeline with its arrays renamed `<prefix>a<i>`;
/// returns the corpus and the main path.
fn numpy_pipeline(seed: u64, n_ops: usize, cells: usize, prefix: &str) -> (Corpus, Vec<String>) {
    let p = generate(RandomPipelineSpec {
        seed,
        n_ops,
        initial_cells: cells,
    });
    let corpus = Corpus {
        arrays: p.arrays.clone(),
        edges: p
            .hops
            .into_iter()
            .map(|h| Edge {
                in_array: h.in_array,
                out_array: h.out_array,
                lineage: h.lineage,
            })
            .collect(),
    }
    .renamed(prefix);
    let path = p.main_path.iter().map(|n| format!("{prefix}{n}")).collect();
    (corpus, path)
}

/// Incompressible scatter lineage `out[i] <- in[perm(i)]` over `n` cells.
fn scatter(n: usize, rng: &mut Rng, in_array: &str, out_array: &str) -> Edge {
    let mut perm: Vec<i64> = (0..n as i64).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i + 1));
    }
    let mut t = LineageTable::with_capacity(1, 1, n);
    for (i, p) in perm.into_iter().enumerate() {
        t.push_row(&[i as i64, p]);
    }
    Edge {
        in_array: in_array.to_string(),
        out_array: out_array.to_string(),
        lineage: t,
    }
}

/// Initial cells of the served Fig. 9 pipelines (§VII.D uses 100 000).
const PIPELINE_CELLS: usize = 100_000;
/// Served pipelines: this many 5-op and as many 10-op.
const PIPELINES_PER_LENGTH: usize = 2;
/// Arrays in the served scatter chain, and cells per array. Below the
/// default composite-edge support cap, so hot chain paths get composites.
const SCATTER_CHAIN: usize = 4;
const SCATTER_CELLS: usize = 50_000;
/// Cold edges of the served database, and rows in each.
const COLD_EDGES: usize = 4;
const COLD_ROWS: usize = 1 << 18;

/// Seed of the generator that draws the served pipelines' operations.
/// Fixed, so the database has the same shape (edges, rows, compressed
/// size) under every `--seed`; the seed varies the scatter permutations,
/// the queried cells and the writers' pipelines instead. Drawing the
/// operations from `--seed` too moved query p50 by 2.5x between seeds.
const PIPELINE_SHAPE_SEED: u64 = 9;

/// The served database of `serve_read` and `serve_mixed`: Fig. 9 random
/// numpy pipelines, an incompressible scatter chain and four cold 256k-row
/// scatter edges, and the query paths over them, hottest first.
pub struct ServeInputs {
    pub corpus: Corpus,
    pub paths: Vec<Vec<String>>,
    /// The scatter chain, backward: the reopen probe's first query path.
    pub chain_back: Vec<String>,
}

pub fn serve_inputs(seed: u64) -> ServeInputs {
    let mut shape_rng = Rng::new(derive(PIPELINE_SHAPE_SEED, 1));
    let mut rng = Rng::new(derive(seed, 1));
    let mut corpus = Corpus::default();
    let mut paths = Vec::new();
    for (k, n_ops) in [5, 10]
        .into_iter()
        .flat_map(|n| std::iter::repeat_n(n, PIPELINES_PER_LENGTH))
        .enumerate()
    {
        let (c, main) = numpy_pipeline(
            shape_rng.next_u64(),
            n_ops,
            PIPELINE_CELLS,
            &format!("p{k}_"),
        );
        corpus.extend(c);
        let back: Vec<String> = main.iter().rev().cloned().collect();
        // Whole path both ways, plus a two-hop window each way.
        let mid = (main.len() - 3) / 2;
        paths.push(main[mid..mid + 3].to_vec());
        paths.push(back[mid..mid + 3].to_vec());
        paths.push(main);
        paths.push(back);
    }
    let chain: Vec<String> = (0..SCATTER_CHAIN).map(|i| format!("s{i}")).collect();
    for name in &chain {
        corpus.arrays.push((name.clone(), vec![SCATTER_CELLS]));
    }
    for w in chain.windows(2) {
        corpus
            .edges
            .push(scatter(SCATTER_CELLS, &mut rng, &w[0], &w[1]));
    }
    // Cold incompressible edges that no query path touches: every eager
    // open decodes and checksums them, lazy opens skip them. They make the
    // eager reopen ~100 ms of decode work; without them (~45 ms) the
    // host's millisecond-scale stalls moved the eager first answer by
    // 0.17-0.26 (IQR/median) between runs. Four quarter-size edges rather
    // than one: the parallel open then decodes on every worker each time,
    // where one big edge left peak RSS bimodal (256 or 408 MB) depending
    // on which worker's allocator arena held it.
    for j in 0..COLD_EDGES {
        let (i, o) = (format!("cold{j}_in"), format!("cold{j}_out"));
        corpus.arrays.push((i.clone(), vec![COLD_ROWS]));
        corpus.arrays.push((o.clone(), vec![COLD_ROWS]));
        corpus.edges.push(scatter(COLD_ROWS, &mut rng, &i, &o));
    }
    let back: Vec<String> = chain.iter().rev().cloned().collect();
    paths.push(chain[1..].to_vec());
    paths.push(back[1..].to_vec());
    paths.push(chain);
    paths.push(back.clone());
    // A fixed interleaving, so the hottest paths mix pipelines and chain.
    let mut order_rng = Rng::new(derive(PIPELINE_SHAPE_SEED, 2));
    for i in (1..paths.len()).rev() {
        paths.swap(i, order_rng.below(i + 1));
    }
    ServeInputs {
        corpus,
        paths,
        chain_back: back,
    }
}

/// One query: a path and the cells of its first array.
#[derive(Debug, Clone)]
pub struct Query {
    pub path: Vec<String>,
    pub cells: Vec<Vec<i64>>,
}

impl Query {
    /// The net protocol request line (without the newline).
    pub fn request(&self) -> String {
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| c.iter().map(i64::to_string).collect::<Vec<_>>().join(","))
            .collect();
        format!("query {} {}", self.path.join(","), cells.join(";"))
    }

    pub fn path_refs(&self) -> Vec<&str> {
        self.path.iter().map(String::as_str).collect()
    }
}

/// Longest run of a range query, along the last axis.
const RANGE_CELLS: usize = 16;
/// Share of point queries; the rest are ranges.
const POINT_SHARE: f64 = 0.75;

/// A seeded query at a random cell (or run of cells) of `path[0]`.
pub fn random_query(corpus: &Corpus, path: &[String], rng: &mut Rng) -> Query {
    let run = if rng.unit() < POINT_SHARE {
        1
    } else {
        RANGE_CELLS
    };
    query_run(corpus, path, rng, run)
}

/// A seeded query at one random cell of `path[0]`.
pub fn random_point(corpus: &Corpus, path: &[String], rng: &mut Rng) -> Query {
    query_run(corpus, path, rng, 1)
}

/// `run` consecutive cells along the last axis, from a random start.
fn query_run(corpus: &Corpus, path: &[String], rng: &mut Rng, run: usize) -> Query {
    let shape = corpus.shape(&path[0]);
    let mut first: Vec<i64> = shape.iter().map(|&d| rng.below(d) as i64).collect();
    let last = shape.len() - 1;
    let run = run.min(shape[last]);
    first[last] = first[last].min((shape[last] - run) as i64);
    let cells = (0..run as i64)
        .map(|d| {
            let mut c = first.clone();
            c[last] += d;
            c
        })
        .collect();
    Query {
        path: path.to_vec(),
        cells,
    }
}

/// `n` queries whose paths follow a Zipf(1) skew over `paths` (hottest
/// first): a few paths are hot, most are cold.
pub fn query_pool(corpus: &Corpus, paths: &[Vec<String>], seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    let weights: Vec<f64> = (1..=paths.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..n)
        .map(|_| {
            let mut x = rng.unit() * total;
            let mut rank = 0;
            while rank + 1 < weights.len() && x >= weights[rank] {
                x -= weights[rank];
                rank += 1;
            }
            random_query(corpus, &paths[rank], &mut rng)
        })
        .collect()
}

/// `k` distinct seeded indices below `n`.
pub fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut out: Vec<usize> = Vec::with_capacity(k);
    while out.len() < k.min(n) {
        let i = rng.below(n);
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// Initial cells and length of the small pipelines the writers ingest.
const WRITER_CELLS: usize = 2048;
const WRITER_OPS: usize = 3;

/// Distinct small numpy pipelines for the writer; batch `i` ingests
/// template `i % len` under fresh array names. Their operations come from
/// the fixed shape seed (as for the served pipelines: seeded operations
/// moved commit p50 by 50% between seeds); `--seed` sets their order.
pub fn writer_templates(seed: u64, n: usize) -> Vec<Corpus> {
    let mut shape_rng = Rng::new(derive(PIPELINE_SHAPE_SEED, 3));
    let mut t: Vec<Corpus> = (0..n)
        .map(|_| numpy_pipeline(shape_rng.next_u64(), WRITER_OPS, WRITER_CELLS, "").0)
        .collect();
    let mut rng = Rng::new(derive(seed, 2));
    for i in (1..t.len()).rev() {
        t.swap(i, rng.below(i + 1));
    }
    t
}

/// Rows of the one large scatter edge in the ingest stream.
pub const BIG_EDGE_ROWS: usize = 1 << 20;

/// The `ingest_reopen` stream: one single-edge batch per generation, a
/// seeded mix of compressible edges (one_to_one, convolution, random numpy
/// hops) and incompressible scatter edges, with one ~1M-row scatter edge.
pub struct IngestStream {
    pub batches: Vec<Corpus>,
    /// A query through the big edge, and one along a numpy pipeline.
    pub big_query: Query,
    pub pipeline_query: Query,
    /// Paths for the query probe over the reopened database, hottest
    /// first: the big edge backward (its stored orientation; forward would
    /// re-derive 1M rows after every reopen), then the first scatter edges
    /// both ways.
    pub paths: Vec<Vec<String>>,
}

pub fn ingest_stream(seed: u64, generations: usize) -> IngestStream {
    let mut rng = Rng::new(derive(seed, 3));
    let big_at = generations / 4 + rng.below(generations / 8 + 1);
    let mut batches = Vec::with_capacity(generations);
    let mut pending_hops: Vec<Corpus> = Vec::new();
    let mut pipelines = 0usize;
    let mut paths: Vec<Vec<String>> = Vec::new();
    let mut first_pipeline: Option<Vec<String>> = None;
    for g in 0..generations {
        if g == big_at {
            let e = scatter(BIG_EDGE_ROWS, &mut rng, "big_in", "big_out");
            batches.push(Corpus {
                arrays: vec![
                    ("big_in".to_string(), vec![BIG_EDGE_ROWS]),
                    ("big_out".to_string(), vec![BIG_EDGE_ROWS]),
                ],
                edges: vec![e],
            });
            continue;
        }
        if let Some(hop) = pending_hops.pop() {
            batches.push(hop);
            continue;
        }
        let n = 2048 + rng.below(14 * 1024);
        let (i, o) = (format!("e{g}_in"), format!("e{g}_out"));
        let x = rng.unit();
        let edge = if x < 0.35 && g + 8 < generations {
            // A whole 4-op pipeline, one hop per generation, in order.
            let (c, main) =
                numpy_pipeline(rng.next_u64(), 4, WRITER_CELLS, &format!("q{pipelines}_"));
            pipelines += 1;
            let shape_of = |name: &str| c.shape(name).to_vec();
            let mut hops: Vec<Corpus> = c
                .edges
                .iter()
                .map(|e| Corpus {
                    arrays: vec![
                        (e.in_array.clone(), shape_of(&e.in_array)),
                        (e.out_array.clone(), shape_of(&e.out_array)),
                    ],
                    edges: vec![e.clone()],
                })
                .collect();
            hops.reverse();
            batches.push(hops.pop().expect("pipelines have hops"));
            pending_hops = hops;
            first_pipeline.get_or_insert(main);
            continue;
        } else if x < 0.55 {
            edges::one_to_one(n)
        } else if x < 0.70 {
            edges::convolution(n)
        } else {
            let e = scatter(n, &mut rng, &i, &o);
            if paths.len() < 8 {
                paths.push(vec![o.clone(), i.clone()]);
                paths.push(vec![i.clone(), o.clone()]);
            }
            batches.push(Corpus {
                arrays: vec![(i, vec![n]), (o, vec![n])],
                edges: vec![e],
            });
            continue;
        };
        let (lineage, out_shape, in_shape) = edge;
        batches.push(Corpus {
            arrays: vec![(i.clone(), in_shape), (o.clone(), out_shape)],
            edges: vec![Edge {
                in_array: i,
                out_array: o,
                lineage,
            }],
        });
    }
    let mut all = Corpus::default();
    for b in &batches {
        all.extend(Corpus {
            arrays: b.arrays.clone(),
            edges: Vec::new(),
        });
    }
    let big = vec!["big_out".to_string(), "big_in".to_string()];
    let pipe = first_pipeline.expect("the stream holds at least one pipeline");
    let big_query = random_query(&all, &big, &mut rng);
    let pipeline_query = random_query(&all, &pipe, &mut rng);
    paths.insert(0, big);
    IngestStream {
        batches,
        big_query,
        pipeline_query,
        paths,
    }
}

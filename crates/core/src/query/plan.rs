//! Multi-hop query planning (and the batched executor).
//!
//! The paper executes `prov_query` hops strictly in path order (§V.B.3),
//! and so does every planned query, with one exception:
//!
//! * **Composite edges** ([`PlanDecision::CompositeEdge`]) — a θ-join of
//!   edges is itself an edge. When the planner keeps seeing the same
//!   multi-hop path (`CompositePolicy::hit_threshold` sightings), the
//!   joined relation is compressed once into a real `CompressedTable`,
//!   registered in the [`StorageManager`] keyed by the path, and later
//!   queries run it as a *single* probe. Ingest into any member edge
//!   invalidates the composite (see `StorageManager::observe_composite`);
//!   policy caps mark oversized paths unmaterializable instead.
//!
//! * **Path order** ([`PlanDecision::PathOrder`]) — every other query
//!   runs `path_order`.
//!
//! Every decision is surfaced in [`QueryStats::plan`] as a [`PlanReport`].
//! The whole module sits behind [`QueryOptions::use_planner`]; with it
//! off, no composite is counted, built or served, and `path_order`
//! reproduces the paper's strict left-to-right chain exactly.
//!
//! `execute_batch` is the planner's vectorized entry point: many queries
//! sharing one path are deduplicated into a single set of unique frontier
//! boxes with per-query owner bitsets, each hop resolves its table once
//! and probes each unique box once, and results are demultiplexed per
//! query at the end — one index pass instead of Q passes.

use crate::error::Result;
use crate::interval::Interval;
use crate::query::exec::{HopStats, QueryExec, QueryStats};
use crate::query::QueryOptions;
use crate::storage::{CompositeProbe, StorageManager};
use crate::table::{BoxTable, Cell, CompressedTable, LineageTable, Orientation};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// What the planner decided to do with one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDecision {
    /// Hops ran strictly in path order (no composite edge served the
    /// path).
    PathOrder,
    /// A materialized composite edge served the whole path as one probe.
    CompositeEdge {
        /// Number of path hops the single probe replaced.
        hops_folded: usize,
    },
}

/// The plan one query ran with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// What the planner chose.
    pub decision: PlanDecision,
}

impl PlanDecision {
    /// Short stable label, used by the CLI and the net protocol's stats
    /// rendering.
    pub fn label(&self) -> &'static str {
        match self {
            PlanDecision::PathOrder => "path_order",
            PlanDecision::CompositeEdge { .. } => "composite",
        }
    }
}

/// The paper's strict left-to-right chain: resolve each hop, join, merge
/// per [`QueryOptions::merge`], stop early on an empty frontier (the
/// result then carries the *last* array's arity). This is both the
/// `use_planner = false` ablation and the plan every planned query runs
/// when no composite edge serves its path.
pub(crate) fn path_order(
    storage: &StorageManager,
    path: &[&str],
    mut cur: BoxTable,
    opts: QueryOptions,
) -> Result<(BoxTable, QueryStats)> {
    let exec = QueryExec::new(opts);
    let mut stats = QueryStats::default();
    for hop in path.windows(2) {
        let (table, _direction) = storage.resolve_hop(hop[0], hop[1])?;
        let (mut next, hop_stats) = exec.hop(&cur, &table)?;
        stats.hops.push(hop_stats);
        if opts.merge {
            next.merge();
        }
        cur = next;
        if cur.is_empty() {
            let last = storage.array(path[path.len() - 1])?;
            return Ok((BoxTable::new(last.ndim()), stats));
        }
    }
    Ok((cur, stats))
}

/// Plan and execute one query (the `use_planner = true` path): serve the
/// path from a composite edge if one exists (or materializes now), else
/// run [`path_order`]. Returns exactly the cells [`path_order`] would,
/// with [`QueryStats::plan`] set.
pub(crate) fn execute(
    storage: &StorageManager,
    path: &[&str],
    cur: BoxTable,
    opts: QueryOptions,
) -> Result<(BoxTable, QueryStats)> {
    if let Some(table) = composite_for(storage, path) {
        return composite_serve(path.len() - 1, cur, opts, &table);
    }
    let (out, mut stats) = path_order(storage, path, cur, opts)?;
    stats.plan = Some(PlanReport {
        decision: PlanDecision::PathOrder,
    });
    Ok((out, stats))
}

/// Record one sighting of `path` and return the composite table that
/// serves it: an existing one, or one materialized now that the path is
/// hot. `None` means path order runs.
fn composite_for(storage: &StorageManager, path: &[&str]) -> Option<Arc<CompressedTable>> {
    // A single hop has no composite: skip allocating its key.
    if path.len() < 3 {
        return None;
    }
    let key: Vec<String> = path.iter().map(|s| s.to_string()).collect();
    match storage.observe_composite(&key) {
        CompositeProbe::Serve(table) => Some(table),
        CompositeProbe::Materialize => try_materialize(storage, path, &key),
        CompositeProbe::Pass => None,
    }
}

/// One probe against a materialized composite table covering the path.
fn composite_serve(
    hops_folded: usize,
    cur: BoxTable,
    opts: QueryOptions,
    table: &CompressedTable,
) -> Result<(BoxTable, QueryStats)> {
    let exec = QueryExec::new(opts);
    let (mut out, hop) = exec.hop(&cur, table)?;
    if opts.merge {
        out.merge();
    }
    let stats = QueryStats {
        hops: vec![hop],
        plan: Some(PlanReport {
            decision: PlanDecision::CompositeEdge { hops_folded },
        }),
    };
    Ok((out, stats))
}

/// The union of a table's primary-side boxes (the cells it stores any
/// lineage for). `None` if any primary cell is not an absolute interval.
fn primary_support(table: &CompressedTable) -> Option<BoxTable> {
    let pa = table.primary_arity();
    let mut support = BoxTable::new(pa);
    let mut bx = Vec::with_capacity(pa);
    for row in 0..table.n_rows() {
        bx.clear();
        for k in 0..pa {
            match table.cell(row, k) {
                Cell::Abs(ivl) => bx.push(ivl),
                _ => return None,
            }
        }
        support.push_box(&bx);
    }
    Some(support)
}

/// Materialize the composite edge for `path`: join the whole chain over
/// the first table's support, compress the result as a real backward
/// table (primary side = first array), and register it. Returns `None`
/// without installing when the member tables aren't all resident yet
/// (retried on the next sighting); installs an *unmaterializable* marker
/// when a policy cap is exceeded (never retried until an ingest drops
/// the entry).
fn try_materialize(
    storage: &StorageManager,
    path: &[&str],
    key: &[String],
) -> Option<Arc<CompressedTable>> {
    let policy = storage.composite_policy();
    let mut tables: Vec<Arc<CompressedTable>> = Vec::with_capacity(path.len() - 1);
    for hop in path.windows(2) {
        let table = storage.peek_hop(hop[0], hop[1])?;
        if table.is_generalized() {
            return None;
        }
        tables.push(table);
    }
    let mut support = primary_support(&tables[0])?;
    support.merge();
    if support.volume() > u128::from(policy.max_support_cells) {
        storage.install_composite(key, None);
        return None;
    }
    let first_shape = storage.array(path[0]).ok()?.shape.clone();
    let last_shape = storage.array(path[path.len() - 1]).ok()?.shape.clone();
    let exec = QueryExec::new(QueryOptions {
        parallel: false,
        ..QueryOptions::default()
    });
    let refs: Vec<&CompressedTable> = tables.iter().map(|t| t.as_ref()).collect();
    let mut lineage = LineageTable::new(first_shape.len(), last_shape.len());
    for source in support.cell_set() {
        let q = BoxTable::from_cells(first_shape.len(), std::slice::from_ref(&source));
        let (out, _) = exec.chain(&q, &refs).ok()?;
        for target in out.cell_set() {
            if lineage.n_rows() >= policy.max_rows {
                storage.install_composite(key, None);
                return None;
            }
            let mut row = source.clone();
            row.extend(target);
            lineage.push_row(&row);
        }
    }
    let table = crate::provrc::compress_opts(
        &lineage,
        &first_shape,
        &last_shape,
        Orientation::Backward,
        storage.compress_options(),
    );
    let table = Arc::new(table);
    if !table.is_generalized() {
        table.ensure_index();
    }
    storage.install_composite(key, Some(Arc::clone(&table)));
    Some(table)
}

/// Vectorized execution of many queries sharing one path: deduplicate the
/// union of all frontiers into unique boxes with per-query owner bitsets,
/// resolve each hop's table once, probe each unique box once, propagate
/// owner sets to the output boxes, and demultiplex at the end. Returns
/// one result frontier per input query (cells of the path's last array)
/// plus the batch-wide aggregated stats.
///
/// Batch planning is limited to composite-edge serving (one sighting per
/// batch call); per-query frontiers are not merged between hops — owners
/// differ per box, so only the final demultiplexed results merge.
pub(crate) fn execute_batch(
    storage: &StorageManager,
    path: &[&str],
    frontiers: &[BoxTable],
    opts: QueryOptions,
) -> Result<(Vec<BoxTable>, QueryStats)> {
    let n_hops = path.len() - 1;
    let last_ndim = storage.array(path[path.len() - 1])?.ndim();
    let nq = frontiers.len();
    let words = nq.div_ceil(64);

    // Seed the unique-box set from every query's frontier.
    let mut uniq: Vec<OwnedBox> = Vec::new();
    let mut slots: HashMap<Vec<Interval>, usize> = HashMap::new();
    for (q, frontier) in frontiers.iter().enumerate() {
        for b in frontier.boxes() {
            let slot = *slots.entry(b.to_vec()).or_insert_with(|| {
                uniq.push((b.to_vec(), vec![0u64; words]));
                uniq.len() - 1
            });
            uniq[slot].1[q / 64] |= 1 << (q % 64);
        }
    }

    let exec = QueryExec::new(opts);
    let mut stats = QueryStats::default();

    // Composite serving (the only batch-level plan beyond path order).
    let composite = if opts.use_planner {
        composite_for(storage, path)
    } else {
        None
    };

    let decision = if let Some(table) = composite {
        if !uniq.is_empty() {
            let (next, hop) = batch_hop(&exec, &uniq, &table, words)?;
            stats.hops.push(hop);
            uniq = next;
        }
        PlanDecision::CompositeEdge {
            hops_folded: n_hops,
        }
    } else {
        for hop in path.windows(2) {
            if uniq.is_empty() {
                break;
            }
            let (table, _direction) = storage.resolve_hop(hop[0], hop[1])?;
            let (next, hop_stats) = batch_hop(&exec, &uniq, &table, words)?;
            stats.hops.push(hop_stats);
            uniq = next;
        }
        PlanDecision::PathOrder
    };
    if opts.use_planner {
        stats.plan = Some(PlanReport { decision });
    }

    // Demultiplex: each query collects the unique boxes it owns.
    let mut results = Vec::with_capacity(nq);
    for q in 0..nq {
        let mut out = BoxTable::new(last_ndim);
        for (bx, owners) in &uniq {
            if owners[q / 64] >> (q % 64) & 1 == 1 {
                out.push_box(bx);
            }
        }
        if opts.merge {
            out.merge();
        }
        results.push(out);
    }
    Ok((results, stats))
}

/// A deduplicated frontier box plus the bitset of queries that own it.
type OwnedBox = (Vec<Interval>, Vec<u64>);

/// One batched hop: probe every unique box against `table`, union owner
/// bitsets onto the (deduplicated) output boxes, aggregate the stats.
fn batch_hop(
    exec: &QueryExec,
    uniq: &[OwnedBox],
    table: &CompressedTable,
    words: usize,
) -> Result<(Vec<OwnedBox>, HopStats)> {
    let mut agg = HopStats {
        rows_probed: 0,
        rows_matched: 0,
        boxes_emitted: 0,
        wall: Duration::ZERO,
        used_index: true,
        threads: 1,
    };
    let mut next: Vec<OwnedBox> = Vec::new();
    let mut slots: HashMap<Vec<Interval>, usize> = HashMap::new();
    for (bx, owners) in uniq {
        let mut probe = BoxTable::new(bx.len());
        probe.push_box(bx);
        let (out, hop) = exec.hop(&probe, table)?;
        agg.rows_probed += hop.rows_probed;
        agg.rows_matched += hop.rows_matched;
        agg.wall += hop.wall;
        agg.used_index &= hop.used_index;
        agg.threads = agg.threads.max(hop.threads);
        for ob in out.boxes() {
            let slot = *slots.entry(ob.to_vec()).or_insert_with(|| {
                next.push((ob.to_vec(), vec![0u64; words]));
                next.len() - 1
            });
            for (dst, src) in next[slot].1.iter_mut().zip(owners) {
                *dst |= src;
            }
        }
    }
    agg.boxes_emitted = next.len();
    Ok((next, agg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Dslog, TableCapture};
    use crate::storage::Materialize;

    /// `hops` scatter-permutation hops over `[n]` arrays S0..S`hops`, with
    /// both orientations of every edge materialized.
    fn chain(hops: usize, n: usize) -> Dslog {
        let mut db = Dslog::new();
        db.storage_mut().set_materialize(Materialize::Both);
        for i in 0..=hops {
            db.define_array(&format!("S{i}"), &[n]).unwrap();
        }
        for i in 0..hops {
            let mut t = LineageTable::new(1, 1);
            for v in 0..n as i64 {
                t.push_row(&[v, (v * 37 + 11) % n as i64]);
            }
            db.add_lineage(
                &format!("S{}", i + 1),
                &format!("S{i}"),
                &TableCapture::new(t),
            )
            .unwrap();
        }
        db
    }

    /// Replace hop `i`'s edge with a sparse relation linking only
    /// `support` cells.
    fn sparsify_hop(db: &mut Dslog, i: usize, n: usize, support: usize) {
        let mut t = LineageTable::new(1, 1);
        for s in 0..support as i64 {
            let v = (s * 977 + 3) % n as i64;
            t.push_row(&[v, (v * 37 + 11) % n as i64]);
        }
        db.add_lineage(
            &format!("S{}", i + 1),
            &format!("S{i}"),
            &TableCapture::new(t),
        )
        .unwrap();
    }

    fn path(hops: usize) -> Vec<String> {
        (0..=hops).map(|i| format!("S{i}")).collect()
    }

    fn planner(use_planner: bool) -> QueryOptions {
        QueryOptions {
            use_planner,
            ..QueryOptions::default()
        }
    }

    /// Per-hop work, without the wall-clock time.
    fn work(s: &QueryStats) -> Vec<(usize, usize, usize)> {
        s.hops
            .iter()
            .map(|h| (h.rows_probed, h.rows_matched, h.boxes_emitted))
            .collect()
    }

    #[test]
    fn skewed_chain_runs_path_order_like_the_ablation() {
        // Hop 3 is far more selective than the hops before it; the planner
        // still runs the chain in path order, hop for hop like the ablation.
        let n = 256;
        let mut db = chain(4, n);
        sparsify_hop(&mut db, 3, n, 5);
        let names = path(4);
        let p: Vec<&str> = names.iter().map(String::as_str).collect();
        let cells: Vec<Vec<i64>> = (0..64).map(|v| vec![v]).collect();

        let on = db.prov_query_opts(&p, &cells, planner(true)).unwrap();
        let off = db.prov_query_opts(&p, &cells, planner(false)).unwrap();
        assert_eq!(
            on.stats.plan.as_ref().unwrap().decision,
            PlanDecision::PathOrder
        );
        assert!(off.stats.plan.is_none());
        assert_eq!(on.cells.cell_set(), off.cells.cell_set());
        assert_eq!(on.hops, 4);
        assert_eq!(work(&on.stats), work(&off.stats));
    }

    #[test]
    fn empty_hop_stops_path_order_at_the_empty_frontier() {
        // S0 ← S1 ← S2 ← S3 where the S1–S2 edge holds no rows. S3 is 2-D,
        // so the empty answer's arity is the last array's, not the
        // frontier's.
        let n = 64;
        let mut db = Dslog::new();
        for name in ["S0", "S1", "S2"] {
            db.define_array(name, &[n]).unwrap();
        }
        db.define_array("S3", &[n, 2]).unwrap();
        let mut first = LineageTable::new(1, 1);
        let mut last = LineageTable::new(1, 2);
        for v in 0..n as i64 {
            first.push_row(&[v, v]);
            last.push_row(&[v, v, v % 2]);
        }
        db.add_lineage("S1", "S0", &TableCapture::new(first))
            .unwrap();
        db.add_lineage("S2", "S1", &TableCapture::new(LineageTable::new(1, 1)))
            .unwrap();
        db.add_lineage("S3", "S2", &TableCapture::new(last))
            .unwrap();
        let p = ["S0", "S1", "S2", "S3"];
        for use_planner in [true, false] {
            let result = db
                .prov_query_opts(&p, &[vec![0], vec![1]], planner(use_planner))
                .unwrap();
            assert!(result.cells.is_empty());
            assert_eq!(result.cells.arity(), 2);
            assert_eq!(result.hops, 2, "path order stops at the empty frontier");
            assert_eq!(
                result.stats.plan.map(|r| r.decision),
                use_planner.then_some(PlanDecision::PathOrder)
            );
        }
    }
}

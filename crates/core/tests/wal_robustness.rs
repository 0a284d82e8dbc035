//! Fault-injected durability tests for the operation log.
//!
//! The contract under test: a commit killed at ANY gated IO — log append,
//! log fsync, table write, catalog write, catalog rename, directory sync —
//! leaves the store openable and verify-clean, with the visible state
//! equal to exactly the pre-op or the post-op snapshot, never a torn
//! mixture. And `open_as_of` resolves every retained generation to the
//! same answers as a directory copy taken when that generation was
//! current.

use dslog::api::{Dslog, TableCapture};
use dslog::storage::persist;
use dslog::storage::wal::{self, IoFault, IoPolicy, OpKind};
use dslog::table::LineageTable;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dslog-wal-rob-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Identity lineage over two 1-d arrays of 6 cells.
fn chain_table() -> LineageTable {
    let mut t = LineageTable::new(1, 1);
    for i in 0..6 {
        t.push_row(&[i, i]);
    }
    t
}

/// A[6,2] → B[6] with rows (i) ← (i, j), the shared sample edge.
fn first_edge_table() -> LineageTable {
    let mut t = LineageTable::new(1, 2);
    for i in 0..6 {
        for j in 0..2 {
            t.push_row(&[i, i, j]);
        }
    }
    t
}

/// Save generation 1: arrays A, B and the A→B edge.
fn seed_store(dir: &Path, gzip: bool) -> Dslog {
    let mut db = Dslog::new();
    db.define_array("A", &[6, 2]).unwrap();
    db.define_array("B", &[6]).unwrap();
    db.add_lineage("A", "B", &TableCapture::new(first_edge_table()))
        .unwrap();
    db.save(dir, gzip).unwrap();
    db
}

/// Stage the second generation in memory: array C and the B→C edge.
fn stage_second_edge(db: &mut Dslog) {
    db.define_array("C", &[6]).unwrap();
    db.add_lineage("B", "C", &TableCapture::new(chain_table()))
        .unwrap();
}

/// Copy a flat database directory (no subdirectories are ever written).
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Kill a commit at every gated IO position, for every injectable fault,
/// in both storage formats. Each kill point gets a fresh store; after the
/// injected failure the directory must open, verify clean, and read as
/// exactly generation 1 (pre-op) or generation 2 (post-op).
#[test]
fn kill_point_sweep_leaves_store_openable() {
    for gzip in [false, true] {
        for fault in [
            IoFault::WriteError,
            IoFault::DiskFull,
            IoFault::ShortWrite,
            IoFault::SyncError,
        ] {
            // Measure the commit's gated-IO count with a tripwire placed
            // beyond any plausible position.
            let dir = temp_dir(&format!("probe-{gzip}-{fault:?}"));
            let mut db = seed_store(&dir, gzip);
            stage_second_edge(&mut db);
            let probe = IoPolicy::fail_at(fault, 1_000_000);
            db.set_io_policy(Some(probe.clone()));
            db.commit().unwrap();
            let total = probe.ios_seen();
            assert!(total >= 3, "commit performed only {total} gated IOs");
            std::fs::remove_dir_all(&dir).unwrap();

            for n in 1..=total {
                let dir = temp_dir(&format!("kill-{gzip}-{fault:?}-{n}"));
                let mut db = seed_store(&dir, gzip);
                stage_second_edge(&mut db);
                let policy = IoPolicy::fail_at(fault, n);
                db.set_io_policy(Some(policy.clone()));
                let outcome = db.commit();
                assert!(outcome.is_err(), "{fault:?} at IO {n} did not surface");
                drop(db);

                // The wounded store opens, verifies, and answers queries.
                let re = Dslog::options()
                    .open(&dir)
                    .unwrap_or_else(|e| panic!("{fault:?} at IO {n} broke open: {e}"));
                persist::verify(&dir)
                    .unwrap_or_else(|e| panic!("{fault:?} at IO {n} broke verify: {e}"));
                let generation = re.bound_database().unwrap().2;
                let pre = re.prov_query(&["B", "A"], &[vec![1]]).unwrap();
                assert!(pre.cells.contains_cell(&[1, 0]), "{fault:?} at IO {n}");
                match generation {
                    // Pre-op: the staged edge never became visible.
                    1 => assert!(
                        re.prov_query(&["C", "B"], &[vec![1]]).is_err(),
                        "{fault:?} at IO {n}: gen 1 store answers a gen 2 query"
                    ),
                    // Post-op: the commit point was passed before the fault.
                    2 => {
                        let post = re.prov_query(&["C", "B"], &[vec![1]]).unwrap();
                        assert!(post.cells.contains_cell(&[1]), "{fault:?} at IO {n}");
                    }
                    g => panic!("{fault:?} at IO {n}: torn generation {g}"),
                }
                // History stays readable whatever the kill point.
                wal::history(&dir)
                    .unwrap_or_else(|e| panic!("{fault:?} at IO {n} broke history: {e}"));
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

/// After an injected failure the SAME handle retries and lands the
/// generation; the error does not poison the in-memory state.
#[test]
fn failed_commit_retries_cleanly() {
    for fault in [IoFault::WriteError, IoFault::SyncError] {
        let dir = temp_dir(&format!("retry-{fault:?}"));
        let mut db = seed_store(&dir, false);
        stage_second_edge(&mut db);
        db.set_io_policy(Some(IoPolicy::fail_at(fault, 1)));
        assert!(db.commit().is_err());
        // The policy trips exactly once; the retry runs fault-free. The
        // retried commit may skip a generation number — file debris from
        // the failed attempt reserves it — so only monotonicity is pinned.
        db.commit().unwrap();
        let committed = db.bound_database().unwrap().2;
        assert!(committed >= 2, "retry landed at generation {committed}");

        let re = Dslog::options().open(&dir).unwrap();
        let r = re.prov_query(&["C", "B"], &[vec![1]]).unwrap();
        assert!(r.cells.contains_cell(&[1]));
        persist::verify(&dir).unwrap();
        let state = wal::replay(&wal::history(&dir).unwrap());
        assert_eq!(state.generation, committed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// `open_as_of` answers every retained generation exactly as a directory
/// copy taken while that generation was current — plain and gzip.
#[test]
fn as_of_parity_with_snapshot_copies() {
    for gzip in [false, true] {
        let dir = temp_dir(&format!("asof-{gzip}"));
        let mut db = Dslog::new();
        db.set_wal_retention(4);
        db.define_array("A", &[6, 2]).unwrap();
        db.define_array("B", &[6]).unwrap();
        db.add_lineage("A", "B", &TableCapture::new(first_edge_table()))
            .unwrap();
        db.save(&dir, gzip).unwrap();

        // Generations 2..4 each add one link to the chain; snapshot the
        // directory while each generation is current.
        let mut snaps: Vec<PathBuf> = vec![dir.with_file_name(format!(
            "{}-snap1",
            dir.file_name().unwrap().to_string_lossy()
        ))];
        copy_dir(&dir, &snaps[0]);
        for (g, name) in [(2u64, "C"), (3, "D"), (4, "E")] {
            let prev = ["B", "C", "D"][(g - 2) as usize];
            db.define_array(name, &[6]).unwrap();
            db.add_lineage(prev, name, &TableCapture::new(chain_table()))
                .unwrap();
            db.commit().unwrap();
            let snap = dir.with_file_name(format!(
                "{}-snap{g}",
                dir.file_name().unwrap().to_string_lossy()
            ));
            copy_dir(&dir, &snap);
            snaps.push(snap);
        }

        let chains: [&[&str]; 4] = [
            &["B", "A"],
            &["C", "B", "A"],
            &["D", "C", "B", "A"],
            &["E", "D", "C", "B", "A"],
        ];
        for g in 1..=4u64 {
            let asof = Dslog::options()
                .as_of(g)
                .open(&dir)
                .unwrap_or_else(|e| panic!("as-of {g} (gzip={gzip}) failed: {e}"));
            let snap = Dslog::options().open(&snaps[(g - 1) as usize]).unwrap();
            for path in &chains[..g as usize] {
                for probe in [1i64, 3] {
                    let a = asof.prov_query(path, &[vec![probe]]).unwrap();
                    let b = snap.prov_query(path, &[vec![probe]]).unwrap();
                    assert_eq!(
                        a.cells.cell_set(),
                        b.cells.cell_set(),
                        "as-of {g} diverged from snapshot on {path:?} (gzip={gzip})"
                    );
                }
            }
            // Arrays from later generations must not leak backwards.
            if (g as usize) < chains.len() {
                assert!(asof.prov_query(chains[g as usize], &[vec![1]]).is_err());
            }
        }
        assert!(Dslog::options().as_of(99).open(&dir).is_err());

        for snap in &snaps {
            std::fs::remove_dir_all(snap).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The log records the whole session in order, with actor attribution and
/// a replay that matches the committed state.
#[test]
fn history_replays_the_session() {
    let dir = temp_dir("history");
    let mut db = Dslog::new();
    db.set_wal_actor("suite");
    db.define_array("A", &[6, 2]).unwrap();
    db.define_array("B", &[6]).unwrap();
    db.add_lineage("A", "B", &TableCapture::new(first_edge_table()))
        .unwrap();
    db.save(&dir, false).unwrap();
    db.define_array("C", &[6]).unwrap();
    db.add_lineage("B", "C", &TableCapture::new(chain_table()))
        .unwrap();
    db.commit().unwrap();

    let records = wal::history(&dir).unwrap();
    let ids: Vec<u64> = records.iter().map(|r| r.op_id).collect();
    assert_eq!(ids, (1..=records.len() as u64).collect::<Vec<_>>());
    assert!(records.iter().all(|r| r.actor == "suite"));
    assert_eq!(
        records
            .iter()
            .filter(|r| matches!(r.kind, OpKind::Commit { .. }))
            .count(),
        2
    );

    let state = wal::replay(&records);
    assert_eq!(state.arrays, ["A", "B", "C"]);
    assert_eq!(
        state.edges,
        [
            ("A".to_string(), "B".to_string()),
            ("B".to_string(), "C".to_string())
        ]
    );
    assert_eq!(state.generation, db.bound_database().unwrap().2);
    assert_eq!(state.commits, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Garbage appended to the log is truncated away on the next open, and
/// the store keeps committing cleanly afterwards.
#[test]
fn torn_log_tail_truncated_on_reopen() {
    let dir = temp_dir("torn");
    let mut db = seed_store(&dir, false);
    stage_second_edge(&mut db);
    db.commit().unwrap();
    drop(db);

    let log_path = dir.join("ops.log");
    let clean = std::fs::read(&log_path).unwrap();
    let before = wal::history(&dir).unwrap();
    let mut torn = clean.clone();
    torn.extend_from_slice(&42u32.to_le_bytes());
    torn.extend_from_slice(b"half a frame");
    std::fs::write(&log_path, &torn).unwrap();

    // Open recovers: the tail is dropped and physically truncated.
    let mut re = Dslog::options().open(&dir).unwrap();
    assert_eq!(wal::history(&dir).unwrap(), before);
    assert_eq!(std::fs::read(&log_path).unwrap(), clean);
    persist::verify(&dir).unwrap();

    // And the append position is sound: the next commit lands.
    re.define_array("D", &[6]).unwrap();
    re.add_lineage("C", "D", &TableCapture::new(chain_table()))
        .unwrap();
    re.commit().unwrap();
    let state = wal::replay(&wal::history(&dir).unwrap());
    assert_eq!(state.generation, 3);
    assert!(state.edges.contains(&("C".to_string(), "D".to_string())));
    std::fs::remove_dir_all(&dir).unwrap();
}

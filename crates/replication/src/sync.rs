//! Synchronous (single-threaded) replay and checkpoint construction.
//!
//! Two uses:
//!
//! * **Node bootstrap without a checkpoint** — a fresh RO node replays
//!   the whole REDO log to materialize its row replica and column
//!   indexes, exactly like crash recovery ("all states of the
//!   computation nodes can be rebuilt from shared storage", §2.2).
//! * **Checkpoint construction** — the RO leader produces a checkpoint
//!   from a state replayed up to a chosen log offset; because the replay
//!   is single-threaded and stops at the offset, the snapshot is
//!   trivially quiesced (the paper quiesces the live pipeline instead —
//!   behaviourally equivalent for everything the evaluation measures,
//!   see DESIGN.md §4).
//!
//! A checkpoint additionally stores the row-replica pages so a new node
//! skips row-store replay too. (The production system reads versioned
//! pages from PolarFS instead; the substitution is documented.)

use crate::buffer::{apply_txn_op, TxnBuffers};
use bytes::Bytes;
use imci_common::{Lsn, Result, Vid};
use imci_core::ColumnStore;
use imci_wal::{LogReader, RedoPayload};
use polarfs_sim::PolarFs;
use rowstore::{apply_entry, RowEngine};
use std::sync::Arc;

/// Outcome of a synchronous replay.
pub struct ReplicaState {
    /// Row replica with all pages materialized locally.
    pub engine: Arc<RowEngine>,
    /// Column indexes, watermarked at the last committed VID.
    pub store: Arc<ColumnStore>,
    /// Byte offset in the REDO log where replay stopped.
    pub stopped_at: u64,
    /// Last committed VID applied.
    pub last_vid: Vid,
    /// LSN of the last commit record applied.
    pub last_commit_lsn: Lsn,
}

/// Replay the REDO log from byte 0 up to `upto_offset` (None = current
/// end), building a fresh row replica + column store.
pub fn replay_log_sync(
    fs: &PolarFs,
    upto_offset: Option<u64>,
    group_cap: usize,
    large_txn_threshold: usize,
) -> Result<ReplicaState> {
    // The catalog is NOT pre-loaded from any shared object: the log's
    // DDL records rebuild it in LSN order, exactly like the live
    // pipeline does.
    let engine = RowEngine::new_replica(fs.clone(), usize::MAX / 2);
    let store = Arc::new(ColumnStore::new(group_cap));
    let cap = upto_offset.unwrap_or_else(|| fs.log_len(imci_wal::REDO_LOG_NAME));
    let mut reader = LogReader::new(fs.clone(), 0);
    let mut bufs = TxnBuffers::new(large_txn_threshold);
    let mut last_vid = Vid::ZERO;
    let mut last_commit_lsn = Lsn::ZERO;
    for e in reader.read_until(cap) {
        match &e.payload {
            RedoPayload::Commit { commit_vid } => {
                if let Some(txn) = bufs.commit(e.tid, *commit_vid, e.lsn) {
                    for op in &txn.ops {
                        apply_txn_op(&store, txn.vid, op)?;
                    }
                }
                last_vid = *commit_vid;
                last_commit_lsn = e.lsn;
                store.advance_all(*commit_vid);
            }
            RedoPayload::Abort => bufs.abort(e.tid),
            RedoPayload::Ddl { version, op } => {
                // Single-threaded replay: nothing is in flight, so both
                // sides of the DDL apply immediately and in LSN order.
                if engine.apply_ddl(*version, op)? {
                    crate::pipeline::apply_column_ddl(op, &engine, &store, last_vid)?;
                }
            }
            _ => {
                if let Some(change) = apply_entry(&engine, &e)? {
                    bufs.add_dml(change, &store)?;
                }
            }
        }
    }
    // Secondary indexes were maintained by apply_entry along the way.
    Ok(ReplicaState {
        engine,
        store,
        stopped_at: reader.offset().min(cap),
        last_vid,
        last_commit_lsn,
    })
}

/// Build checkpoint `seq` covering the log prefix `[0, upto_offset)`
/// (None = current end). Returns the checkpointed state (callers often
/// keep using it). Stores the column indexes (§7) plus the row-replica
/// pages under `ckpt/<seq>/rowpages/`.
pub fn take_checkpoint(
    fs: &PolarFs,
    seq: u64,
    upto_offset: Option<u64>,
    group_cap: usize,
) -> Result<ReplicaState> {
    let state = replay_log_sync(fs, upto_offset, group_cap, usize::MAX / 2)?;
    imci_core::write_checkpoint(
        fs,
        seq,
        state.last_vid.get(),
        state.last_commit_lsn.get(),
        state.stopped_at,
        &state.store.all(),
    )?;
    // The catalog snapshot (schemas + catalog version as of the redo
    // cursor) rides with the checkpoint: a node booting from it applies
    // only the DDL records *after* the cursor — no lazy refresh.
    fs.put_object(
        &imci_core::ckpt_catalog_key(seq),
        Bytes::from(state.engine.export_catalog()),
    );
    for (id, bytes) in state.engine.buffer_pool().export_pages() {
        fs.put_object(
            &format!("{}{:020}", imci_core::ckpt_rowpages_prefix(seq), id.get()),
            Bytes::from(bytes),
        );
    }
    Ok(state)
}

/// Load the row pages of checkpoint `seq` into `engine`'s buffer pool.
pub fn load_checkpoint_pages(fs: &PolarFs, seq: u64, engine: &RowEngine) -> Result<usize> {
    let keys = fs.list_objects(&imci_core::ckpt_rowpages_prefix(seq));
    let n = keys.len();
    for k in keys {
        let bytes = fs.get_object(&k)?;
        engine.buffer_pool().import_page(&bytes)?;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imci_common::{ColumnDef, DataType, IndexDef, IndexKind, TableId, Value};
    use imci_wal::{LogWriter, PropagationMode};

    fn rw_with_data(n: i64) -> (PolarFs, Arc<RowEngine>) {
        let fs = PolarFs::instant();
        let log = LogWriter::new(fs.clone(), PropagationMode::ReuseRedo);
        let rw = RowEngine::new_rw(fs.clone(), log, 1 << 20);
        rw.create_table(
            "t",
            vec![
                ColumnDef::not_null("id", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![
                IndexDef {
                    kind: IndexKind::Primary,
                    name: "PRIMARY".into(),
                    columns: vec![0],
                },
                IndexDef {
                    kind: IndexKind::Column,
                    name: "ci".into(),
                    columns: vec![0, 1],
                },
            ],
        )
        .unwrap();
        let mut txn = rw.begin();
        for pk in 0..n {
            rw.insert(&mut txn, "t", vec![Value::Int(pk), Value::Int(pk * 7)])
                .unwrap();
        }
        rw.commit(txn).unwrap();
        (fs, rw)
    }

    #[test]
    fn sync_replay_builds_both_formats() {
        let (fs, rw) = rw_with_data(200);
        let state = replay_log_sync(&fs, None, 64, usize::MAX / 2).unwrap();
        assert_eq!(state.engine.row_count("t").unwrap(), 200);
        let idx = state.store.index(TableId(1)).unwrap();
        let snap = idx.snapshot();
        assert_eq!(snap.get_by_pk(100).unwrap()[1], Value::Int(700));
        // Vid(1) is the CREATE TABLE's own commit (DDL is a committed
        // transaction now); the data transaction commits at Vid(2).
        assert_eq!(state.last_vid, Vid(2));
        assert_eq!(state.last_commit_lsn, rw.log().unwrap().written_lsn());
    }

    #[test]
    fn checkpoint_then_fast_start() {
        let (fs, rw) = rw_with_data(300);
        let ck = take_checkpoint(&fs, 1, None, 64).unwrap();
        // More traffic after the checkpoint.
        let mut txn = rw.begin();
        for pk in 300..400i64 {
            rw.insert(&mut txn, "t", vec![Value::Int(pk), Value::Int(0)])
                .unwrap();
        }
        rw.commit(txn).unwrap();

        // New node: catalog snapshot + pages from the checkpoint, then
        // catch up via the pipeline (no lazy refresh anywhere).
        let node = RowEngine::new_replica(fs.clone(), 1 << 20);
        node.import_catalog(&fs.get_object(&imci_core::ckpt_catalog_key(1)).unwrap())
            .unwrap();
        let n = load_checkpoint_pages(&fs, 1, &node).unwrap();
        assert!(n > 0);
        assert_eq!(node.row_count("t").unwrap(), 300, "pages restore rows");

        let meta = imci_core::read_meta(&fs, 1).unwrap();
        let rt = node.table("t").unwrap();
        let idx = imci_core::load_index(&fs, 1, &rt.schema, 64).unwrap();
        let store = Arc::new(ColumnStore::new(64));
        store.install(idx);
        let pipe = crate::pipeline::Pipeline::start(
            fs.clone(),
            node.clone(),
            store.clone(),
            crate::pipeline::ReplicationConfig {
                start_offset: meta.redo_offset,
                ..Default::default()
            },
        );
        let target = rw.log().unwrap().written_lsn().get();
        assert!(pipe.wait_applied(target, std::time::Duration::from_secs(20)));
        assert_eq!(node.row_count("t").unwrap(), 400, "caught up past ckpt");
        let idx = store.index(TableId(1)).unwrap();
        assert!(idx.snapshot().get_by_pk(399).is_some());
        assert!(idx.snapshot().get_by_pk(150).is_some());
        assert_eq!(pipe.error_count(), 0);
        pipe.stop();
        drop(ck);
    }

    #[test]
    fn partial_prefix_replay_stops_at_offset() {
        let (fs, rw) = rw_with_data(50);
        let offset_after_first = fs.log_len(imci_wal::REDO_LOG_NAME);
        let mut txn = rw.begin();
        for pk in 50..100i64 {
            rw.insert(&mut txn, "t", vec![Value::Int(pk), Value::Int(0)])
                .unwrap();
        }
        rw.commit(txn).unwrap();
        let state = replay_log_sync(&fs, Some(offset_after_first), 64, usize::MAX / 2).unwrap();
        assert_eq!(state.engine.row_count("t").unwrap(), 50);
        assert_eq!(state.stopped_at, offset_after_first);
    }
}

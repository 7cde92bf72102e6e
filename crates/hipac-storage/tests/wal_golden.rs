//! Golden bytes for the write-ahead log's on-disk frames.
//!
//! A committed batch is logged as `Begin`, one `Put` or `Delete` per
//! operation, and `Commit`, each framed as `[len: u32 LE][crc32: u32
//! LE][payload]`. The bytes below are what the log held for one such
//! batch; recovery and the replication tail read exactly this format,
//! so a change here is a durable-format change. Both ways a batch
//! reaches the log are pinned: [`Wal::append_all`] of records and the
//! store's commit path, which logs [`StoreOp`]s.

use hipac_common::TxnId;
use hipac_storage::{DurableStore, StoreOp, Wal, WalRecord};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hipac-wal-golden/{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One frame: the length, the CRC-32 of the payload (the IEEE
/// polynomial, as zlib's `crc32` computes it), the payload.
fn frame(crc: u32, payload: &[u8]) -> Vec<u8> {
    let mut f = (payload.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(&crc.to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// Transaction 300 (a two-byte varint) puts `ok` = `val` and deletes
/// `gone`.
fn golden() -> Vec<u8> {
    [
        // Begin: tag 1, txn 300.
        frame(0x123f_21ec, &[1, 0xac, 0x02]),
        // Put: tag 2, txn, key `ok`, value `val`, each length-prefixed.
        frame(
            0x5d3e_e8ad,
            &[2, 0xac, 0x02, 2, b'o', b'k', 3, b'v', b'a', b'l'],
        ),
        // Delete: tag 3, txn, key `gone`.
        frame(0xf032_f602, &[3, 0xac, 0x02, 4, b'g', b'o', b'n', b'e']),
        // Commit: tag 4, txn.
        frame(0x14f4_e307, &[4, 0xac, 0x02]),
    ]
    .concat()
}

fn ops() -> Vec<StoreOp> {
    vec![
        StoreOp::Put {
            key: b"ok".to_vec(),
            value: b"val".to_vec(),
        },
        StoreOp::Delete {
            key: b"gone".to_vec(),
        },
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn appended_records_write_the_golden_frames() {
    let path = tmpdir("records").join("wal.log");
    let txn = TxnId(300);
    let records = vec![
        WalRecord::Begin { txn },
        WalRecord::Put {
            txn,
            key: b"ok".to_vec(),
            value: b"val".to_vec(),
        },
        WalRecord::Delete {
            txn,
            key: b"gone".to_vec(),
        },
        WalRecord::Commit { txn },
    ];
    {
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append_all(&records).unwrap();
        wal.sync().unwrap();
        // A clean close trims the zero fill: the file ends at the frames.
    }
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(hex(&bytes), hex(&golden()));
    let (_, replayed) = Wal::open(&path).unwrap();
    assert_eq!(replayed, records);
}

#[test]
fn a_committed_batch_writes_the_golden_frames() {
    let dir = tmpdir("store");
    let store = DurableStore::open(&dir).unwrap();
    let lsn0 = store.durable_lsn();
    store.commit(TxnId(300), ops()).unwrap();
    let end = store.wal_size().unwrap() as usize;
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(hex(&bytes[lsn0 as usize..end]), hex(&golden()));
}

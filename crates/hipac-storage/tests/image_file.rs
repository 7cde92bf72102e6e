//! The image file's failure modes, seen through the store: a damaged
//! record is a `Corruption` error, never wrong bytes; a damaged or cut
//! directory or trailer, and a data file in the old paged format, are
//! refused at open; a `data.db.tmp` a crash left behind is deleted at
//! open.

use hipac_common::{HipacError, TxnId};
use hipac_storage::{DurableStore, StoreOp};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hipac-image-file/{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn put(key: &[u8], value: &[u8]) -> StoreOp {
    StoreOp::Put {
        key: key.to_vec(),
        value: value.to_vec(),
    }
}

/// A store whose pairs all sit in its image (the memtable is empty), closed.
fn checkpointed(name: &str) -> PathBuf {
    let dir = tmpdir(name);
    let store = DurableStore::open(&dir).unwrap();
    store
        .commit(
            TxnId(1),
            vec![
                put(b"alpha", b"first value"),
                put(b"beta", b"second value"),
                put(b"gamma", b"third value"),
            ],
        )
        .unwrap();
    store.checkpoint().unwrap();
    dir
}

fn open_error(dir: &Path) -> String {
    match DurableStore::open(dir) {
        Ok(_) => panic!("{}: a damaged image opened", dir.display()),
        Err(HipacError::Corruption(msg)) => msg,
        Err(e) => panic!("{}: not a Corruption error: {e}", dir.display()),
    }
}

fn flip_byte(path: &Path, at: u64) {
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut byte = [0u8];
    file.read_exact_at(&mut byte, at).unwrap();
    file.write_all_at(&[byte[0] ^ 0x20], at).unwrap();
}

#[test]
fn a_flipped_byte_in_a_record_fails_that_key_read() {
    let dir = checkpointed("flipped-record");
    let data = dir.join("data.db");
    let at = std::fs::read(&data)
        .unwrap()
        .windows(b"second value".len())
        .position(|w| w == b"second value")
        .expect("beta's value is in the image");
    flip_byte(&data, at as u64 + 3);
    let store = DurableStore::open(&dir).unwrap();
    assert!(
        matches!(store.get(b"beta"), Err(HipacError::Corruption(_))),
        "the damaged record reads as an error"
    );
    assert_eq!(store.get(b"alpha").unwrap(), Some(b"first value".to_vec()));
    assert_eq!(store.get(b"gamma").unwrap(), Some(b"third value".to_vec()));
    assert!(matches!(
        store.scan_prefix(b"b"),
        Err(HipacError::Corruption(_))
    ));
    assert_eq!(store.scan_prefix(b"g").unwrap().len(), 1);
}

#[test]
fn a_cut_or_damaged_trailer_or_directory_is_refused_at_open() {
    let full = std::fs::read(checkpointed("cut-source").join("data.db")).unwrap();
    let dir_offset = u64::from_le_bytes(full[full.len() - 24..full.len() - 16].try_into().unwrap());
    let cuts = [
        full.len() - 1,
        full.len() - 8,
        full.len() - 23,
        dir_offset as usize + 5,
        dir_offset as usize,
        3,
        0,
    ];
    for cut in cuts {
        let dir = tmpdir(&format!("cut-{cut}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("data.db"), &full[..cut]).unwrap();
        let msg = open_error(&dir);
        assert!(!msg.contains("HIPACDB1"), "cut at {cut}: {msg}");
    }
    // A flipped byte in a directory entry, and in the trailer's count.
    for at in [dir_offset + 6, full.len() as u64 - 12] {
        let dir = tmpdir(&format!("flip-{at}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("data.db"), &full).unwrap();
        flip_byte(&dir.join("data.db"), at);
        open_error(&dir);
    }
}

#[test]
fn a_paged_format_file_is_refused_with_the_format_break() {
    let dir = tmpdir("paged");
    std::fs::create_dir_all(&dir).unwrap();
    // The paged format's meta page: its magic, then heap and index roots.
    let mut page = vec![0u8; 4096];
    page[..8].copy_from_slice(&0x4849_5041_4344_4231u64.to_le_bytes());
    page[8..16].copy_from_slice(&1u64.to_le_bytes());
    page[16..24].copy_from_slice(&2u64.to_le_bytes());
    page.resize(3 * 4096, 0);
    std::fs::write(dir.join("data.db"), &page).unwrap();
    let msg = open_error(&dir);
    assert!(
        msg.contains("HIPACDB1") && msg.contains("no converter"),
        "{msg}"
    );
}

#[test]
fn a_leftover_tmp_image_is_deleted_at_open() {
    let dir = checkpointed("leftover-tmp");
    let tmp = dir.join("data.db.tmp");
    std::fs::write(&tmp, b"half an image").unwrap();
    let store = DurableStore::open(&dir).unwrap();
    assert!(!tmp.exists(), "the leftover is deleted");
    assert_eq!(store.len().unwrap(), 3);
    store.checkpoint().unwrap();
    assert!(!tmp.exists(), "the checkpoint renamed its own");
    drop(store);
    assert_eq!(DurableStore::open(&dir).unwrap().len().unwrap(), 3);
}

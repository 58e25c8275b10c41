//! Round-trip and reopen properties of the segment store.
//!
//! The contracts under test:
//! * whatever bytes go in come back bit-identical, across reopen;
//! * a reopened store never returns a checksum-failing record — torn
//!   tails and flipped bits are quarantined by truncation, with the
//!   loss reported through `OpenReport`;
//! * duplicate keys are append-only no-ops (content-addressed).

use nm_store::{Store, StoreError, SEGMENT_FILE};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers the cases of `any_single_byte_corruption_is_caught`.
static CORRUPTION_CASE: AtomicU64 = AtomicU64::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nm-store-rt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path) -> Store {
    Store::open(dir).unwrap_or_else(|e| panic!("open {}: {e}", dir.display()))
}

#[test]
fn put_get_survives_reopen_bit_identical() {
    let dir = tmpdir("reopen");
    let payloads: Vec<(u128, Vec<u8>)> = (0u128..20)
        .map(|k| {
            // Include f64 bit patterns with signed zeros and NaN bits:
            // the store must hand back *bytes*, not parsed floats.
            let mut p = Vec::new();
            for f in [
                0.0f64,
                -0.0,
                f64::from_bits(k as u64),
                1.0 / (k as f64 + 1.0),
            ] {
                p.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            (k * k + 1, p)
        })
        .collect();
    {
        let store = open(&dir);
        assert!(store.open_report().created);
        for (k, p) in &payloads {
            assert!(store.put(*k, p).unwrap_or_else(|e| panic!("{e}")));
        }
        store.sync().unwrap_or_else(|e| panic!("{e}"));
    }
    let store = open(&dir);
    assert!(!store.open_report().created);
    assert_eq!(store.open_report().salvaged_records, payloads.len() as u64);
    assert_eq!(store.open_report().truncated_at, None);
    for (k, p) in &payloads {
        let got = store.get(*k).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(got.as_deref(), Some(p.as_slice()));
    }
    assert_eq!(
        store.get(0xdead_beef).unwrap_or_else(|e| panic!("{e}")),
        None
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_put_is_a_no_op_and_grows_nothing() {
    let dir = tmpdir("dup");
    let store = open(&dir);
    assert!(store.put(7, b"payload").unwrap_or_else(|e| panic!("{e}")));
    let len_after_first = std::fs::metadata(store.path())
        .unwrap_or_else(|e| panic!("{e}"))
        .len();
    // Content-addressed: same key means same content; the second put
    // must not append a byte.
    assert!(!store.put(7, b"payload").unwrap_or_else(|e| panic!("{e}")));
    let len_after_second = std::fs::metadata(store.path())
        .unwrap_or_else(|e| panic!("{e}"))
        .len();
    assert_eq!(len_after_first, len_after_second);
    assert_eq!(store.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_quarantined_on_reopen() {
    let dir = tmpdir("torn");
    let seg;
    {
        let store = open(&dir);
        store
            .put(1, b"kept record")
            .unwrap_or_else(|e| panic!("{e}"));
        store
            .put(2, b"torn record")
            .unwrap_or_else(|e| panic!("{e}"));
        seg = store.path().to_path_buf();
    }
    // Tear the last record: drop its final 3 bytes, as a crash mid-append
    // would.
    let bytes = std::fs::read(&seg).unwrap_or_else(|e| panic!("{e}"));
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap_or_else(|e| panic!("{e}"));

    let store = open(&dir);
    let report = store.open_report();
    assert_eq!(report.salvaged_records, 1);
    assert!(report.salvage_performed());
    assert!(report.dropped_bytes > 0);
    assert!(report.corruption.is_some());
    assert_eq!(
        store.get(1).unwrap_or_else(|e| panic!("{e}")).as_deref(),
        Some(b"kept record".as_slice())
    );
    assert_eq!(store.get(2).unwrap_or_else(|e| panic!("{e}")), None);
    // The file was physically truncated: writes append cleanly after the
    // quarantine point and survive another reopen.
    assert!(store
        .put(3, b"after salvage")
        .unwrap_or_else(|e| panic!("{e}")));
    drop(store);
    let store = open(&dir);
    assert_eq!(store.open_report().truncated_at, None);
    assert_eq!(store.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn alien_file_is_rejected_as_incompatible() {
    let dir = tmpdir("alien");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{e}"));
    std::fs::write(dir.join(SEGMENT_FILE), b"not a segment at all")
        .unwrap_or_else(|e| panic!("{e}"));
    match Store::open(&dir) {
        Err(StoreError::IncompatibleSegment { .. }) => {}
        other => panic!("expected IncompatibleSegment, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary payloads round-trip bit-identical through write +
    /// reopen, and corrupting any single byte of the segment never
    /// yields a wrong payload — every key either returns its exact
    /// original bytes, is absent (quarantined), or `get` reports
    /// corruption; silent damage is impossible.
    #[test]
    fn any_single_byte_corruption_is_caught(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 1..8),
        corrupt_at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        // A directory per case: cases may repeat their values, and a
        // directory shared with another case could vanish mid-case.
        let case = CORRUPTION_CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "nm-store-prop-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = Store::open(&dir).unwrap_or_else(|e| panic!("{e}"));
            for (i, p) in payloads.iter().enumerate() {
                store.put(i as u128 + 1, p).unwrap_or_else(|e| panic!("{e}"));
            }
        }
        let seg = dir.join(SEGMENT_FILE);
        let mut bytes = std::fs::read(&seg).unwrap_or_else(|e| panic!("{e}"));
        // Corrupt one byte past the file header (header damage is the
        // IncompatibleSegment path, tested separately).
        let at = 8 + (corrupt_at as usize % (bytes.len() - 8));
        bytes[at] ^= flip;
        std::fs::write(&seg, &bytes).unwrap_or_else(|e| panic!("{e}"));

        let store = Store::open(&dir).unwrap_or_else(|e| panic!("{e}"));
        let report = store.open_report().clone();
        prop_assert!(report.salvage_performed(), "a flipped byte must be detected");
        prop_assert!(report.salvaged_records < payloads.len() as u64 + 1);
        for (i, p) in payloads.iter().enumerate() {
            match store.get(i as u128 + 1) {
                Ok(Some(got)) => prop_assert_eq!(&got, p, "key {} must be bit-identical", i + 1),
                Ok(None) => {}                       // quarantined: reported, not wrong
                Err(e) => prop_assert!(e.is_corruption(), "unexpected error class: {e}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Property suite for the v4 segment: any index the builder can produce
//! must survive save → mmap-backed load **bit-identically** — equal payload
//! bytes, equal search results (score bits included), and a re-save of the
//! loaded index that reproduces the file byte for byte. The segment merge
//! must produce the same bytes as one serial build. The flip side: any torn
//! or bit-flipped artifact must be *rejected* at load, never half-read.
//!
//! These run against real temp files so the mmap path (not just the
//! encoder) is what's under test.

use ajax_crawl::model::AppModel;
use ajax_index::invert::{IndexBuilder, InvertedIndex};
use ajax_index::query::{search, Query, RankWeights};
use ajax_index::{load_index, save_index, PersistError};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic pseudo-random corpus (same generator family as the
/// equivalence suite): `n_pages` pages, 1–4 states each, drawn from a
/// small vocabulary so queries actually match.
fn corpus(seed: u64, n_pages: usize) -> Vec<AppModel> {
    const VOCAB: &[&str] = &[
        "wow",
        "dance",
        "video",
        "morcheeba",
        "singer",
        "great",
        "filler",
        "the",
        "ride",
        "enjoy",
        "mysterious",
        "concert",
        "live",
        "daisy",
        "2",
    ];
    let mut x = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n_pages)
        .map(|p| {
            let mut m = AppModel::new(format!("http://site.example/watch?v={p}"));
            let n_states = 1 + (next() % 4) as usize;
            for s in 0..n_states {
                let n_tokens = 3 + (next() % 12) as usize;
                let text = (0..n_tokens)
                    .map(|_| VOCAB[(next() % VOCAB.len() as u64) as usize])
                    .collect::<Vec<_>>()
                    .join(" ");
                m.add_state((p * 100 + s) as u64 + 1, text, None);
            }
            m
        })
        .collect()
}

const QUERIES: &[&str] = &[
    "wow",
    "wow dance",
    "morcheeba singer",
    "enjoy the ride",
    "absentterm",
    "",
];

fn build(models: &[AppModel]) -> InvertedIndex {
    build_with_pagerank(models, 1.0 / models.len().max(1) as f64)
}

fn build_with_pagerank(models: &[AppModel], pagerank: f64) -> InvertedIndex {
    let mut b = IndexBuilder::new();
    for m in models {
        b.add_model(m, Some(pagerank));
    }
    b.build()
}

/// Saves `index` to a fresh scratch file and returns the file's bytes.
fn saved_bytes(index: &InvertedIndex, tag: &str) -> Vec<u8> {
    let path = scratch_path(tag);
    save_index(&path, index).expect("save v4");
    let bytes = std::fs::read(&path).expect("read artifact");
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A unique scratch path per call — proptest shrinks re-enter the test
/// body, so a fixed name would race against itself.
fn scratch_path(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "ajax-v4-roundtrip-{}-{tag}-{n}.ajx",
        std::process::id()
    ))
}

fn assert_bit_identical(a: &InvertedIndex, b: &InvertedIndex, queries: &[Query]) {
    let w = RankWeights::default();
    for q in queries {
        let ra = search(a, q, &w);
        let rb = search(b, q, &w);
        assert_eq!(ra.len(), rb.len(), "result count for {:?}", q.terms);
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert_eq!(x.url, y.url);
            assert_eq!(x.doc, y.doc);
            assert_eq!(
                x.score.to_bits(),
                y.score.to_bits(),
                "score bits for {:?}: {} vs {}",
                q.terms,
                x.score,
                y.score
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random corpus → save v4 → mmap load: the loaded index has the built
    /// payload bytes, answers every query bit-identically, and saving it
    /// again writes the identical file.
    #[test]
    fn v4_roundtrip_is_bit_identical(seed in 0u64..10_000, n_pages in 1usize..24) {
        let models = corpus(seed, n_pages);
        let built = build(&models);
        let path = scratch_path("rt");
        save_index(&path, &built).expect("save v4");

        let loaded = load_index(&path).expect("load v4");
        prop_assert!(loaded.is_mapped(), "a v4 artifact must load mapped");
        prop_assert!(loaded.mapped_bytes() > 0);
        prop_assert_eq!(&built, &loaded);

        let queries: Vec<Query> = QUERIES.iter().map(|q| Query::parse(q)).collect();
        assert_bit_identical(&built, &loaded, &queries);

        let original = std::fs::read(&path).expect("read artifact");
        prop_assert!(saved_bytes(&loaded, "resave") == original, "load → save must not change a byte");

        let _ = std::fs::remove_file(&path);
    }

    /// Random k-way splits of a corpus, built as separate segments (every
    /// other one saved and mmap-loaded first) and merged, give the payload
    /// bytes of one serial build over the whole corpus.
    #[test]
    fn merged_splits_equal_serial_build(
        seed in 0u64..10_000,
        n_pages in 1usize..24,
        cuts in proptest::collection::vec(0usize..64, 0..6),
    ) {
        let models = corpus(seed, n_pages);
        let pagerank = 1.0 / n_pages as f64;
        let serial = build_with_pagerank(&models, pagerank);

        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n_pages + 1)).collect();
        bounds.extend([0, n_pages]);
        bounds.sort_unstable();
        let segments: Vec<InvertedIndex> = bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let seg = build_with_pagerank(&models[w[0]..w[1]], pagerank);
                if i % 2 == 1 {
                    let path = scratch_path("split");
                    save_index(&path, &seg).expect("save split");
                    let loaded = load_index(&path).expect("load split");
                    let _ = std::fs::remove_file(&path);
                    loaded
                } else {
                    seg
                }
            })
            .collect();
        let k = segments.len();
        let merged = InvertedIndex::try_merge_segments(segments).expect("merge");
        prop_assert!(
            saved_bytes(&merged, "merged") == saved_bytes(&serial, "serial"),
            "{}-way merge of {} pages differs from the serial build",
            k,
            n_pages
        );
    }

    /// A single flipped bit anywhere in the artifact — header line, segment
    /// payload, or commit marker — must make the load fail; damage inside
    /// the checksummed payload is reported as `Corrupt`.
    #[test]
    fn v4_bit_flip_is_rejected(seed in 0u64..1_000, flip_frac in 0.0f64..1.0, bit in 0u8..8) {
        let models = corpus(seed, 6);
        let built = build(&models);
        let path = scratch_path("flip");
        save_index(&path, &built).expect("save v4");

        let mut bytes = std::fs::read(&path).expect("read artifact");
        let pos = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("rewrite artifact");

        let err = load_index(&path).expect_err("flipped artifact must not load");
        // Flips in the JSON header line surface as Format/Serde (the frame
        // no longer parses); flips past it are caught by the payload CRC or
        // the torn-commit marker and must say Corrupt.
        let header_len = bytes.iter().position(|&b| b == b'\n').unwrap_or(0) + 1;
        if pos >= header_len {
            prop_assert!(
                matches!(err, PersistError::Corrupt { .. }),
                "payload flip at {} reported {:?}",
                pos,
                err
            );
        }

        let _ = std::fs::remove_file(&path);
    }

    /// Every strict prefix of a committed v4 artifact is a torn write and
    /// must be rejected as `Corrupt` (or fail framing entirely) — never
    /// parsed into a half-index.
    #[test]
    fn v4_truncation_is_rejected(seed in 0u64..1_000, keep_frac in 0.0f64..1.0) {
        let models = corpus(seed, 5);
        let built = build(&models);
        let path = scratch_path("trunc");
        save_index(&path, &built).expect("save v4");

        let bytes = std::fs::read(&path).expect("read artifact");
        let keep = ((bytes.len() - 1) as f64 * keep_frac) as usize;
        std::fs::write(&path, &bytes[..keep]).expect("truncate artifact");

        prop_assert!(
            load_index(&path).is_err(),
            "a {}-of-{} byte prefix must not load",
            keep,
            bytes.len()
        );

        let _ = std::fs::remove_file(&path);
    }
}

/// Non-property anchor: the empty index round-trips too (zero terms, zero
/// pages — every section table entry is a zero-length slice).
#[test]
fn empty_index_roundtrips() {
    let built = IndexBuilder::new().build();
    let path = scratch_path("empty");
    save_index(&path, &built).expect("save empty v4");
    let loaded = load_index(&path).expect("load empty v4");
    assert!(loaded.is_mapped());
    assert_eq!(built, loaded);
    let original = std::fs::read(&path).expect("read artifact");
    assert_eq!(saved_bytes(&loaded, "empty-resave"), original);
    let _ = std::fs::remove_file(&path);
}

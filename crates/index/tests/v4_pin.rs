//! Pins the v4 segment bytes: the CRC32 of the saved payload for a fixed
//! set of seeded corpora and for the 400-page vidshare and gallery sites.
//!
//! The encoding is canonical, so any change to these values is a change to
//! the on-disk format (or to what the builder indexes) and must be made
//! deliberately. Both the serial build and the forced parallel segment
//! build + merge must produce the pinned bytes.

use ajax_crawl::crawler::CrawlConfig;
use ajax_crawl::durable::{crc32, read_framed, FrameRead};
use ajax_crawl::model::AppModel;
use ajax_crawl::parallel::MpCrawler;
use ajax_crawl::partition::partition_urls;
use ajax_index::invert::{build_index_with_path, BuildPath, InvertedIndex};
use ajax_index::save_index;
use ajax_net::{LatencyModel, Server};
use ajax_webgen::{GalleryServer, GallerySpec, VidShareServer, VidShareSpec};
use std::sync::Arc;

/// The seeded corpus generator of `v4_roundtrip.rs` and `equivalence.rs`.
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

/// CRC32 of the v4 payload `save_index` writes for `index`.
fn payload_crc(index: &InvertedIndex, tag: &str) -> u32 {
    let path = std::env::temp_dir().join(format!("ajax-v4-pin-{}-{tag}.ajx", std::process::id()));
    save_index(&path, index).expect("save v4");
    let read = read_framed(&path).expect("read v4 frame");
    let _ = std::fs::remove_file(&path);
    match read {
        FrameRead::Framed { payload, .. } => crc32(&payload),
        FrameRead::NotFramed(_) => panic!("save_index wrote an unframed file"),
    }
}

/// Asserts the serial and the forced-parallel build of `models` both save
/// to a payload with CRC32 `want`.
fn assert_pinned(tag: &str, models: &[AppModel], want: u32) {
    let pr = Some(1.0 / models.len().max(1) as f64);
    let refs: Vec<(&AppModel, Option<f64>)> = models.iter().map(|m| (m, pr)).collect();
    for (path, threads) in [(BuildPath::Serial, 1), (BuildPath::Parallel, 3)] {
        let index = build_index_with_path(&refs, None, threads, path);
        let got = payload_crc(&index, tag);
        assert_eq!(
            got,
            want,
            "{tag} ({}): payload crc32 {got:#010x}, pinned {want:#010x}",
            path.as_str()
        );
    }
}

fn crawl(server: Arc<dyn Server>, urls: &[String]) -> Vec<AppModel> {
    let mp = MpCrawler::new(
        server,
        LatencyModel::thesis_default(42),
        CrawlConfig::ajax(),
    );
    mp.crawl(&partition_urls(urls, 50)).into_models()
}

#[test]
fn seeded_corpora_payloads_are_pinned() {
    const PINS: &[(u64, usize, u32)] = &[
        (0, 0, 0x513983a0),
        (0, 1, 0x40b96f3c),
        (1, 5, 0xab973640),
        (7, 12, 0xf0267d5c),
        (42, 23, 0xf60f3ecf),
        (999, 40, 0xc27f8b27),
    ];
    for &(seed, n_pages, want) in PINS {
        assert_pinned(
            &format!("seed{seed}-pages{n_pages}"),
            &corpus(seed, n_pages),
            want,
        );
    }
}

#[test]
fn webgen_site_payloads_are_pinned() {
    const PAGES: u32 = 400;
    let vid = VidShareSpec::small(PAGES);
    let vid_urls: Vec<String> = (0..PAGES).map(|v| vid.watch_url(v)).collect();
    let vid_models = crawl(Arc::new(VidShareServer::new(vid)), &vid_urls);
    assert_pinned("vidshare-400", &vid_models, 0xfc50e0e2);

    let gallery = GallerySpec::small(PAGES);
    let gallery_urls: Vec<String> = (0..PAGES).map(|a| gallery.page_url(a)).collect();
    let gallery_models = crawl(Arc::new(GalleryServer::new(gallery)), &gallery_urls);
    assert_pinned("gallery-400", &gallery_models, 0xe990843b);
}

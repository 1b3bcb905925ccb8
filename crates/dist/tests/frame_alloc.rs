//! A frame whose element counts promise more than its bytes could hold is
//! refused before any buffer is sized from those counts.
//!
//! Its own test binary, because it installs a global allocator that records
//! the largest single allocation.

use ajax_dist::proto::read_message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

const KIND_EVAL: u8 = 1;
const KIND_REPLY: u8 = 2;

fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32 + 1).to_le_bytes().to_vec();
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

/// Decodes `frame`, asserting `InvalidData` and that no single allocation
/// came anywhere near the size the declared count implies.
fn refused_without_allocating(frame: &[u8], what: &str) {
    LARGEST.store(0, Ordering::SeqCst);
    let err = read_message(&mut &frame[..]).expect_err(what);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    assert!(largest < 4096, "{what}: allocated {largest} bytes");
}

#[test]
fn counts_of_u32_max_are_refused_before_allocation() {
    let max = u32::MAX.to_le_bytes();

    // Reply: id, stats.total_states, stats.df (0 terms), then u32::MAX results.
    let mut reply = [7u64.to_le_bytes(), 100u64.to_le_bytes()].concat();
    reply.extend_from_slice(&0u32.to_le_bytes());
    reply.extend_from_slice(&max);
    refused_without_allocating(&frame(KIND_REPLY, &reply), "u32::MAX results");

    // Reply whose df vector declares u32::MAX entries.
    let mut df = [7u64.to_le_bytes(), 100u64.to_le_bytes()].concat();
    df.extend_from_slice(&max);
    refused_without_allocating(&frame(KIND_REPLY, &df), "u32::MAX df entries");

    // Eval: id, four weights, then u32::MAX query terms.
    let mut eval = vec![0u8; 8 + 32];
    eval.extend_from_slice(&max);
    refused_without_allocating(&frame(KIND_EVAL, &eval), "u32::MAX terms");

    // Eval with one term whose string length is u32::MAX.
    let mut term = vec![0u8; 8 + 32];
    term.extend_from_slice(&1u32.to_le_bytes());
    term.extend_from_slice(&max);
    refused_without_allocating(&frame(KIND_EVAL, &term), "u32::MAX-byte string");
}

//! Pins the decoders' allocation bound: a frame's declared counts must
//! not make the decoder reserve memory the body cannot back. A 1 MiB
//! `Ingest` payload that declares 300,000 instances and breaks at the
//! first one fails as `Malformed`, and the decoder's peak live allocation
//! stays below the payload's own size (reserving the declared count up
//! front would take ~12 MB of 40-byte `Instance`s). An `Attach` frame
//! whose RBMC body declares 2^22 floats in a few dozen bytes fails as
//! `Malformed` within 64 KiB.
//!
//! A counting global allocator tracks the test thread's live heap bytes;
//! one test per file, because the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rbm_im_harness::checkpoint::codec::{crc32c, write_varint, BINARY_MAGIC, BINARY_VERSION};
use rbm_im_net::wire::{decode_payload, encode_payload, FT_ATTACH, FT_INGEST};
use rbm_im_net::{Frame, WireError, WIRE_MAGIC, WIRE_VERSION};
use rbm_im_streams::Instance;

struct CountingAllocator;

thread_local! {
    /// Live heap bytes allocated minus freed on this thread, and the peak
    /// of that figure since the last [`reset_peak`].
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Restarts peak tracking at the current live figure; returns that figure.
fn reset_peak() -> i64 {
    let now = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(now));
    now
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const PAYLOAD_BYTES: usize = 1 << 20;

/// An `Ingest` payload of exactly [`PAYLOAD_BYTES`] declaring `count`
/// instances, whose first instance claims far more features than the body
/// holds.
fn lying_ingest(count: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(PAYLOAD_BYTES);
    payload.extend_from_slice(&WIRE_MAGIC);
    payload.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    payload.push(FT_INGEST);
    write_varint(&mut payload, 1);
    payload.push(b's');
    payload.push(1); // blocking
    write_varint(&mut payload, count);
    write_varint(&mut payload, 1_000_000); // first instance's feature count
    payload.resize(PAYLOAD_BYTES, 0);
    payload
}

/// An `Attach` payload whose RBMC body (with a valid checksum) is one
/// float pack declaring 2^22 values, followed by eight run-length planes
/// of 2^22 bytes each in the shape the run-length float packs once had.
fn lying_attach() -> Vec<u8> {
    let mut body = BINARY_MAGIC.to_vec();
    body.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    write_varint(&mut body, 0); // no keys
    body.push(0x0A); // float pack tag
    write_varint(&mut body, 1 << 22);
    for _ in 0..8 {
        body.push(1);
        write_varint(&mut body, 1 << 22);
        body.push(0x3F);
    }
    let checksum = crc32c(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    assert!(body.len() < 100, "{} bytes", body.len());
    let mut payload = WIRE_MAGIC.to_vec();
    payload.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    payload.push(FT_ATTACH);
    payload.extend_from_slice(&body);
    payload
}

#[test]
fn ingest_decode_reserves_no_more_than_the_payload_backs() {
    let payload = lying_ingest(300_000);
    let base = reset_peak();
    let decoded = decode_payload(&payload);
    let peak = PEAK.with(Cell::get) - base;
    assert!(matches!(decoded, Err(WireError::Malformed(_))), "got {decoded:?}");
    drop(decoded);
    assert!(
        peak < PAYLOAD_BYTES as i64,
        "decoding a {PAYLOAD_BYTES}-byte payload peaked at {peak} live bytes"
    );

    // A count no body of this size could back is refused outright.
    let payload = lying_ingest(PAYLOAD_BYTES as u64 / 3 + 1);
    assert!(matches!(decode_payload(&payload), Err(WireError::Malformed(_))));

    // Honest frames larger than the up-front reservation still round-trip.
    let instances: Vec<Instance> =
        (0..3_000).map(|i| Instance::with_index(vec![i as f64, 0.5], i % 3, i as u64)).collect();
    let frame = Frame::Ingest { stream: "s".to_string(), blocking: false, instances };
    let roundtrip = decode_payload(&encode_payload(&frame)).expect("honest frame decodes");
    assert_eq!(format!("{roundtrip:?}"), format!("{frame:?}"));

    // A tiny checkpoint body cannot declare millions of values.
    let payload = lying_attach();
    let base = reset_peak();
    let decoded = decode_payload(&payload);
    let peak = PEAK.with(Cell::get) - base;
    assert!(matches!(decoded, Err(WireError::Malformed(_))), "got {decoded:?}");
    drop(decoded);
    assert!(peak < 64 << 10, "decoding a hostile Attach body peaked at {peak} live bytes");
}

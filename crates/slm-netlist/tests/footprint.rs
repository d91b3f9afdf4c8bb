//! Heap footprint of a built netlist, counted by the allocator.
//!
//! A tenant netlist is untrusted input, so what one net costs once it
//! is built is a bound the admission path relies on. A counting global
//! allocator makes the figure deterministic: the bytes requested and
//! the blocks still live after a build, less those live before it, and
//! the blocks an assembly or a `.bench` parse allocates on the way.
//! This binary holds a single test so no other test allocates while it
//! measures.

use slm_netlist::{bench, generators, GateKind, NetId, Netlist, NetlistBuilder, NetlistError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// Live requested bytes and live blocks, over the whole process.
static BYTES: AtomicIsize = AtomicIsize::new(0);
static BLOCKS: AtomicIsize = AtomicIsize::new(0);
/// Blocks allocated so far, freed or not, over the whole process.
static ALLOCS: AtomicIsize = AtomicIsize::new(0);
/// The most live bytes seen since the last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Adds `delta` live bytes and raises the peak to match.
fn grow(delta: isize) {
    PEAK.fetch_max(BYTES.fetch_add(delta, Relaxed) + delta, Relaxed);
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counters are
// only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
            BLOCKS.fetch_add(1, Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
            BLOCKS.fetch_add(1, Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        BYTES.fetch_sub(layout.size() as isize, Relaxed);
        BLOCKS.fetch_sub(1, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What a built netlist keeps on the heap.
struct Footprint {
    nets: usize,
    named: usize,
    bytes: isize,
    blocks: isize,
}

impl Footprint {
    fn bytes_per_net(&self) -> f64 {
        self.bytes as f64 / self.nets as f64
    }
}

/// Builds a netlist and counts what is still allocated afterwards.
fn measure(build: impl FnOnce() -> Result<Netlist, NetlistError>) -> Footprint {
    let (bytes0, blocks0) = (BYTES.load(Relaxed), BLOCKS.load(Relaxed));
    let nl = build().expect("netlist builds");
    let (bytes, blocks) = (BYTES.load(Relaxed) - bytes0, BLOCKS.load(Relaxed) - blocks0);
    let named = (0..nl.len())
        .filter(|&i| nl.net_name(NetId(i as u32)).is_some())
        .count();
    Footprint {
        nets: nl.len(),
        named,
        bytes,
        blocks,
    }
}

#[test]
fn built_netlists_hold_a_bounded_number_of_bytes_and_blocks_per_net() {
    // The texts are allocated before the count starts; only the parsed
    // netlist is measured.
    let c6288_text = bench::write(&generators::c6288().unwrap());
    let ksa_text = bench::write(&generators::kogge_stone_adder(640).unwrap());
    // A builder-made netlist lists every fanin before its reader, so it
    // is ordered by net index and keeps no order array: ~4 B/net less
    // than the 23.5 and 22.3 B/net these rows held with one.
    let rows = [
        (
            "kogge_stone_adder(640)",
            measure(|| generators::kogge_stone_adder(640)),
            20.0,
        ),
        ("alu(256)", measure(|| generators::alu(256)), 20.0),
        (
            "c6288 parsed from .bench",
            measure(|| bench::parse(&c6288_text, "c6288")),
            64.0,
        ),
    ];
    let report: Vec<String> = rows
        .iter()
        .map(|(what, f, _)| {
            format!(
                "{what}: {} nets ({} named), {:.1} B/net, {} blocks",
                f.nets,
                f.named,
                f.bytes_per_net(),
                f.blocks
            )
        })
        .collect();
    let report = report.join("\n");
    println!("{report}");
    // Every net of the parsed design carries its `.bench` name.
    assert_eq!(rows[2].1.named, rows[2].1.nets);
    for (what, f, max_bytes_per_net) in &rows {
        assert!(
            f.bytes_per_net() <= *max_bytes_per_net,
            "{what}: {:.1} B/net > {max_bytes_per_net}\n{report}",
            f.bytes_per_net()
        );
        assert!(
            f.blocks <= f.named as isize + 16,
            "{what}: {} live blocks for {} named nets\n{report}",
            f.blocks,
            f.named
        );
    }
    // Assembling a builder-made netlist allocates only the name index
    // it checks names with: no fanout index, queue or order array.
    let mut b = NetlistBuilder::new("chain");
    let mut prev = b.input_bus("x", 64);
    for k in 0..10_000 {
        let kind = [GateKind::Xor, GateKind::And, GateKind::Or][k % 3];
        let y = b.gate(kind, &[prev[k % 64], prev[(k + 7) % 64]]);
        prev[k % 64] = y;
    }
    b.output_bus("y", &prev);
    let before = ALLOCS.load(Relaxed);
    let nl = b.finish().expect("chain builds");
    let allocs = ALLOCS.load(Relaxed) - before;
    println!("{} nets assembled: {allocs} allocations", nl.len());
    assert!(
        allocs <= 1,
        "assembling {} builder-made nets took {allocs} allocations",
        nl.len()
    );
    // A parse allocates a fixed number of blocks plus one name per
    // output, however many lines the text has, and its peak heap is
    // linear in the text.
    for (what, text) in [
        ("c6288", &c6288_text),
        ("kogge_stone_adder(640)", &ksa_text),
    ] {
        let (before, live) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
        PEAK.store(live, Relaxed);
        let nl = bench::parse(text, what).expect("text parses");
        let allocs = ALLOCS.load(Relaxed) - before;
        let peak = (PEAK.load(Relaxed) - live) as f64 / text.len() as f64;
        let outputs = nl.outputs().len() as isize;
        println!(
            "{what} parsed: {allocs} allocations, {outputs} outputs, peak {peak:.1} B per byte"
        );
        assert!(
            allocs <= outputs + 32,
            "{what}: {allocs} allocations to parse {} lines with {outputs} outputs",
            text.lines().count()
        );
        assert!(
            peak <= 8.0,
            "{what}: parse peaks at {peak:.1} B per byte of text"
        );
    }
}

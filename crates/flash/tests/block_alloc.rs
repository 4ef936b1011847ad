//! Pins the allocation profile of the block-resident content store:
//! programming every page of never-erased blocks costs at most a constant
//! number of heap allocations per block (the block reserves its storage
//! on its first program), and erase followed by reprogram costs none (the
//! erase clears the storage in place for the next cycle).
//!
//! This file holds exactly one test so the process-global allocation
//! counter cannot pick up a concurrently running test's traffic.

// A counting `GlobalAlloc` shim cannot be written without `unsafe`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use checkin_flash::{
    BlockId, FlashArray, FlashGeometry, FlashTiming, OobEntry, OobKind, PageContent, UnitPayload,
};
use checkin_sim::SimTime;

/// Counts every allocation and reallocation; frees are not counted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

const UNITS: usize = 8;

/// Allocations a block may make when first opened: its unit, OOB-record
/// and page-boundary storage.
const PER_BLOCK: u64 = 3;

/// Programs every page of `block` through the reused buffer `buf`, with
/// all units occupied and one OOB record per unit.
fn fill(f: &mut FlashArray, buf: &mut PageContent, block: BlockId, version: u64) {
    let g = *f.geometry();
    for page in 0..g.pages_per_block {
        let ppn = g.ppn_in_block(block, page);
        for (i, slot) in buf.units.iter_mut().enumerate() {
            *slot = Some(UnitPayload::single(ppn.0 * 8 + i as u64, version, 512));
            buf.oob.push(OobEntry {
                lpn: ppn.0 * 8 + i as u64,
                sequence: version,
                kind: OobKind::Journal,
            });
        }
        f.program(ppn, buf, SimTime::ZERO).unwrap();
    }
}

#[test]
fn programs_allocate_per_block_once_and_erase_cycles_reuse_storage() {
    let g = FlashGeometry::small();
    let blocks = g.total_blocks();
    let mut f = FlashArray::new(g, FlashTiming::mlc());
    let mut buf = PageContent::empty(UNITS);

    // Warm-up on block 0: the reused page buffer reaches its capacity and
    // each counter key gets its first bump.
    fill(&mut f, &mut buf, BlockId(0), 1);
    f.erase(BlockId(0), SimTime::ZERO).unwrap();

    // Every page of every never-programmed block.
    let before = allocs();
    for b in 1..blocks {
        fill(&mut f, &mut buf, BlockId(b), 1);
    }
    let opened = allocs() - before;
    let pages = (blocks - 1) * u64::from(g.pages_per_block);
    assert!(
        opened <= PER_BLOCK * (blocks - 1),
        "first programs of {} blocks ({pages} pages) allocated {opened} times",
        blocks - 1
    );

    // Erase followed by reprogram, over every block (block 0 included:
    // it was opened and erased during warm-up).
    let before = allocs();
    for b in 0..blocks {
        f.erase(BlockId(b), SimTime::ZERO).unwrap();
        fill(&mut f, &mut buf, BlockId(b), 2);
    }
    let cycled = allocs() - before;
    assert_eq!(cycled, 0, "erase + reprogram allocated {cycled} times");

    // The run really stored what it programmed.
    let last = g.ppn_in_block(BlockId(blocks - 1), g.pages_per_block - 1);
    let view = f.read(last).unwrap();
    assert!(view.intact());
    assert_eq!(view.occupied_units(), UNITS);
    assert_eq!(view.unit(0).unwrap().fragments[0].version, 2);
}

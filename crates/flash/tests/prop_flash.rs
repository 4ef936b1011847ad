//! Property tests of the NAND rules: out-of-place updates, in-order
//! programming, erase-before-reuse, and timing monotonicity. Randomized
//! via `checkin-testkit` (deterministic seeds, offline-safe).

use checkin_flash::{
    BlockId, FlashArray, FlashError, FlashGeometry, FlashTiming, PageContent, UnitPayload,
};
use checkin_sim::SimTime;
use checkin_testkit::{check, soup, TestRng};

fn array() -> FlashArray {
    FlashArray::new(
        FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 8,
            page_bytes: 4096,
        },
        FlashTiming::mlc(),
    )
}

fn content(tag: u64) -> PageContent {
    let mut c = PageContent::empty(8);
    c.units[0] = Some(UnitPayload::single(tag, 1, 512));
    c
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Program { block: u8, page: u8 },
    Erase { block: u8 },
    Read { block: u8, page: u8 },
}

fn op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[5, 2, 3]) {
        0 => Op::Program {
            block: rng.any_u8(),
            page: rng.any_u8(),
        },
        1 => Op::Erase {
            block: rng.any_u8(),
        },
        _ => Op::Read {
            block: rng.any_u8(),
            page: rng.any_u8(),
        },
    }
}

/// Whatever the op soup, the array enforces NAND rules and its own
/// bookkeeping never diverges from a shadow page-state model.
#[test]
fn nand_rules_hold_under_random_ops() {
    check("nand_rules_hold_under_random_ops", 64, |rng| {
        let len = rng.range_usize(1, 299);
        let ops = soup(rng, len, op);
        let mut flash = array();
        let g = *flash.geometry();
        let blocks = g.total_blocks();
        let ppb = g.pages_per_block;
        // Shadow: per block, number of programmed pages (prefix property).
        let mut programmed = vec![0u32; blocks as usize];
        let mut tag = 0u64;

        for op in ops {
            match op {
                Op::Program { block, page } => {
                    let b = block as u64 % blocks;
                    let p = page as u32 % ppb;
                    let ppn = g.ppn_in_block(BlockId(b), p);
                    tag += 1;
                    let result = flash.program(ppn, &mut content(tag), SimTime::ZERO);
                    if p == programmed[b as usize] {
                        assert!(result.is_ok(), "in-order program must succeed");
                        programmed[b as usize] += 1;
                    } else if p < programmed[b as usize] {
                        assert!(
                            matches!(result, Err(FlashError::ProgramDirtyPage(_))),
                            "reprogram must fail"
                        );
                    } else {
                        assert!(
                            matches!(result, Err(FlashError::ProgramOutOfOrder { .. })),
                            "skip-ahead program must fail"
                        );
                    }
                }
                Op::Erase { block } => {
                    let b = block as u64 % blocks;
                    flash.erase(BlockId(b), SimTime::ZERO).unwrap();
                    programmed[b as usize] = 0;
                }
                Op::Read { block, page } => {
                    let b = block as u64 % blocks;
                    let p = page as u32 % ppb;
                    let ppn = g.ppn_in_block(BlockId(b), p);
                    let stored = flash.read(ppn).is_some();
                    assert_eq!(stored, p < programmed[b as usize]);
                }
            }
        }
        // Erase accounting matches the flash's own counters.
        let total: u64 = (0..blocks).map(|b| flash.erase_count(BlockId(b))).sum();
        assert_eq!(total, flash.total_erases());
    });
}

/// Operation windows never run backwards on a die, and every program's
/// finish is strictly after its start.
#[test]
fn timing_is_monotone_per_die() {
    check("timing_is_monotone_per_die", 64, |rng| {
        let len = rng.range_usize(1, 59);
        let pages = soup(rng, len, |r| r.any_u8());
        let mut flash = array();
        let g = *flash.geometry();
        let mut last_finish_per_die = std::collections::HashMap::new();
        let mut cursor = vec![0u32; g.total_blocks() as usize];
        for raw in pages {
            let b = raw as u64 % g.total_blocks();
            let p = cursor[b as usize];
            if p >= g.pages_per_block {
                continue;
            }
            cursor[b as usize] += 1;
            let ppn = g.ppn_in_block(BlockId(b), p);
            let w = flash.program(ppn, &mut content(1), SimTime::ZERO).unwrap();
            let die = g.die_of_block(BlockId(b));
            if let Some(prev) = last_finish_per_die.insert(die, w.finish) {
                assert!(w.finish > prev, "die timeline must advance");
            }
            assert!(w.finish > w.start);
        }
    });
}

#[test]
fn full_device_program_cycle() {
    // Program every page of the device in order, erase everything, repeat:
    // the array must accept exactly total_pages programs each cycle.
    let mut flash = array();
    let g = *flash.geometry();
    for cycle in 1..=3u64 {
        for b in 0..g.total_blocks() {
            for p in 0..g.pages_per_block {
                flash
                    .program(
                        g.ppn_in_block(BlockId(b), p),
                        &mut content(cycle),
                        SimTime::ZERO,
                    )
                    .unwrap();
            }
        }
        for b in 0..g.total_blocks() {
            flash.erase(BlockId(b), SimTime::ZERO).unwrap();
            assert_eq!(flash.erase_count(BlockId(b)), cycle);
        }
    }
    assert_eq!(flash.counters().get("flash.program"), 3 * g.total_pages());
}

//! Pins which stored units and OOB records retention bit-rot hits.
//!
//! The injector draws a start page and probes forward (wrapping) for the
//! first programmed page, then draws a bit and a unit or record within
//! it. The probe walks the blocks' write cursors rather than every page;
//! this test holds it to the exact victims of the page-by-page probe it
//! replaced, recorded for fixed seeds over two layouts: partly written
//! blocks with long erased gaps, a wrap past the last block and a block
//! that was erased and partly rewritten; and a lone partly written block,
//! where a start past its cursor must wrap all the way round to its own
//! first page. Victims are observed from outside by diffing every page's
//! tags after each fault-clock tick.

use checkin_flash::{
    BlockId, FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming, OobEntry, OobKind,
    PageContent, Ppn, UnitPayload,
};
use checkin_sim::SimTime;

const UNITS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hit {
    Unit,
    Oob,
}
use Hit::{Oob, Unit};

/// One flip: `(ppn, target, index, xor mask)`.
type Victim = (u64, Hit, usize, u64);

/// Victims on `FlashGeometry::small()`, seed 2024, 48 ticks, in tick
/// order (within a tick, ascending ppn, units before records).
const SCATTERED: &[Victim] = &[
    (1, Unit, 7, 0x800),
    (1312, Unit, 4, 0x2000000000),
    (1312, Oob, 0, 0x8),
    (640, Unit, 6, 0x20000000000),
    (1312, Unit, 1, 0x200000),
    (1312, Oob, 0, 0x8000000),
    (2016, Oob, 0, 0x8000000),
    (224, Oob, 3, 0x200000000),
    (1312, Oob, 1, 0x200000000),
    (0, Unit, 7, 0x4000),
    (1312, Unit, 4, 0x100000),
    (2016, Oob, 0, 0x1000),
    (1312, Oob, 1, 0x100000),
    (1312, Oob, 0, 0x800000),
    (640, Unit, 3, 0x400000000),
    (1312, Oob, 1, 0x80000000),
    (2016, Unit, 4, 0x100000000000),
    (651, Oob, 0, 0x800000),
    (1312, Unit, 1, 0x4000000000),
    (1312, Unit, 0, 0x2000000000),
    (2016, Oob, 0, 0x400000000),
    (96, Oob, 0, 0x400000000000),
    (96, Unit, 5, 0x400000000),
    (1312, Oob, 1, 0x100),
    (2016, Unit, 7, 0x4000000),
    (640, Unit, 1, 0x2),
    (2016, Unit, 1, 0x10000),
    (640, Unit, 0, 0x4000000),
    (2016, Oob, 0, 0x2000000000),
    (96, Oob, 0, 0x100000000),
    (1312, Unit, 3, 0x40000000),
    (1312, Unit, 7, 0x400000000000),
    (96, Oob, 0, 0x1000000000),
    (1312, Unit, 1, 0x20000),
    (2016, Unit, 7, 0x4000),
    (1312, Oob, 0, 0x2000000000),
    (640, Unit, 6, 0x2000000000),
    (2016, Oob, 0, 0x1000000),
    (224, Unit, 6, 0x2000),
    (224, Oob, 0, 0x2000000),
    (1312, Unit, 3, 0x20),
    (2016, Unit, 1, 0x1000000),
    (1312, Unit, 4, 0x40000000000),
    (2016, Unit, 1, 0x800000000000),
    (2016, Unit, 1, 0x1000000000),
    (1312, Unit, 7, 0x20000000),
    (1312, Unit, 0, 0x200000000000),
    (2016, Unit, 7, 0x4000),
    (1312, Unit, 4, 0x4000),
    (1312, Oob, 1, 0x400000000),
    (2016, Unit, 2, 0x40000000000),
    (2016, Unit, 4, 0x40),
    (640, Unit, 1, 0x1),
    (2016, Oob, 0, 0x100000),
];

/// Victims on the four-block geometry with only block 2's first three
/// pages programmed, seed 7, 24 ticks.
const LONE_BLOCK: &[Victim] = &[
    (64, Oob, 0, 0x10000),
    (64, Oob, 3, 0x10000),
    (64, Unit, 3, 0x800000),
    (64, Unit, 6, 0x80000000000),
    (64, Oob, 1, 0x10000000),
    (64, Unit, 7, 0x800000000),
    (64, Unit, 0, 0x4000000),
    (64, Oob, 2, 0x400000000000),
    (64, Unit, 4, 0x400),
    (64, Unit, 3, 0x80000),
    (64, Oob, 1, 0x2000000000),
    (64, Oob, 1, 0x8000000),
    (64, Unit, 4, 0x2),
    (64, Oob, 2, 0x40000000),
    (64, Unit, 0, 0x8000000),
    (64, Oob, 3, 0x100000000000),
    (64, Unit, 0, 0x400000000),
    (64, Unit, 0, 0x2000),
    (64, Oob, 1, 0x4000000),
    (64, Unit, 0, 0x200),
    (64, Oob, 1, 0x10000000000),
    (64, Oob, 2, 0x800000),
    (64, Oob, 2, 0x10000000),
    (64, Oob, 3, 0x200),
    (64, Unit, 3, 0x40000000000),
    (64, Unit, 7, 0x200),
    (64, Unit, 3, 0x4000000),
    (64, Oob, 0, 0x100000000),
];

/// Page `ppn`'s content: every unit but those where `3` divides `ppn + i`
/// occupied, and `ppn % 5` OOB records.
fn page(ppn: u64) -> PageContent {
    let mut c = PageContent::empty(UNITS);
    for (i, slot) in c.units.iter_mut().enumerate() {
        if !(ppn as usize + i).is_multiple_of(3) {
            *slot = Some(UnitPayload::single(ppn * 100 + i as u64, 1, 512));
        }
    }
    for i in 0..ppn % 5 {
        c.oob.push(OobEntry {
            lpn: ppn * 1000 + i,
            sequence: ppn,
            kind: OobKind::Data,
        });
    }
    c
}

/// Programs the first `pages` pages of `block`.
fn program(f: &mut FlashArray, block: u64, pages: u32) {
    let g = *f.geometry();
    for p in 0..pages {
        let ppn = g.ppn_in_block(BlockId(block), p);
        f.program(ppn, &mut page(ppn.0), SimTime::ZERO).unwrap();
    }
}

/// Per programmed page: its units' first-fragment keys and its records'
/// lpns (both flip under the injector's XOR mask).
type Tags = Vec<(u64, Vec<Option<u64>>, Vec<u64>)>;

fn tags(f: &FlashArray) -> Tags {
    (0..f.geometry().total_pages())
        .filter_map(|raw| {
            let v = f.read(Ppn(raw))?;
            let units = (0..UNITS)
                .map(|i| v.unit(i).map(|u| u.fragments[0].key))
                .collect();
            Some((raw, units, v.oob_records().map(|o| o.lpn).collect()))
        })
        .collect()
}

/// Arms data and OOB rot at rate 0.6 under `seed`, runs `ticks`
/// fault-clock ticks, and returns every flip in order; also checks the
/// injector's counters against them.
fn rot_victims(f: &mut FlashArray, seed: u64, ticks: u32) -> Vec<Victim> {
    f.arm_faults(FaultPlan::new(FaultConfig {
        seed,
        bit_rot_data: 0.6,
        bit_rot_oob: 0.6,
        ..FaultConfig::default()
    }));
    let mut before = tags(f);
    let mut victims = Vec::new();
    for _ in 0..ticks {
        f.logical_tick().unwrap();
        let after = tags(f);
        for (a, b) in before.iter().zip(&after) {
            assert_eq!(a.0, b.0, "rot never programs or erases a page");
            for (i, (x, y)) in a.1.iter().zip(&b.1).enumerate() {
                if let (Some(x), Some(y)) = (x, y) {
                    if x != y {
                        victims.push((a.0, Unit, i, x ^ y));
                    }
                }
            }
            for (i, (x, y)) in a.2.iter().zip(&b.2).enumerate() {
                if x != y {
                    victims.push((a.0, Oob, i, x ^ y));
                }
            }
        }
        before = after;
    }
    let c = f.counters();
    let units = victims.iter().filter(|v| v.1 == Unit).count() as u64;
    assert_eq!(c.get("flash.bit_rot_data"), units);
    assert_eq!(c.get("flash.bit_rot_oob"), victims.len() as u64 - units);
    victims
}

#[test]
fn bit_rot_picks_the_same_victims_for_a_fixed_seed() {
    let mut f = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
    for (block, pages) in [(0, 5), (3, 32), (7, 1), (20, 17), (63, 2), (41, 9)] {
        program(&mut f, block, pages);
    }
    f.erase(BlockId(3), SimTime::ZERO).unwrap();
    program(&mut f, 3, 3);
    assert_eq!(rot_victims(&mut f, 2024, 48), SCATTERED);
}

#[test]
fn bit_rot_wraps_to_the_head_of_a_lone_partial_block() {
    let g = FlashGeometry {
        channels: 1,
        dies_per_channel: 1,
        planes_per_die: 1,
        blocks_per_plane: 4,
        pages_per_block: 32,
        page_bytes: 4096,
    };
    let mut f = FlashArray::new(g, FlashTiming::mlc());
    program(&mut f, 2, 3);
    assert_eq!(rot_victims(&mut f, 7, 24), LONE_BLOCK);
}

//! The storage stack the core integration tests share: a small-geometry
//! device under a GC-eager FTL, and an engine over `records` keys of up
//! to 4 KiB with a `zone_sectors`-sector journal zone.

use checkin_core::{KvEngine, Layout, Strategy};
use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};
use checkin_ftl::{Ftl, FtlConfig};
use checkin_ssd::{Ssd, SsdTiming};

/// A fresh device and engine for `strategy`.
pub fn build(strategy: Strategy, records: u64, zone_sectors: u64) -> (Ssd, KvEngine) {
    let unit = strategy.default_unit_bytes();
    let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
    let ftl = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes: unit,
            write_points: 2,
            gc_threshold_blocks: 4,
            gc_soft_threshold_blocks: 8,
            ..FtlConfig::default()
        },
    )
    .unwrap();
    let ssd = Ssd::new(ftl, SsdTiming::paper_default());
    let layout = Layout::new(records, 4096 + 16, unit, zone_sectors);
    (ssd, KvEngine::new(strategy, layout, 0.7))
}

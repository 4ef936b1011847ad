//! The flash translation layer.
//!
//! Responsibilities:
//!
//! * translate logical-unit writes into page programs through a
//!   power-protected write buffer that packs `units_per_page` sub-units
//!   into each NAND program (the paper's sub-page mapping, §III-D);
//! * serve the **remap** primitive that Check-In's checkpoint processor
//!   uses: make a data-area LPN alias the physical unit already written by
//!   journaling, so a checkpoint costs a mapping update instead of a copy;
//! * reclaim space with greedy garbage collection, migrating valid units
//!   and preserving sharing;
//! * account every statistic the paper's evaluation needs (host vs flash
//!   bytes, invalid-unit generation, GC invocations, RMW operations).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use checkin_flash::{
    BlockId, ChecksumMismatch, ErrorClass, FaultPhase, FlashArray, FlashError, Fragment, OobEntry,
    OobKind, OpPhase, PageContent, Ppn, UnitPayload,
};
use checkin_sim::{CounterSet, SimTime, TraceEvent, TraceLayer, Tracer, Window};

use crate::config::FtlConfig;
use crate::error::{FtlError, IntegrityError, RecoveryError};
use crate::location::{BufSlot, Location, Lpn, Pun};
use crate::map_cache::MapCacheModel;
use crate::mapping::{MappingTable, Unlink};
use crate::policy::VictimCandidate;

/// Why a garbage-collection round was started. Each invocation is
/// counted under a per-trigger key and recorded in the trace, which is
/// what makes GC cost attributable (foreground GC stalls host writes;
/// background and wear-leveling rounds run in idle windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcTrigger {
    /// Free-block headroom ran out during allocation; the host write
    /// path is stalled behind this round.
    Foreground,
    /// Idle-window collection requested by the device front end.
    Background,
    /// Static wear-leveling migration of a cold block.
    WearLevel,
}

impl GcTrigger {
    /// Stable lowercase label (trace annotation).
    pub fn label(self) -> &'static str {
        match self {
            GcTrigger::Foreground => "foreground",
            GcTrigger::Background => "background",
            GcTrigger::WearLevel => "wear_level",
        }
    }

    /// Counter key for rounds started by this trigger.
    pub fn counter_key(self) -> &'static str {
        match self {
            GcTrigger::Foreground => "ftl.gc_foreground",
            GcTrigger::Background => "ftl.gc_background",
            GcTrigger::WearLevel => "ftl.gc_wear_level",
        }
    }
}

/// One logical-unit write request.
#[derive(Debug, Clone)]
pub struct UnitWrite {
    /// Destination logical unit.
    pub lpn: Lpn,
    /// New content for (part of) the unit.
    pub payload: UnitPayload,
    /// True when the write covers the whole mapping unit. Partial writes
    /// trigger a read-modify-write merge with the unit's old content.
    pub whole_unit: bool,
}

/// Lifecycle of a physical block from the FTL's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Free,
    Active,
    Closed,
    /// Permanently out of service (grown defect or failed erase). Never
    /// selected as a GC or wear-leveling victim and never recycled into
    /// the free pool.
    Retired,
}

#[derive(Debug, Clone)]
struct SlotData {
    payload: UnitPayload,
    oob: OobEntry,
}

/// Where a mapping entry pointed when the mapping log was persisted.
#[derive(Debug, Clone, Copy)]
enum SnapLoc {
    /// Directly addressable flash copy.
    Flash(Pun),
    /// Capacitor-backed buffer copy, identified by its OOB sequence
    /// number — stable across drains and slot-id recycling, unlike the
    /// slot id itself.
    Buffered {
        /// OOB sequence the unit carried when snapshotted.
        oob_seq: u64,
    },
}

/// The persisted mapping log: the firmware state behind the periodic
/// ISCE metadata writes (§III-F) and the pre-erase flush. Recovery
/// resolves this first and replays only OOB records written after it.
#[derive(Debug, Clone)]
struct MappingSnapshot {
    /// Global write-sequence value at persist time.
    seq: u64,
    /// Mapping entries in ascending-lpn order.
    entries: Vec<(Lpn, SnapLoc)>,
}

/// Outcome counts of a post-power-loss FTL rebuild
/// ([`Ftl::rebuild_after_power_loss`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Persisted-snapshot entries resolved into the fresh mapping table.
    pub snapshot_entries_resolved: u64,
    /// Persisted-snapshot entries dropped (target no longer readable).
    pub snapshot_entries_dropped: u64,
    /// Post-snapshot OOB records replayed (newest-wins per lpn).
    pub oob_records_replayed: u64,
    /// Capacitor-backed buffer slots re-linked into the table.
    pub buffered_units_recovered: u64,
    /// OOB records rejected by checksum verification during the scan
    /// (torn tails, rotted metadata). Rejected records never replay and
    /// never advance the recovered sequence floor.
    pub oob_records_rejected: u64,
}

/// Outcome counts of one background scrub round ([`Ftl::scrub_round`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Programmed pages whose data units were verified this round.
    pub pages_scanned: u64,
    /// Units whose checksum mismatched and were newly marked corrupt.
    pub detected: u64,
    /// Detected units still referenced by the mapping table: the data is
    /// quarantined and reads of it fail with a typed error.
    pub quarantined: u64,
    /// Detected units no longer referenced (stale copies): no logical
    /// data was at risk, the mark only keeps GC from copying rot.
    pub corrected: u64,
}

/// The flash translation layer over a [`FlashArray`].
///
/// # Examples
///
/// ```
/// use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, OobKind, UnitPayload};
/// use checkin_ftl::{Ftl, FtlConfig, Lpn, UnitWrite};
/// use checkin_sim::SimTime;
///
/// let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
/// let mut ftl = Ftl::new(flash, FtlConfig { unit_bytes: 512, write_points: 2, ..FtlConfig::default() }).unwrap();
/// let w = UnitWrite { lpn: Lpn(0), payload: UnitPayload::single(9, 1, 512), whole_unit: true };
/// ftl.write(w, OobKind::Data, SimTime::ZERO)?;
/// let (payload, _done) = ftl.read(Lpn(0), SimTime::ZERO)?;
/// assert_eq!(payload.fragments[0].key, 9);
/// # Ok::<(), checkin_ftl::FtlError>(())
/// ```
#[derive(Debug)]
pub struct Ftl {
    config: FtlConfig,
    upp: u32,
    flash: FlashArray,
    table: MappingTable,
    /// Slot-id-indexed buffered units; freed ids are recycled via
    /// `free_slot_ids` so this array (and the mapping table's buffer-side
    /// reverse array) stays bounded by the write-buffer depth instead of
    /// growing with total writes.
    slots: Vec<Option<SlotData>>,
    free_slot_ids: Vec<u64>,
    next_slot: u64,
    /// Reusable buffers for the page-out and GC loops (no per-page
    /// allocation in steady state). Stacks rather than single buffers:
    /// GC triggered inside `drain_one_page` re-enters `drain_one_page`
    /// for the migrated units, so up to two invocations are live at
    /// once and each needs its own scratch vector.
    scratch_batches: Vec<Vec<BufSlot>>,
    scratch_placements: Vec<Vec<(BufSlot, u32)>>,
    scratch_valid: Vec<(u32, UnitPayload, Lpn)>,
    /// The page being assembled for program. The flash array moves the
    /// payloads out and leaves the slots for the next page, so page-out
    /// reuses one buffer. (Block allocation, the only re-entrant step,
    /// runs before the page is filled.)
    scratch_page: PageContent,
    /// Per-write-point active block and next page cursor.
    actives: Vec<Option<(BlockId, u32)>>,
    /// Buffered units in arrival order. Updated units are re-queued at the
    /// tail, so the head naturally holds units that stopped receiving
    /// writes (complete journal units, cold data) — those page out first.
    pending: VecDeque<BufSlot>,
    next_wp: usize,
    free_blocks: VecDeque<BlockId>,
    block_kind: Vec<BlockKind>,
    valid_units: Vec<u32>,
    /// Write-sequence value when each block last received a unit — the
    /// deterministic age base for cost-benefit victim selection.
    block_write_seq: Vec<u64>,
    /// Monotone close rank per block (lower closed earlier); feeds
    /// windowed-greedy victim selection.
    block_close_seq: Vec<u64>,
    close_counter: u64,
    counters: CounterSet,
    map_cache: MapCacheModel,
    seq: u64,
    in_gc: bool,
    /// Last persisted mapping log (only maintained under fault injection).
    persisted: Option<MappingSnapshot>,
    /// Physical units whose checksum verification failed. The mapping is
    /// *kept* — unmapping would make reads silently zero-fill — so every
    /// read keeps failing with a typed [`IntegrityError`] until the block
    /// is erased or retired (which clears its marks). Empty in healthy
    /// runs, so the hot-path membership test is one branch.
    quarantined: BTreeSet<Pun>,
    /// Logical units whose only physical copy was corrupt when its block
    /// was reclaimed: data is gone, and reads must say so (typed error)
    /// rather than report "never written". Cleared by a fresh write,
    /// remap, or deallocate.
    poisoned: BTreeSet<Lpn>,
    /// Next page the background scrubber will visit (wraps around).
    scrub_cursor: u64,
    /// Structured trace sink (no-op unless enabled).
    tracer: Tracer,
}

impl Ftl {
    /// Wraps a flash array with translation state.
    ///
    /// # Errors
    ///
    /// Returns a description when `config` is inconsistent with the
    /// array's geometry.
    pub fn new(flash: FlashArray, config: FtlConfig) -> Result<Self, String> {
        let g = *flash.geometry();
        config.validate(g.page_bytes, g.total_blocks())?;
        let upp = config.units_per_page(g.page_bytes);
        let total_blocks = g.total_blocks();
        Ok(Ftl {
            upp,
            map_cache: MapCacheModel::with_capacity(config.map_cache_entries),
            config,
            flash,
            // Pre-reserve the forward array for the physical unit count:
            // the host LPN space in steady state tracks the device size.
            table: MappingTable::with_capacity((g.total_pages() * upp as u64) as usize),
            slots: Vec::new(),
            free_slot_ids: Vec::new(),
            next_slot: 0,
            scratch_batches: Vec::new(),
            scratch_placements: Vec::new(),
            scratch_valid: Vec::new(),
            scratch_page: PageContent::default(),
            actives: vec![None; config.write_points as usize],
            pending: VecDeque::new(),
            next_wp: 0,
            free_blocks: (0..total_blocks).map(BlockId).collect(),
            block_kind: vec![BlockKind::Free; total_blocks as usize],
            valid_units: vec![0; total_blocks as usize],
            block_write_seq: vec![0; total_blocks as usize],
            block_close_seq: vec![0; total_blocks as usize],
            close_counter: 0,
            counters: CounterSet::new(),
            seq: 0,
            in_gc: false,
            persisted: None,
            quarantined: BTreeSet::new(),
            poisoned: BTreeSet::new(),
            scrub_cursor: 0,
            tracer: Tracer::disabled(),
        })
    }

    /// Installs a trace sink on this layer and the flash array below it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.flash.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Mapping unit size in bytes.
    pub fn unit_bytes(&self) -> u32 {
        self.config.unit_bytes
    }

    /// Units per physical page.
    pub fn units_per_page(&self) -> u32 {
        self.upp
    }

    /// The underlying flash array (stats, geometry).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// FTL configuration in effect.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// FTL counters (`ftl.*`), separate from the flash array's.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Live mapping entries (drives the map-cache cost model).
    pub fn live_entries(&self) -> u64 {
        self.table.live_entries() as u64
    }

    /// Expected firmware cost of one mapping-table access right now.
    pub fn map_access_cost(&self) -> checkin_sim::SimDuration {
        self.map_cache.access_cost(self.live_entries())
    }

    /// Blocks currently in the free pool.
    pub fn free_block_count(&self) -> usize {
        self.free_blocks.len()
    }

    /// True if the free pool is at or below the soft (background) GC
    /// threshold (raised by any configured over-provisioning).
    pub fn wants_background_gc(&self) -> bool {
        self.free_blocks.len()
            <= (self.config.gc_soft_threshold_blocks + self.config.overprovision_blocks) as usize
    }

    /// Write-amplification factor: flash bytes programmed over host bytes
    /// written (including RMW and GC traffic). Zero before any host write.
    pub fn waf(&self) -> f64 {
        let host = self.counters.get("ftl.host_bytes");
        if host == 0 {
            return 0.0;
        }
        let programmed =
            self.flash.counters().get("flash.program") * self.flash.geometry().page_bytes as u64;
        programmed as f64 / host as f64
    }

    fn note_unlink(&mut self, u: Unlink) {
        match u {
            Unlink::Orphaned(Location::Flash(pun)) => {
                let block = self.flash.geometry().block_of(pun.page(self.upp));
                let v = &mut self.valid_units[block.0 as usize];
                debug_assert!(*v > 0, "valid count underflow on {block}");
                *v = v.saturating_sub(1);
                self.counters.incr("ftl.invalid_units");
            }
            Unlink::Orphaned(Location::Buffer(slot)) => {
                // The old copy never reached flash: discard it from DRAM so
                // it does not waste a unit of the next page program.
                let _ = self.release_slot(slot);
                self.pending.retain(|&s| s != slot);
            }
            Unlink::StillReferenced(_) | Unlink::NotMapped => {}
        }
    }

    /// Marks a physical unit as corrupt (checksum mismatch). Returns
    /// `Some(referenced)` when the mark is new — `referenced` says
    /// whether the mapping table still pointed at the unit, which is the
    /// difference between quarantined logical data and a harmlessly
    /// rotted stale copy — or `None` when the unit was already marked.
    ///
    /// Counter semantics: every new mark counts in
    /// `ftl.integrity_detected`, and exactly one of
    /// `ftl.integrity_quarantined` (referenced) or
    /// `ftl.integrity_corrected` (stale — nothing to lose, the mark just
    /// keeps GC from copying rot forward).
    fn note_corrupt(&mut self, pun: Pun) -> Option<bool> {
        if !self.quarantined.insert(pun) {
            return None;
        }
        let referenced = !self.table.referrers(Location::Flash(pun)).is_empty();
        self.counters.incr("ftl.integrity_detected");
        if referenced {
            self.counters.incr("ftl.integrity_quarantined");
        } else {
            self.counters.incr("ftl.integrity_corrected");
        }
        Some(referenced)
    }

    /// Quarantined units currently marked inside `block`.
    fn quarantined_in_block(&self, block: BlockId) -> u32 {
        let g = self.flash.geometry();
        let mut n = 0u32;
        for &pun in &self.quarantined {
            if g.block_of(pun.page(self.upp)) == block {
                n += 1;
            }
        }
        n
    }

    /// Drops every quarantine mark inside `block` — called when the block
    /// is erased or retired, after which its physical units hold no data
    /// (and any logical loss has been converted to poisoned lpns).
    fn clear_block_quarantine(&mut self, block: BlockId) {
        if self.quarantined.is_empty() {
            return;
        }
        let g = *self.flash.geometry();
        let upp = self.upp;
        self.quarantined
            .retain(|pun| g.block_of(pun.page(upp)) != block);
    }

    /// A referenced-but-corrupt unit is about to be destroyed (its block
    /// erased by GC or retired): the logical data is unrecoverable. Every
    /// referrer is unmapped and poisoned so later reads report the loss
    /// with a typed error instead of "never written", and the event is
    /// counted in `ftl.integrity_unrecoverable`.
    fn poison_destroyed_unit(&mut self, pun: Pun, at: SimTime) {
        if !self.quarantined.remove(&pun) {
            // Corruption first observed here (during the GC salvage scan
            // itself): still one detected + quarantined event, keeping
            // `detected == quarantined + corrected` as an invariant.
            self.counters.incr("ftl.integrity_detected");
            self.counters.incr("ftl.integrity_quarantined");
        }
        let referrers: Vec<Lpn> = self.table.referrers(Location::Flash(pun)).to_vec();
        for lpn in referrers {
            let u = self.table.unmap(lpn);
            self.note_unlink(u);
            self.poisoned.insert(lpn);
        }
        self.counters.incr("ftl.integrity_unrecoverable");
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "integrity_unrecoverable")
                .with("page", pun.page(self.upp).0)
                .with("offset", u64::from(pun.offset(self.upp)))
        });
    }

    /// Foreground-read reaction to a corrupt unit: quarantine it, retire
    /// the surrounding block once enough of it has rotted (a page's worth
    /// of marks), and produce the typed error the read returns.
    fn quarantine_and_report(&mut self, lpn: Lpn, pun: Pun) -> FtlError {
        let _ = self.note_corrupt(pun);
        let block = self.flash.geometry().block_of(pun.page(self.upp));
        let kind = self
            .block_kind
            .get(block.0 as usize)
            .copied()
            .unwrap_or(BlockKind::Free);
        if kind == BlockKind::Closed && !self.in_gc && self.quarantined_in_block(block) >= self.upp
        {
            // The block is decaying wholesale: salvage what still
            // verifies and take it out of service.
            self.retire_block(block);
        }
        FtlError::Integrity(IntegrityError::CorruptUnit(lpn))
    }

    /// One verified lookup of `pun`'s stored unit: its payload (`None`
    /// when the page or slot is empty), or [`ChecksumMismatch`] when
    /// verification is on and the unit no longer matches its checksum.
    fn checked_unit(&self, pun: Pun) -> Result<Option<&UnitPayload>, ChecksumMismatch> {
        self.flash.read(pun.page(self.upp)).map_or(Ok(None), |v| {
            v.checked_unit(pun.offset(self.upp) as usize, self.config.verify_checksums)
        })
    }

    /// Clears the poisoned mark of `lpn` — its loss record — once a fresh
    /// write, remap, or deallocate supersedes the lost data.
    fn clear_poison(&mut self, lpn: Lpn) {
        if !self.poisoned.is_empty() {
            self.poisoned.remove(&lpn);
        }
    }

    /// Data held by a referenced buffer slot, or `None` when the mapping
    /// points at an empty slot (an internal inconsistency the caller
    /// reports as [`FtlError::Inconsistent`] rather than panicking over).
    fn slot_data(&self, slot: BufSlot) -> Option<&SlotData> {
        self.slots.get(slot.0 as usize)?.as_ref()
    }

    /// Removes a slot's data and recycles its id for reuse. The caller
    /// must ensure no mapping references the slot anymore. Returns `None`
    /// when the slot was already empty (see [`Ftl::slot_data`]).
    fn release_slot(&mut self, slot: BufSlot) -> Option<SlotData> {
        let data = self.slots.get_mut(slot.0 as usize)?.take()?;
        self.free_slot_ids.push(slot.0);
        Some(data)
    }

    fn new_slot(&mut self, payload: UnitPayload, lpn: Lpn, kind: OobKind) -> BufSlot {
        let id = self.free_slot_ids.pop().unwrap_or_else(|| {
            self.next_slot += 1;
            self.slots.push(None);
            self.next_slot - 1
        });
        self.seq += 1;
        let data = SlotData {
            payload,
            oob: OobEntry {
                lpn: lpn.0,
                sequence: self.seq,
                kind,
            },
        };
        debug_assert!(self.slots[id as usize].is_none(), "slot id double use");
        self.slots[id as usize] = Some(data);
        BufSlot(id)
    }

    /// Writes one logical unit. Partial writes merge with existing content
    /// (read-modify-write); the RMW read is charged to flash timing when
    /// the old copy is on flash.
    ///
    /// Returns the completion instant: `at` for buffered writes, or the
    /// page-program finish when this write filled a page.
    ///
    /// # Errors
    ///
    /// Propagates [`FtlError::OutOfSpace`] when a required program cannot
    /// allocate a block.
    pub fn write(&mut self, w: UnitWrite, kind: OobKind, at: SimTime) -> Result<SimTime, FtlError> {
        self.flash.logical_tick()?;
        self.counters.incr("ftl.host_unit_writes");
        self.counters
            .add("ftl.host_bytes", w.payload.bytes() as u64);
        let mut done = at;

        let payload = if w.whole_unit {
            w.payload
        } else {
            // Read-modify-write merge with the old unit content.
            match self.table.lookup(w.lpn) {
                None => w.payload,
                Some(Location::Buffer(slot)) => {
                    let old = self
                        .slot_data(slot)
                        .ok_or(FtlError::Inconsistent("mapped buffer slot is empty"))?;
                    merge_payload(&old.payload, &w.payload)
                }
                Some(Location::Flash(pun)) => {
                    // A partial write merging with a corrupt old copy
                    // would launder rot into a freshly-checksummed unit:
                    // fail the write instead.
                    if !self.quarantined.is_empty() && self.quarantined.contains(&pun) {
                        return Err(FtlError::Integrity(IntegrityError::CorruptUnit(w.lpn)));
                    }
                    self.counters.incr("ftl.rmw_reads");
                    let win = self.read_with_retry(pun.page(self.upp), at)?;
                    done = done.max(win.finish);
                    // One verified lookup serves both the checksum check
                    // and the old-payload fetch.
                    let old = match self.checked_unit(pun) {
                        Ok(old) => old.cloned(),
                        Err(ChecksumMismatch) => return Err(self.quarantine_and_report(w.lpn, pun)),
                    };
                    merge_payload(&old.unwrap_or_default(), &w.payload)
                }
            }
        };

        let slot = self.new_slot(payload, w.lpn, kind);
        let prev = self.table.map(w.lpn, Location::Buffer(slot));
        self.note_unlink(prev);
        self.clear_poison(w.lpn);

        self.pending.push_back(slot);
        done = done.max(self.drain_to_watermark(at)?);
        Ok(done)
    }

    /// Reads one logical unit. Returns its content and the completion
    /// instant (equal to `at` for buffer hits).
    ///
    /// # Errors
    ///
    /// [`FtlError::Unmapped`] when the unit has never been written;
    /// [`FtlError::Integrity`] when its flash copy fails checksum
    /// verification (quarantined) or was destroyed while corrupt
    /// (poisoned).
    pub fn read(&mut self, lpn: Lpn, at: SimTime) -> Result<(UnitPayload, SimTime), FtlError> {
        self.counters.incr("ftl.host_unit_reads");
        match self.table.lookup(lpn) {
            None if !self.poisoned.is_empty() && self.poisoned.contains(&lpn) => {
                Err(FtlError::Integrity(IntegrityError::Poisoned(lpn)))
            }
            None => Err(FtlError::Unmapped(lpn)),
            Some(Location::Buffer(slot)) => {
                let data = self
                    .slot_data(slot)
                    .ok_or(FtlError::Inconsistent("mapped buffer slot is empty"))?;
                Ok((data.payload.clone(), at))
            }
            Some(Location::Flash(pun)) => {
                if !self.quarantined.is_empty() && self.quarantined.contains(&pun) {
                    return Err(FtlError::Integrity(IntegrityError::CorruptUnit(lpn)));
                }
                let win = self.read_with_retry(pun.page(self.upp), at)?;
                // One verified lookup serves both the checksum check and
                // the payload fetch — this is the foreground path.
                let Ok(payload) = self.checked_unit(pun).map(|p| p.cloned()) else {
                    let _ = self.note_corrupt(pun);
                    return Err(FtlError::Integrity(IntegrityError::CorruptUnit(lpn)));
                };
                debug_assert!(
                    payload.is_some(),
                    "mapped unit {lpn} -> {pun} has no flash content (erased while referenced?)"
                );
                Ok((payload.unwrap_or_default(), win.finish))
            }
        }
    }

    /// Reads one logical unit, appending its fragments — filtered by
    /// `key` when given — to `out` without cloning the payload. Timing,
    /// counters, and errors match [`Ftl::read`]; this is the hot-path
    /// variant that keeps the steady-state read loop allocation-free.
    ///
    /// # Errors
    ///
    /// [`FtlError::Unmapped`] when the unit has never been written;
    /// [`FtlError::Integrity`] for quarantined or poisoned units.
    pub fn read_fragments_into(
        &mut self,
        lpn: Lpn,
        at: SimTime,
        key: Option<u64>,
        out: &mut Vec<Fragment>,
    ) -> Result<SimTime, FtlError> {
        self.counters.incr("ftl.host_unit_reads");
        match self.table.lookup(lpn) {
            None if !self.poisoned.is_empty() && self.poisoned.contains(&lpn) => {
                Err(FtlError::Integrity(IntegrityError::Poisoned(lpn)))
            }
            None => Err(FtlError::Unmapped(lpn)),
            Some(Location::Buffer(slot)) => {
                let data = self
                    .slot_data(slot)
                    .ok_or(FtlError::Inconsistent("mapped buffer slot is empty"))?;
                push_matching(&data.payload, key, out);
                Ok(at)
            }
            Some(Location::Flash(pun)) => {
                if !self.quarantined.is_empty() && self.quarantined.contains(&pun) {
                    return Err(FtlError::Integrity(IntegrityError::CorruptUnit(lpn)));
                }
                let win = self.read_with_retry(pun.page(self.upp), at)?;
                // One verified lookup, fragments copied straight out —
                // this is the allocation-free read hot loop.
                let Ok(payload) = self.checked_unit(pun) else {
                    return Err(self.quarantine_and_report(lpn, pun));
                };
                if let Some(payload) = payload {
                    push_matching(payload, key, out);
                }
                debug_assert!(
                    payload.is_some(),
                    "mapped unit {lpn} -> {pun} has no flash content (erased while referenced?)"
                );
                Ok(win.finish)
            }
        }
    }

    /// True when `lpn` currently maps to something.
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.table.lookup(lpn).is_some()
    }

    /// Current location of `lpn` (diagnostics).
    pub fn location_of(&self, lpn: Lpn) -> Option<Location> {
        self.table.lookup(lpn)
    }

    /// The remap primitive: make `dst` reference the same physical copy as
    /// `src` (checkpoint by copy-on-write, Algorithm 1's
    /// `MapToTarget` step). No flash traffic; only mapping metadata.
    ///
    /// # Errors
    ///
    /// [`FtlError::Unmapped`] when `src` has no mapping.
    pub fn remap(&mut self, dst: Lpn, src: Lpn) -> Result<(), FtlError> {
        self.flash.logical_tick()?;
        let prev = self.table.alias(dst, src).map_err(FtlError::Unmapped)?;
        self.note_unlink(prev);
        self.clear_poison(dst);
        self.counters.incr("ftl.remap_ops");
        Ok(())
    }

    /// Removes `lpn`'s mapping (deallocate/trim). Returns true when a
    /// mapping existed.
    pub fn deallocate(&mut self, lpn: Lpn) -> bool {
        // A power cut on this tick silently drops the trim: the device is
        // off and the caller observes the loss on its next fallible op.
        if self.flash.logical_tick().is_err() {
            return false;
        }
        let u = self.table.unmap(lpn);
        let existed = u != Unlink::NotMapped;
        if matches!(u, Unlink::Orphaned(Location::Buffer(_))) {
            // Metadata-before-data-discard: a buffered unit never reached
            // flash, so the capacitor-backed slot is its only copy and it
            // has no OOB record. Persist the unmapping before the slot is
            // destroyed — otherwise a post-cut rebuild resolves the stale
            // mapping-log entry to nothing and leaves a one-unit hole in a
            // zone whose neighbours all resurrect, which breaks the
            // engine's journal-scan recovery (a trimmed tombstone vanishes
            // while the older value it deleted survives).
            self.persist_mapping_log();
        }
        self.note_unlink(u);
        // Trimming a poisoned lpn acknowledges the loss: the caller no
        // longer wants the data, so the loss record clears too.
        self.clear_poison(lpn);
        if existed {
            self.counters.incr("ftl.deallocations");
        }
        existed
    }

    /// Pads and programs every partially filled write-point buffer.
    /// Returns the last program's finish time (or `at` when nothing was
    /// pending).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn flush(&mut self, at: SimTime) -> Result<SimTime, FtlError> {
        let mut done = at;
        while !self.pending.is_empty() {
            done = done.max(self.drain_one_page(at)?);
        }
        Ok(done)
    }

    /// Pages out buffered units while the buffer exceeds its watermark.
    fn drain_to_watermark(&mut self, at: SimTime) -> Result<SimTime, FtlError> {
        let mut done = at;
        while self.pending.len() >= self.config.write_buffer_units as usize {
            done = done.max(self.drain_one_page(at)?);
        }
        Ok(done)
    }

    fn drain_one_page(&mut self, at: SimTime) -> Result<SimTime, FtlError> {
        // Take the batch BEFORE allocating: block allocation may trigger
        // GC, which enqueues freshly migrated units. Those stay buffered
        // for later pages.
        if self.pending.is_empty() {
            return Ok(at);
        }
        let mut taken = self.scratch_batches.pop().unwrap_or_default();
        taken.clear();
        let take_n = self.pending.len().min(self.upp as usize);
        taken.extend(self.pending.drain(..take_n));
        let wp = self.next_wp;
        self.next_wp = (self.next_wp + 1) % self.actives.len();
        let (block, page) = match self.alloc_page_slot(wp, at) {
            Ok(v) => v,
            Err(e) => {
                // Put the batch back so no buffered data is lost.
                for (i, &slot) in taken.iter().enumerate() {
                    self.pending.insert(i, slot);
                }
                self.scratch_batches.push(taken);
                return Err(e);
            }
        };
        let ppn = self.flash.geometry().ppn_in_block(block, page);

        let mut content = std::mem::take(&mut self.scratch_page);
        content.units.clear();
        content.units.resize(self.upp as usize, None);
        content.oob.clear();
        let mut placements = self.scratch_placements.pop().unwrap_or_default();
        placements.clear();
        // Under fault injection the slots keep their data until the program
        // succeeds, so a power cut or media failure loses nothing that was
        // acknowledged. The fault-free hot path keeps its move-only,
        // allocation-free behavior.
        let faulting = self.flash.faults_armed();
        for (offset, &slot) in taken.iter().enumerate() {
            if faulting {
                let data = self.slot_data(slot).ok_or(FtlError::Inconsistent(
                    "page-out batch references empty slot",
                ))?;
                content.units[offset] = Some(data.payload.clone());
                content.oob.push(data.oob);
            } else {
                let data = self.release_slot(slot).ok_or(FtlError::Inconsistent(
                    "page-out batch references empty slot",
                ))?;
                content.units[offset] = Some(data.payload);
                content.oob.push(data.oob);
            }
            placements.push((slot, offset as u32));
        }

        let programmed = self.program_with_retry(ppn, &mut content, at);
        self.scratch_page = content;
        let win = match programmed {
            Ok(w) => w,
            Err(e) => {
                if faulting {
                    // The slots still hold every unit: re-queue the batch at
                    // the head so nothing acknowledged is lost.
                    for (i, &slot) in taken.iter().enumerate() {
                        self.pending.insert(i, slot);
                    }
                }
                self.scratch_batches.push(taken);
                self.scratch_placements.push(placements);
                if let FlashError::GrownBadBlock(bad) = e {
                    // Graceful degradation: retire the block and report
                    // success; the still-queued batch drains to a healthy
                    // block on the caller's next loop iteration.
                    if let Some((b, _)) = self.actives[wp] {
                        if b == bad {
                            self.actives[wp] = None;
                        }
                    }
                    self.retire_block(bad);
                    return Ok(at);
                }
                return Err(e.into());
            }
        };
        self.counters.incr("ftl.pages_programmed");
        // The block absorbed fresh units "now" on the write-sequence
        // clock: its age (for cost-benefit victim selection) restarts.
        self.block_write_seq[block.0 as usize] = self.seq;
        let units = placements.len() as u64;
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "page_out")
                .with("block", block.0)
                .with("page", u64::from(page))
                .with("units", units)
        });

        for &(slot, offset) in &placements {
            if faulting {
                let _ = self.release_slot(slot);
            }
            let pun = Pun::compose(ppn, offset, self.upp);
            let moved = self
                .table
                .relocate(Location::Buffer(slot), Location::Flash(pun));
            if moved > 0 {
                self.valid_units[block.0 as usize] += 1;
            }
            // moved == 0: the buffered unit died before page-out; it is now
            // padding on flash and simply never becomes valid.
        }
        self.scratch_batches.push(taken);
        self.scratch_placements.push(placements);
        Ok(win.finish)
    }

    /// Marks a fully programmed block closed and stamps its close rank
    /// (the FIFO order windowed-greedy victim selection scans by).
    fn close_block(&mut self, block: BlockId) {
        self.block_kind[block.0 as usize] = BlockKind::Closed;
        self.close_counter += 1;
        self.block_close_seq[block.0 as usize] = self.close_counter;
    }

    fn alloc_page_slot(&mut self, wp: usize, at: SimTime) -> Result<(BlockId, u32), FtlError> {
        let ppb = self.flash.geometry().pages_per_block;
        if let Some((block, page)) = self.actives[wp] {
            if page < ppb {
                self.actives[wp] = if page + 1 < ppb {
                    Some((block, page + 1))
                } else {
                    self.close_block(block);
                    None
                };
                return Ok((block, page));
            }
        }
        let block = self.alloc_block(at)?;
        self.actives[wp] = if ppb > 1 {
            Some((block, 1))
        } else {
            self.close_block(block);
            None
        };
        Ok((block, 0))
    }

    /// Free-pool size at or below which foreground GC must run: the hard
    /// threshold plus any blocks withheld as over-provisioning.
    fn gc_trigger_threshold(&self) -> usize {
        (self.config.gc_threshold_blocks + self.config.overprovision_blocks) as usize
    }

    fn alloc_block(&mut self, at: SimTime) -> Result<BlockId, FtlError> {
        if !self.in_gc && self.free_blocks.len() <= self.gc_trigger_threshold() {
            self.collect_until_headroom(at)?;
        }
        let block = self.free_blocks.pop_front().ok_or(FtlError::OutOfSpace)?;
        self.block_kind[block.0 as usize] = BlockKind::Active;
        Ok(block)
    }

    fn collect_until_headroom(&mut self, at: SimTime) -> Result<(), FtlError> {
        while self.free_blocks.len() <= self.gc_trigger_threshold() {
            if self.run_gc_round(at, GcTrigger::Foreground)?.is_none() {
                // No reclaimable victim. Not fatal yet: the caller may
                // still have free blocks to use.
                break;
            }
        }
        Ok(())
    }

    /// Selects the GC victim under the configured
    /// [`VictimPolicy`](crate::VictimPolicy): every closed block that
    /// would yield free space is offered as a candidate with its valid
    /// count, wear, write-sequence age, and close rank. Returns `None`
    /// when no block would yield free space.
    fn select_victim(&self) -> Option<BlockId> {
        let capacity = self.upp * self.flash.geometry().pages_per_block;
        let now = self.seq;
        let candidates = self
            .block_kind
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k == BlockKind::Closed)
            .map(|(i, _)| BlockId(i as u64))
            .filter(|b| self.valid_units[b.0 as usize] < capacity)
            .map(|b| VictimCandidate {
                block: b,
                valid_units: self.valid_units[b.0 as usize],
                capacity,
                erase_count: self.flash.erase_count(b),
                age: now.saturating_sub(self.block_write_seq[b.0 as usize]),
                closed_rank: self.block_close_seq[b.0 as usize],
            });
        self.config.victim_policy.select(candidates)
    }

    /// Spread between the most-erased **in-service** block and the coldest
    /// block still holding data (free blocks recirculate on their own, so
    /// only closed blocks can pin cold data to barely-worn cells). Retired
    /// blocks are out of both sides of the comparison: a retired block
    /// will never be erased again, so its (often high) erase count says
    /// nothing about skew that wear leveling could still fix — using the
    /// flash array's cached global maximum here used to pin the delta
    /// above the threshold forever once a hot block retired.
    pub fn wear_delta(&self) -> u64 {
        let mut max: Option<u64> = None;
        let mut min_closed: Option<u64> = None;
        for (b, &kind) in self.block_kind.iter().enumerate() {
            if kind == BlockKind::Retired {
                continue;
            }
            let erases = self.flash.erase_count(BlockId(b as u64));
            max = Some(max.map_or(erases, |m| m.max(erases)));
            if kind == BlockKind::Closed {
                min_closed = Some(min_closed.map_or(erases, |m| m.min(erases)));
            }
        }
        match (max, min_closed) {
            (Some(max), Some(min)) => max.saturating_sub(min),
            _ => 0,
        }
    }

    /// Runs one static wear-leveling round if the wear skew exceeds the
    /// configured threshold: the *coldest* closed block (fewest erases)
    /// is migrated and erased, so its barely-worn cells rejoin the free
    /// pool while its long-lived data moves to hotter blocks. Returns
    /// `Ok(None)` when levelling is disabled, not needed, or no candidate
    /// exists.
    ///
    /// # Errors
    ///
    /// Propagates flash errors from the migration.
    pub fn run_wear_leveling_round(&mut self, at: SimTime) -> Result<Option<SimTime>, FtlError> {
        let Some(threshold) = self.config.wear_leveling_threshold else {
            return Ok(None);
        };
        if self.wear_delta() <= threshold {
            return Ok(None);
        }
        let victim = self
            .block_kind
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k == BlockKind::Closed)
            .map(|(i, _)| BlockId(i as u64))
            .min_by_key(|b| self.flash.erase_count(*b));
        let Some(victim) = victim else {
            return Ok(None);
        };
        self.in_gc = true;
        self.counters.incr("ftl.wear_level_rounds");
        let prev_phase = self.flash.set_fault_phase(FaultPhase::Gc);
        let result = self.migrate_and_erase(victim, at, GcTrigger::WearLevel);
        self.flash.set_fault_phase(prev_phase);
        self.in_gc = false;
        result.map(Some)
    }

    /// Runs one garbage-collection round: migrate the victim's valid units
    /// (preserving shared references), erase it, and return the finish
    /// time. Returns `Ok(None)` when no victim is reclaimable.
    ///
    /// # Errors
    ///
    /// Propagates flash errors (FTL bugs) and out-of-space conditions from
    /// the migration writes.
    pub fn run_gc_round(
        &mut self,
        at: SimTime,
        trigger: GcTrigger,
    ) -> Result<Option<SimTime>, FtlError> {
        let Some(victim) = self.select_victim() else {
            return Ok(None);
        };
        self.in_gc = true;
        let prev_phase = self.flash.set_fault_phase(FaultPhase::Gc);
        let result = self.migrate_and_erase(victim, at, trigger);
        self.flash.set_fault_phase(prev_phase);
        self.in_gc = false;
        result.map(Some)
    }

    fn migrate_and_erase(
        &mut self,
        victim: BlockId,
        at: SimTime,
        trigger: GcTrigger,
    ) -> Result<SimTime, FtlError> {
        self.counters.incr("ftl.gc_invocations");
        self.counters.incr(trigger.counter_key());
        let moved_before = self.counters.get("ftl.gc_units_moved");
        // All flash traffic below (migration reads, page-out programs,
        // the victim erase) is attributed to the GC phase; the previous
        // phase is restored on every exit path.
        let prev_op_phase = self.flash.set_op_phase(OpPhase::Gc);
        let result = self.migrate_and_erase_inner(victim, at);
        self.flash.set_op_phase(prev_op_phase);
        let moved = self.counters.get("ftl.gc_units_moved") - moved_before;
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "gc")
                .tag(trigger.label())
                .with("victim", victim.0)
                .with("units_moved", moved)
                .with("ok", u64::from(result.is_ok()))
        });
        result
    }

    fn migrate_and_erase_inner(
        &mut self,
        victim: BlockId,
        at: SimTime,
    ) -> Result<SimTime, FtlError> {
        let g = *self.flash.geometry();
        let mut done = at;
        let mut corrupt: Vec<Pun> = Vec::new();
        for page in 0..g.pages_per_block {
            let ppn = g.ppn_in_block(victim, page);
            // Collect valid units of this page first (borrow rules). The
            // scratch buffer is reused across pages and GC rounds.
            let mut valid = std::mem::take(&mut self.scratch_valid);
            valid.clear();
            corrupt.clear();
            for offset in 0..self.upp {
                let pun = Pun::compose(ppn, offset, self.upp);
                let refs = self.table.referrers(Location::Flash(pun));
                if let Some(&primary) = refs.first() {
                    // Verify before salvaging: relocating a unit re-seals
                    // its checksum, which would launder rot into a copy
                    // that verifies. A corrupt referenced unit is about
                    // to lose its only copy — poison it instead.
                    match self.checked_unit(pun) {
                        Ok(payload) => {
                            valid.push((offset, payload.cloned().unwrap_or_default(), primary))
                        }
                        Err(ChecksumMismatch) => corrupt.push(pun),
                    }
                }
            }
            for &pun in &corrupt {
                self.poison_destroyed_unit(pun, at);
            }
            if valid.is_empty() {
                self.scratch_valid = valid;
                continue;
            }
            let win = match self.read_with_retry(ppn, at) {
                Ok(w) => w,
                Err(e) => {
                    self.scratch_valid = valid;
                    return Err(e.into());
                }
            };
            done = done.max(win.finish);
            let mut fail = None;
            for (offset, payload, primary) in valid.drain(..) {
                let pun = Pun::compose(ppn, offset, self.upp);
                let slot = self.new_slot(payload, primary, OobKind::GcCopy);
                let moved = self
                    .table
                    .relocate(Location::Flash(pun), Location::Buffer(slot));
                debug_assert!(moved > 0);
                self.valid_units[victim.0 as usize] -= 1;
                self.counters.incr("ftl.gc_units_moved");
                self.pending.push_back(slot);
                match self.drain_to_watermark(at) {
                    Ok(t) => done = done.max(t),
                    Err(e) => {
                        fail = Some(e);
                        break;
                    }
                }
            }
            self.scratch_valid = valid;
            if let Some(e) = fail {
                return Err(e);
            }
        }
        debug_assert_eq!(self.valid_units[victim.0 as usize], 0);
        // Persist the mapping log before the erase so a later power cut
        // never finds the persisted snapshot pointing into an erased block.
        self.persist_mapping_log();
        match self.erase_with_retry(victim, done) {
            Ok(win) => {
                self.block_kind[victim.0 as usize] = BlockKind::Free;
                self.free_blocks.push_back(victim);
                self.clear_block_quarantine(victim);
                Ok(win.finish)
            }
            Err(FlashError::PowerLoss) => Err(FlashError::PowerLoss.into()),
            Err(_) => {
                // Grown defect, worn out, or retries exhausted: the block
                // cannot be recycled. It holds no valid units any more, so
                // retiring it is pure capacity loss, not data loss.
                self.block_kind[victim.0 as usize] = BlockKind::Retired;
                self.counters.incr("ftl.blocks_retired");
                self.clear_block_quarantine(victim);
                Ok(done)
            }
        }
    }

    /// Schedules a read, retrying transient media failures with
    /// exponential backoff up to the read-class attempt budget
    /// ([`FtlConfig::retry_read`]).
    fn read_with_retry(&mut self, ppn: Ppn, at: SimTime) -> Result<Window, FlashError> {
        let policy = self.config.retry_read;
        let mut t = at;
        let mut attempt = 0u32;
        loop {
            match self.flash.schedule_read(ppn, t) {
                Ok(w) => return Ok(w),
                Err(e) if e.classification() == ErrorClass::Transient => {
                    if attempt + 1 >= policy.limit {
                        self.counters.incr("ftl.retry_exhausted_read");
                        return Err(e);
                    }
                    attempt += 1;
                    self.counters.incr("ftl.media_retries");
                    t += self.flash.timing().t_read
                        * (1u64 << attempt.min(policy.backoff_shift_cap));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Programs a page with the program-class bounded-backoff policy
    /// ([`FtlConfig::retry_program`]). A failed program leaves `content`
    /// untouched, so every attempt reuses the same buffer.
    fn program_with_retry(
        &mut self,
        ppn: Ppn,
        content: &mut PageContent,
        at: SimTime,
    ) -> Result<Window, FlashError> {
        let policy = self.config.retry_program;
        let mut t = at;
        let mut attempt = 0u32;
        loop {
            match self.flash.program(ppn, content, t) {
                Ok(w) => return Ok(w),
                Err(e) if e.classification() == ErrorClass::Transient => {
                    if attempt + 1 >= policy.limit {
                        self.counters.incr("ftl.retry_exhausted_program");
                        return Err(e);
                    }
                    attempt += 1;
                    self.counters.incr("ftl.media_retries");
                    t += self.flash.timing().t_program
                        * (1u64 << attempt.min(policy.backoff_shift_cap));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Erases a block with the erase-class bounded-backoff policy
    /// ([`FtlConfig::retry_erase`]).
    fn erase_with_retry(&mut self, block: BlockId, at: SimTime) -> Result<Window, FlashError> {
        let policy = self.config.retry_erase;
        let mut t = at;
        let mut attempt = 0u32;
        loop {
            match self.flash.erase(block, t) {
                Ok(w) => return Ok(w),
                Err(e) if e.classification() == ErrorClass::Transient => {
                    if attempt + 1 >= policy.limit {
                        self.counters.incr("ftl.retry_exhausted_erase");
                        return Err(e);
                    }
                    attempt += 1;
                    self.counters.incr("ftl.media_retries");
                    t += self.flash.timing().t_erase
                        * (1u64 << attempt.min(policy.backoff_shift_cap));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes a block with a grown defect out of service: every unit still
    /// referenced by the table is salvaged back into the capacitor-backed
    /// write buffer (from where it re-drains to a healthy block), then the
    /// block is marked retired and counted in `ftl.blocks_retired`.
    fn retire_block(&mut self, block: BlockId) {
        let g = *self.flash.geometry();
        let mut corrupt: Vec<Pun> = Vec::new();
        for page in 0..self.flash.write_cursor(block) {
            let ppn = g.ppn_in_block(block, page);
            let mut valid = std::mem::take(&mut self.scratch_valid);
            valid.clear();
            corrupt.clear();
            for offset in 0..self.upp {
                let pun = Pun::compose(ppn, offset, self.upp);
                let refs = self.table.referrers(Location::Flash(pun));
                if let Some(&primary) = refs.first() {
                    // Same rule as GC: never salvage (and re-seal) a copy
                    // that no longer verifies.
                    match self.checked_unit(pun) {
                        Ok(payload) => {
                            valid.push((offset, payload.cloned().unwrap_or_default(), primary))
                        }
                        Err(ChecksumMismatch) => corrupt.push(pun),
                    }
                }
            }
            for &pun in &corrupt {
                self.poison_destroyed_unit(pun, SimTime::ZERO);
            }
            for (offset, payload, primary) in valid.drain(..) {
                let pun = Pun::compose(ppn, offset, self.upp);
                let slot = self.new_slot(payload, primary, OobKind::GcCopy);
                let moved = self
                    .table
                    .relocate(Location::Flash(pun), Location::Buffer(slot));
                debug_assert!(moved > 0);
                self.valid_units[block.0 as usize] -= 1;
                self.pending.push_back(slot);
            }
            self.scratch_valid = valid;
        }
        debug_assert_eq!(self.valid_units[block.0 as usize], 0);
        self.block_kind[block.0 as usize] = BlockKind::Retired;
        self.counters.incr("ftl.blocks_retired");
        self.clear_block_quarantine(block);
    }

    /// One background-scrub round: verifies the data-unit checksums of up
    /// to `max_pages` programmed pages, resuming from where the previous
    /// round stopped (the cursor wraps). Corrupt units are marked exactly
    /// like a failed foreground read — referenced copies quarantine (the
    /// next read fails fast with a typed error instead of serving rot),
    /// stale copies are merely fenced off from GC — but scrubbing never
    /// retires blocks itself; that decision stays on the foreground path.
    ///
    /// Runs entirely under [`OpPhase::Scrub`], so its flash reads are
    /// phase-tagged (`flash.read.scrub`) and never pollute the run/GC
    /// accounting. A no-op (and no flash traffic) when checksum
    /// verification is disabled.
    ///
    /// OOB records are *not* scrubbed here: rotted OOB metadata is only
    /// ever consumed by the SPOR scan, which re-verifies and rejects it
    /// at read time ([`Ftl::rebuild_after_power_loss`]).
    ///
    /// # Errors
    ///
    /// Propagates media failures of the scrub reads themselves (retry
    /// budget exhausted, power loss). Scrubbing is recovery-adjacent
    /// code: it must never panic (rule A1).
    pub fn scrub_round(&mut self, at: SimTime, max_pages: u32) -> Result<ScrubReport, FtlError> {
        let mut report = ScrubReport::default();
        if !self.config.verify_checksums || max_pages == 0 {
            return Ok(report);
        }
        let total = self.flash.geometry().total_pages();
        if total == 0 {
            return Ok(report);
        }
        let prev = self.flash.set_op_phase(OpPhase::Scrub);
        let out = self.scrub_pages(at, max_pages, total, &mut report);
        self.flash.set_op_phase(prev);
        self.counters.incr("ftl.scrub_rounds");
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Ftl, "scrub_round")
                .with("pages", report.pages_scanned)
                .with("detected", report.detected)
        });
        out.map(|()| report)
    }

    /// The scan loop of [`Ftl::scrub_round`]: walks the wrapping cursor,
    /// pays a timed (phase-tagged) read per programmed page, and verifies
    /// every occupied data unit.
    fn scrub_pages(
        &mut self,
        at: SimTime,
        max_pages: u32,
        total: u64,
        report: &mut ScrubReport,
    ) -> Result<(), FtlError> {
        let mut t = at;
        let mut visited = 0u64;
        let budget = u64::from(max_pages).min(total);
        while report.pages_scanned < budget && visited < total {
            let ppn = Ppn(self.scrub_cursor % total);
            self.scrub_cursor = (self.scrub_cursor + 1) % total;
            visited += 1;
            if !self.flash.is_programmed(ppn) {
                continue;
            }
            let win = self.read_with_retry(ppn, t)?;
            t = win.finish;
            report.pages_scanned += 1;
            self.counters.incr("ftl.scrub_pages");
            // Verify the whole page under one borrow, collecting corrupt
            // offsets into a bitmask; quarantine (which needs `&mut self`)
            // happens after the borrow ends. Chunked so any units-per-page
            // value is covered, not just the first 128.
            let mut base = 0u32;
            while base < self.upp {
                let width = (self.upp - base).min(128);
                let mut corrupt_mask = 0u128;
                if let Some(pc) = self.flash.read(ppn) {
                    for bit in 0..width {
                        if !pc.unit_intact((base + bit) as usize) {
                            corrupt_mask |= 1u128 << bit;
                        }
                    }
                }
                for bit in 0..width {
                    if (corrupt_mask >> bit) & 1 == 0 {
                        continue;
                    }
                    let pun = Pun::compose(ppn, base + bit, self.upp);
                    match self.note_corrupt(pun) {
                        Some(true) => {
                            report.detected += 1;
                            report.quarantined += 1;
                        }
                        Some(false) => {
                            report.detected += 1;
                            report.corrected += 1;
                        }
                        None => {}
                    }
                }
                base += width;
            }
        }
        Ok(())
    }

    /// Persists the mapping log — the firmware action behind the periodic
    /// ISCE metadata writes (§III-F) and the pre-erase flush. Recovery
    /// resolves this snapshot first and replays only OOB records written
    /// after it, which is what makes *unmappings* (journal trims, tombstone
    /// trims) and remap aliases durable: both are pure metadata changes
    /// invisible to the OOB stream.
    ///
    /// Gated on fault injection being armed, so normal runs never pay for
    /// it.
    pub fn persist_mapping_log(&mut self) {
        if !self.flash.faults_armed() {
            return;
        }
        let mut entries = Vec::with_capacity(self.table.live_entries());
        for (lpn, loc) in self.table.iter() {
            let snap = match loc {
                Location::Flash(pun) => SnapLoc::Flash(pun),
                Location::Buffer(slot) => {
                    // A mapping onto an empty slot is an inconsistency;
                    // dropping it from the snapshot is safe (the entry
                    // re-resolves from the OOB stream on recovery).
                    let Some(data) = self.slot_data(slot) else {
                        continue;
                    };
                    SnapLoc::Buffered {
                        oob_seq: data.oob.sequence,
                    }
                }
            };
            entries.push((lpn, snap));
        }
        self.persisted = Some(MappingSnapshot {
            seq: self.seq,
            entries,
        });
        self.counters.incr("ftl.mapping_log_persists");
    }

    /// Rebuilds the whole FTL state after a power cut from what survives:
    /// flash contents and their OOB stream, per-block write cursors and
    /// bad-block marks, the capacitor-backed write buffer, and the last
    /// persisted mapping log.
    ///
    /// Algorithm (the paper's §III-G SPOR, extended with the mapping log):
    ///
    /// 1. resolve the persisted snapshot — flash entries directly, buffered
    ///    entries via a live slot with the recorded OOB sequence or, if the
    ///    unit drained before the cut, via the OOB record carrying that
    ///    sequence on flash (matched by sequence alone, since remap aliases
    ///    reference a unit under an lpn other than the one it was written
    ///    under);
    /// 2. replay OOB records *newer than the snapshot* in sequence order,
    ///    newest winning per lpn;
    /// 3. overlay live buffer slots newer than the snapshot — a live slot
    ///    is always the newest copy of its lpn;
    /// 4. reconstruct block lifecycle from write cursors and bad-block
    ///    marks, and recompute per-block valid-unit counts from the fresh
    ///    table. Live buffer slots re-queue for page-out in write order.
    ///
    /// # Errors
    ///
    /// [`RecoveryError::PoweredOff`] when the array has not been powered
    /// back on ([`FlashArray::power_on`]) first;
    /// [`RecoveryError::Inconsistent`] when the surviving state
    /// contradicts itself. Recovery code must never panic (rule A1), so
    /// even caller mistakes report through the error path.
    pub fn rebuild_after_power_loss(&mut self) -> Result<RebuildStats, RecoveryError> {
        if self.flash.powered_off() {
            return Err(RecoveryError::PoweredOff);
        }
        let g = *self.flash.geometry();
        let upp = self.upp;
        let mut stats = RebuildStats::default();
        let snap = self.persisted.take();
        let snap_seq = snap.as_ref().map(|s| s.seq).unwrap_or(0);

        // Live buffer slots indexed by their OOB sequence number.
        let mut slot_by_seq: BTreeMap<u64, BufSlot> = BTreeMap::new();
        for (id, data) in self.slots.iter().enumerate() {
            if let Some(d) = data {
                slot_by_seq.insert(d.oob.sequence, BufSlot(id as u64));
            }
        }

        // One full OOB scan. Post-snapshot records become the replay list;
        // older records go into an exact (lpn, seq) index used to resolve
        // snapshot entries whose buffered unit drained before the cut.
        let mut replay: Vec<(u64, Lpn, Pun)> = Vec::new();
        // Keyed by OOB sequence alone: a sequence number identifies one
        // written unit, while the record's lpn is only the lpn the unit
        // was *written* under — remap aliases (checkpointed home lpns)
        // reference the same unit under a different lpn and must still
        // resolve after the slot drains.
        let mut pre_snap: BTreeMap<u64, Pun> = BTreeMap::new();
        let mut max_seq = snap_seq;
        let verify = self.config.verify_checksums;
        for raw in 0..g.total_pages() {
            let ppn = Ppn(raw);
            let Some(content) = self.flash.read(ppn) else {
                continue;
            };
            for (offset, oob) in content.oob_records().enumerate() {
                // A record only enters recovery when its OOB metadata AND
                // the data unit it describes both verify: a torn tail or
                // rotted record must neither replay (it would resurrect
                // corrupt data) nor advance `max_seq` (a flipped sequence
                // bit could falsely win newest-wins over good records).
                if verify && !(content.oob_intact(offset) && content.unit_intact(offset)) {
                    stats.oob_records_rejected += 1;
                    continue;
                }
                let pun = Pun::compose(ppn, offset as u32, upp);
                max_seq = max_seq.max(oob.sequence);
                if oob.sequence > snap_seq {
                    replay.push((oob.sequence, Lpn(oob.lpn), pun));
                } else {
                    pre_snap.insert(oob.sequence, pun);
                }
            }
        }
        replay.sort_unstable_by_key(|&(seq, _, _)| seq);

        let mut table = MappingTable::with_capacity((g.total_pages() * upp as u64) as usize);
        if let Some(snap) = &snap {
            for &(lpn, loc) in &snap.entries {
                let resolved = match loc {
                    // A snapshot entry whose flash copy no longer
                    // verifies is dropped, not resolved: recovery must
                    // never re-link a mapping onto corrupt data.
                    SnapLoc::Flash(pun) => self
                        .flash
                        .read(pun.page(upp))
                        .filter(|pc| !verify || pc.unit_intact(pun.offset(upp) as usize))
                        .map(|_| Location::Flash(pun)),
                    SnapLoc::Buffered { oob_seq } => slot_by_seq
                        .get(&oob_seq)
                        .map(|&s| Location::Buffer(s))
                        .or_else(|| pre_snap.get(&oob_seq).map(|&p| Location::Flash(p))),
                };
                match resolved {
                    Some(l) => {
                        let _ = table.map(lpn, l);
                        stats.snapshot_entries_resolved += 1;
                    }
                    None => stats.snapshot_entries_dropped += 1,
                }
            }
        }
        for &(_, lpn, pun) in &replay {
            let _ = table.map(lpn, Location::Flash(pun));
            stats.oob_records_replayed += 1;
        }
        for (id, data) in self.slots.iter().enumerate() {
            if let Some(d) = data {
                max_seq = max_seq.max(d.oob.sequence);
                if d.oob.sequence > snap_seq {
                    let _ = table.map(Lpn(d.oob.lpn), Location::Buffer(BufSlot(id as u64)));
                    stats.buffered_units_recovered += 1;
                }
            }
        }
        self.table = table;

        // Block lifecycle from what the flash itself knows. Both per-block
        // vectors are rebuilt from scratch (no indexing into the stale
        // state): geometry is the single source of their length.
        self.free_blocks.clear();
        let mut block_kind = Vec::with_capacity(g.total_blocks() as usize);
        // Age and close order do not survive a cut (they are runtime GC
        // heuristics, not durable state): every surviving closed block
        // restarts at age zero with its close rank assigned in block-id
        // order. Deterministic, and only victim *preference* — never
        // correctness — depends on it.
        self.block_write_seq = vec![0; g.total_blocks() as usize];
        self.block_close_seq = vec![0; g.total_blocks() as usize];
        self.close_counter = 0;
        for b in 0..g.total_blocks() {
            let id = BlockId(b);
            let kind = if self.flash.is_bad_block(id) {
                BlockKind::Retired
            } else if self.flash.write_cursor(id) > 0 {
                BlockKind::Closed
            } else {
                BlockKind::Free
            };
            block_kind.push(kind);
            if kind == BlockKind::Free {
                self.free_blocks.push_back(id);
            } else if kind == BlockKind::Closed {
                self.close_counter += 1;
                if let Some(rank) = self.block_close_seq.get_mut(b as usize) {
                    *rank = self.close_counter;
                }
            }
        }
        self.block_kind = block_kind;
        let mut valid_units = vec![0u32; g.total_blocks() as usize];
        let mut seen = BTreeSet::new();
        for (_, loc) in self.table.iter() {
            if let Location::Flash(pun) = loc {
                if seen.insert(pun) {
                    let b = g.block_of(pun.page(upp));
                    let count =
                        valid_units
                            .get_mut(b.0 as usize)
                            .ok_or(RecoveryError::Inconsistent(
                                "recovered mapping references an out-of-range block",
                            ))?;
                    *count += 1;
                }
            }
        }
        self.valid_units = valid_units;

        // Fresh runtime state: no active blocks, no GC in flight; the
        // whole surviving buffer re-queues for page-out in write order.
        for a in &mut self.actives {
            *a = None;
        }
        self.next_wp = 0;
        self.in_gc = false;
        self.pending.clear();
        let mut live: Vec<(u64, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(id, d)| d.as_ref().map(|d| (d.oob.sequence, id as u64)))
            .collect();
        live.sort_unstable();
        for &(_, id) in &live {
            self.pending.push_back(BufSlot(id));
        }
        self.free_slot_ids.clear();
        for (id, d) in self.slots.iter().enumerate() {
            if d.is_none() {
                self.free_slot_ids.push(id as u64);
            }
        }
        self.seq = self.seq.max(max_seq);
        self.counters.incr("ftl.power_loss_rebuilds");
        // Re-persist immediately: the recovered table is the new floor.
        self.persist_mapping_log();
        Ok(stats)
    }

    /// Test-only sabotage: throws away the capacitor-backed write buffer
    /// (slots, pending queue, and their mappings), deliberately breaking
    /// the acked-write durability contract. Harnesses call this to prove
    /// their verifier actually detects a broken recovery; never call it
    /// anywhere else.
    pub fn sabotage_drop_write_buffer(&mut self) {
        let buffered: Vec<Lpn> = self
            .table
            .iter()
            .filter_map(|(lpn, loc)| matches!(loc, Location::Buffer(_)).then_some(lpn))
            .collect();
        for lpn in buffered {
            let _ = self.table.unmap(lpn);
        }
        self.slots.clear();
        self.free_slot_ids.clear();
        self.next_slot = 0;
        self.pending.clear();
    }

    /// Mutable access to the flash array (power-fail injection in tests).
    pub fn flash_mut(&mut self) -> &mut FlashArray {
        &mut self.flash
    }

    /// Iterates `(lpn, location)` over the whole table (recovery scans).
    pub fn mapping_iter(&self) -> impl Iterator<Item = (Lpn, Location)> + '_ {
        self.table.iter()
    }

    /// Exhaustive internal-consistency check for tests: mapping symmetry,
    /// per-block valid-unit counts, free blocks hold no valid data.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.table.check_consistency()?;
        let g = self.flash.geometry();
        let mut expect = vec![0u32; g.total_blocks() as usize];
        // Each occupied flash location counts once, however many referrers.
        let mut seen = BTreeSet::new();
        for (_, loc) in self.table.iter() {
            if let Location::Flash(pun) = loc {
                if seen.insert(pun) {
                    let b = g.block_of(pun.page(self.upp));
                    expect[b.0 as usize] += 1;
                }
            }
        }
        for (i, (&got, &want)) in self.valid_units.iter().zip(&expect).enumerate() {
            if got != want {
                return Err(format!(
                    "block {i}: valid_units={got} but table references {want}"
                ));
            }
        }
        for &b in &self.free_blocks {
            if self.valid_units[b.0 as usize] != 0 {
                return Err(format!("free block {b} has valid units"));
            }
            if self.block_kind[b.0 as usize] != BlockKind::Free {
                return Err(format!("free-pool block {b} not marked Free"));
            }
        }
        for (id, data) in self.slots.iter().enumerate() {
            if data.is_none() {
                continue;
            }
            let slot = BufSlot(id as u64);
            if self.table.referrers(Location::Buffer(slot)).is_empty()
                && !self.pending.contains(&slot)
            {
                return Err(format!("orphaned buffer slot {slot}"));
            }
        }
        for (_, loc) in self.table.iter() {
            if let Location::Flash(pun) = loc {
                let b = g.block_of(pun.page(self.upp));
                if self.block_kind[b.0 as usize] == BlockKind::Retired {
                    return Err(format!("mapping references retired block {b}"));
                }
            }
        }
        Ok(())
    }
}

/// Appends `payload`'s fragments to `out`, keeping only `key`'s when a
/// filter key is given.
fn push_matching(payload: &UnitPayload, key: Option<u64>, out: &mut Vec<Fragment>) {
    for f in payload.fragments.iter() {
        if key.map(|k| k == f.key).unwrap_or(true) {
            out.push(*f);
        }
    }
}

/// Merges a partial write into existing unit content: fragments of keys
/// present in `new` are replaced; other old fragments survive.
fn merge_payload(old: &UnitPayload, new: &UnitPayload) -> UnitPayload {
    let mut fragments: checkin_flash::FragVec = old
        .fragments
        .iter()
        .filter(|f| !new.fragments.iter().any(|n| n.key == f.key))
        .copied()
        .collect();
    fragments.extend(new.fragments.iter().copied());
    UnitPayload { fragments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkin_flash::{FlashGeometry, FlashTiming};

    fn small_ftl(unit_bytes: u32) -> Ftl {
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        Ftl::new(
            flash,
            FtlConfig {
                unit_bytes,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                write_buffer_units: 16,
                ..FtlConfig::default()
            },
        )
        .unwrap()
    }

    fn w(lpn: u64, key: u64, version: u64, bytes: u32) -> UnitWrite {
        UnitWrite {
            lpn: Lpn(lpn),
            payload: UnitPayload::single(key, version, bytes),
            whole_unit: true,
        }
    }

    #[test]
    fn write_then_read_from_buffer() {
        let mut f = small_ftl(512);
        f.write(w(0, 1, 1, 512), OobKind::Data, SimTime::ZERO)
            .unwrap();
        let (p, t) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].key, 1);
        assert_eq!(t, SimTime::ZERO, "buffer hit has no flash latency");
        f.check_invariants().unwrap();
    }

    #[test]
    fn page_out_after_buffer_watermark() {
        let mut f = small_ftl(512);
        let upp = f.units_per_page() as u64; // 8
                                             // Watermark is 16 units: writing 4 pages' worth forces page-outs.
        for i in 0..upp * 4 {
            f.write(w(i, i, 1, 512), OobKind::Data, SimTime::ZERO)
                .unwrap();
        }
        assert!(f.flash().counters().get("flash.program") >= 2);
        let (p, t) = f.read(Lpn(0), SimTime::from_nanos(0)).unwrap();
        assert_eq!(p.fragments[0].key, 0);
        assert!(t > SimTime::ZERO, "flash read has latency");
        f.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_invalidates_old_copy() {
        let mut f = small_ftl(512);
        for i in 0..16 {
            f.write(w(0, 7, i + 1, 512), OobKind::Data, SimTime::ZERO)
                .unwrap();
            // Flush so each version reaches flash and the next overwrite
            // invalidates a flash-resident copy.
            f.flush(SimTime::ZERO).unwrap();
        }
        let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].version, 16, "latest version wins");
        assert!(f.counters().get("ftl.invalid_units") > 0);
        f.check_invariants().unwrap();
    }

    #[test]
    fn read_unmapped_errors() {
        let mut f = small_ftl(512);
        assert!(matches!(
            f.read(Lpn(5), SimTime::ZERO),
            Err(FtlError::Unmapped(Lpn(5)))
        ));
    }

    #[test]
    fn remap_shares_physical_copy() {
        let mut f = small_ftl(512);
        f.write(w(100, 1, 3, 512), OobKind::Journal, SimTime::ZERO)
            .unwrap();
        f.flush(SimTime::ZERO).unwrap();
        f.remap(Lpn(0), Lpn(100)).unwrap();
        let (a, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        let (b, _) = f.read(Lpn(100), SimTime::ZERO).unwrap();
        assert_eq!(a, b);
        assert_eq!(f.location_of(Lpn(0)), f.location_of(Lpn(100)));
        // Remap costs zero flash programs.
        let programs = f.flash().counters().get("flash.program");
        assert_eq!(programs, 1);
        f.check_invariants().unwrap();
    }

    #[test]
    fn remap_unmapped_source_fails() {
        let mut f = small_ftl(512);
        assert!(matches!(
            f.remap(Lpn(0), Lpn(9)),
            Err(FtlError::Unmapped(_))
        ));
    }

    #[test]
    fn deallocate_journal_keeps_data_alias_alive() {
        let mut f = small_ftl(512);
        f.write(w(100, 1, 1, 512), OobKind::Journal, SimTime::ZERO)
            .unwrap();
        f.flush(SimTime::ZERO).unwrap();
        f.remap(Lpn(0), Lpn(100)).unwrap();
        assert!(f.deallocate(Lpn(100)));
        // Data alias still readable; no invalid unit was generated.
        let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].key, 1);
        assert_eq!(f.counters().get("ftl.invalid_units"), 0);
        assert!(!f.deallocate(Lpn(100)), "already gone");
        f.check_invariants().unwrap();
    }

    #[test]
    fn partial_write_merges_with_flash_copy() {
        let mut f = small_ftl(4096);
        // Unit holds keys 1 and 2.
        f.write(
            UnitWrite {
                lpn: Lpn(0),
                payload: UnitPayload::merged(vec![
                    checkin_flash::Fragment {
                        key: 1,
                        version: 1,
                        bytes: 1024,
                    },
                    checkin_flash::Fragment {
                        key: 2,
                        version: 1,
                        bytes: 1024,
                    },
                ]),
                whole_unit: true,
            },
            OobKind::Data,
            SimTime::ZERO,
        )
        .unwrap();
        f.flush(SimTime::ZERO).unwrap();
        // Partial update of key 2 only.
        f.write(
            UnitWrite {
                lpn: Lpn(0),
                payload: UnitPayload::single(2, 2, 1024),
                whole_unit: false,
            },
            OobKind::Data,
            SimTime::ZERO,
        )
        .unwrap();
        let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        let k1 = p.fragments.iter().find(|fr| fr.key == 1).unwrap();
        let k2 = p.fragments.iter().find(|fr| fr.key == 2).unwrap();
        assert_eq!(k1.version, 1);
        assert_eq!(k2.version, 2);
        assert_eq!(f.counters().get("ftl.rmw_reads"), 1);
        f.check_invariants().unwrap();
    }

    #[test]
    fn gc_reclaims_space_under_churn() {
        let mut f = small_ftl(512);
        // Small geometry: 64 blocks x 32 pages x 8 units = 16384 units.
        // Hammer 256 logical units with updates until GC must run.
        for round in 0..100u64 {
            for lpn in 0..256u64 {
                f.write(w(lpn, lpn, round + 1, 512), OobKind::Data, SimTime::ZERO)
                    .unwrap();
            }
        }
        assert!(
            f.counters().get("ftl.gc_invocations") > 0,
            "GC should trigger"
        );
        assert!(f.free_block_count() > 0);
        // Every unit readable at its latest version.
        for lpn in 0..256u64 {
            let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
            assert_eq!(p.fragments[0].version, 100, "lpn {lpn}");
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn gc_preserves_shared_references() {
        let mut f = small_ftl(512);
        f.write(w(1000, 5, 9, 512), OobKind::Journal, SimTime::ZERO)
            .unwrap();
        f.flush(SimTime::ZERO).unwrap();
        f.remap(Lpn(0), Lpn(1000)).unwrap();
        // Force churn so GC eventually relocates the shared unit's block.
        for round in 0..120u64 {
            for lpn in 1..200u64 {
                f.write(w(lpn, lpn, round + 1, 512), OobKind::Data, SimTime::ZERO)
                    .unwrap();
            }
        }
        assert!(f.counters().get("ftl.gc_invocations") > 0);
        let (a, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        let (b, _) = f.read(Lpn(1000), SimTime::ZERO).unwrap();
        assert_eq!(a, b, "aliases stay identical across GC migration");
        assert_eq!(a.fragments[0].version, 9);
        f.check_invariants().unwrap();
    }

    #[test]
    fn waf_exceeds_one_under_small_writes() {
        let mut f = small_ftl(4096);
        for i in 0..64u64 {
            // 512-byte host writes into 4 KiB units: heavy padding.
            f.write(
                UnitWrite {
                    lpn: Lpn(i),
                    payload: UnitPayload::single(i, 1, 512),
                    whole_unit: false,
                },
                OobKind::Data,
                SimTime::ZERO,
            )
            .unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        assert!(f.waf() > 1.0, "waf = {}", f.waf());
    }

    #[test]
    fn flush_pads_partial_pages() {
        let mut f = small_ftl(512);
        f.write(w(0, 1, 1, 512), OobKind::Data, SimTime::ZERO)
            .unwrap();
        let done = f.flush(SimTime::ZERO).unwrap();
        assert!(done > SimTime::ZERO);
        assert_eq!(f.flash().counters().get("flash.program"), 1);
        let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].key, 1);
        f.check_invariants().unwrap();
    }

    #[test]
    fn out_of_space_when_all_valid() {
        let flash = FlashArray::new(
            FlashGeometry {
                channels: 1,
                dies_per_channel: 1,
                planes_per_die: 1,
                blocks_per_plane: 8,
                pages_per_block: 4,
                page_bytes: 4096,
            },
            FlashTiming::mlc(),
        );
        let mut f = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 4096,
                write_points: 1,
                gc_threshold_blocks: 2,
                gc_soft_threshold_blocks: 2,
                write_buffer_units: 1,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        // 8 blocks x 4 pages = 32 units; all distinct -> nothing reclaimable.
        let mut failed = false;
        for i in 0..40u64 {
            match f.write(w(i, i, 1, 4096), OobKind::Data, SimTime::ZERO) {
                Ok(_) => {}
                Err(FtlError::OutOfSpace) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(failed, "completely full device must report OutOfSpace");
    }

    #[test]
    fn map_access_cost_reflects_live_entries() {
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        let mut f = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 512,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                map_cache_entries: Some(4),
                write_buffer_units: 16,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let cheap = f.map_access_cost();
        for i in 0..64 {
            f.write(w(i, i, 1, 512), OobKind::Data, SimTime::ZERO)
                .unwrap();
        }
        assert!(f.map_access_cost() > cheap);
    }

    #[test]
    fn background_gc_signal() {
        let f = small_ftl(512);
        assert!(!f.wants_background_gc(), "fresh device has headroom");
    }

    #[test]
    fn merge_payload_replaces_matching_keys() {
        let old = UnitPayload::merged(vec![
            checkin_flash::Fragment {
                key: 1,
                version: 1,
                bytes: 100,
            },
            checkin_flash::Fragment {
                key: 2,
                version: 1,
                bytes: 100,
            },
        ]);
        let new = UnitPayload::single(2, 5, 100);
        let merged = merge_payload(&old, &new);
        assert_eq!(merged.fragments.len(), 2);
        assert_eq!(
            merged
                .fragments
                .iter()
                .find(|f| f.key == 2)
                .unwrap()
                .version,
            5
        );
    }
}

#[cfg(test)]
mod buffer_overwrite_tests {
    use super::*;
    use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};

    #[test]
    fn buffered_overwrite_discards_old_slot() {
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        let mut f = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 512,
                write_points: 1,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        // Write the same lpn `upp` times: old buffered copies must be
        // dropped, so no page program should happen (buffer never fills).
        for v in 1..=8u64 {
            f.write(
                UnitWrite {
                    lpn: Lpn(0),
                    payload: UnitPayload::single(1, v, 512),
                    whole_unit: true,
                },
                OobKind::Data,
                SimTime::ZERO,
            )
            .unwrap();
        }
        assert_eq!(f.flash().counters().get("flash.program"), 0);
        let (p, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].version, 8);
        f.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod wear_leveling_tests {
    use super::*;
    use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};

    fn wl_ftl(threshold: Option<u64>) -> Ftl {
        let flash = FlashArray::new(
            FlashGeometry {
                channels: 1,
                dies_per_channel: 1,
                planes_per_die: 1,
                blocks_per_plane: 16,
                pages_per_block: 8,
                page_bytes: 4096,
            },
            FlashTiming::mlc(),
        );
        Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 4096,
                write_points: 1,
                gc_threshold_blocks: 2,
                gc_soft_threshold_blocks: 4,
                write_buffer_units: 1,
                wear_leveling_threshold: threshold,
                ..FtlConfig::default()
            },
        )
        .unwrap()
    }

    fn write_unit(f: &mut Ftl, lpn: u64, version: u64) {
        f.write(
            UnitWrite {
                lpn: Lpn(lpn),
                payload: UnitPayload::single(lpn, version, 4096),
                whole_unit: true,
            },
            OobKind::Data,
            SimTime::ZERO,
        )
        .unwrap();
    }

    /// Cold data parked in block 0 while hot lpns churn: without static
    /// wear leveling the cold block never gets erased; with it, the wear
    /// spread stays bounded and the cold data survives the migration.
    #[test]
    fn levels_cold_block_and_preserves_data() {
        let mut f = wl_ftl(Some(4));
        // Cold records fill the first block (8 units).
        for lpn in 0..8u64 {
            write_unit(&mut f, lpn, 1);
        }
        // Hot churn: rewrite a small set until GC has cycled many times.
        for round in 0..400u64 {
            for lpn in 8..32u64 {
                write_unit(&mut f, lpn, round + 1);
            }
        }
        assert!(f.wear_delta() > 4, "churn must skew wear");
        let mut rounds = 0;
        while f.run_wear_leveling_round(SimTime::ZERO).unwrap().is_some() {
            rounds += 1;
            assert!(rounds < 64, "wear leveling must converge");
        }
        assert!(rounds > 0, "levelling should have run");
        assert_eq!(f.counters().get("ftl.wear_level_rounds"), rounds);
        // Cold data intact at version 1.
        for lpn in 0..8u64 {
            let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
            assert_eq!(p.fragments[0].version, 1, "lpn {lpn}");
        }
        f.check_invariants().unwrap();
    }

    /// Regression: a retired block that was the wear ceiling used to pin
    /// `wear_delta` above the threshold forever (the flash array's cached
    /// global max includes retired blocks), so every call to
    /// `run_wear_leveling_round` migrated a cold block without ever
    /// converging. Retired blocks can never be erased again — they must
    /// not count toward levelable skew.
    #[test]
    fn retired_hot_block_does_not_pin_wear_delta() {
        let mut f = wl_ftl(Some(4));
        // A little cold data so closed blocks exist.
        for lpn in 0..8u64 {
            write_unit(&mut f, lpn, 1);
        }
        f.flush(SimTime::ZERO).unwrap();
        // Take one free block, wear it hot (erasing an erased free block
        // only bumps its counters), and retire it.
        let hot = *f.free_blocks.back().expect("free pool non-empty");
        for _ in 0..50 {
            f.flash_mut().erase(hot, SimTime::ZERO).unwrap();
        }
        f.free_blocks.retain(|&b| b != hot);
        f.block_kind[hot.0 as usize] = BlockKind::Retired;

        // In-service skew is zero-ish: nothing else was erased. The old
        // implementation reported 50 here and levelled on every call.
        assert!(
            f.wear_delta() <= 4,
            "retired block inflates wear_delta to {}",
            f.wear_delta()
        );
        assert_eq!(
            f.run_wear_leveling_round(SimTime::ZERO).unwrap(),
            None,
            "no wear-leveling round should run on a level device"
        );
        assert_eq!(f.counters().get("ftl.wear_level_rounds"), 0);
        f.check_invariants().unwrap();
    }

    #[test]
    fn disabled_threshold_never_levels() {
        let mut f = wl_ftl(None);
        for round in 0..200u64 {
            for lpn in 0..24u64 {
                write_unit(&mut f, lpn, round + 1);
            }
        }
        assert_eq!(f.run_wear_leveling_round(SimTime::ZERO).unwrap(), None);
        assert_eq!(f.counters().get("ftl.wear_level_rounds"), 0);
    }

    #[test]
    fn below_threshold_is_a_noop() {
        let mut f = wl_ftl(Some(1_000_000));
        for round in 0..100u64 {
            for lpn in 0..24u64 {
                write_unit(&mut f, lpn, round + 1);
            }
        }
        assert_eq!(f.run_wear_leveling_round(SimTime::ZERO).unwrap(), None);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::config::MediaRetryPolicy;
    use checkin_flash::{FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming};
    use std::collections::HashMap as Shadow;

    fn fault_ftl(retry_limit: u32) -> Ftl {
        let flash = FlashArray::new(
            FlashGeometry {
                channels: 1,
                dies_per_channel: 1,
                planes_per_die: 1,
                blocks_per_plane: 16,
                pages_per_block: 8,
                page_bytes: 4096,
            },
            FlashTiming::mlc(),
        );
        Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 4096,
                write_points: 1,
                gc_threshold_blocks: 2,
                gc_soft_threshold_blocks: 4,
                write_buffer_units: 4,
                wear_leveling_threshold: None,
                retry_read: MediaRetryPolicy::with_limit(retry_limit),
                retry_program: MediaRetryPolicy::with_limit(retry_limit),
                retry_erase: MediaRetryPolicy::with_limit(retry_limit),
                ..FtlConfig::default()
            },
        )
        .unwrap()
    }

    fn put(f: &mut Ftl, lpn: u64, version: u64) -> Result<SimTime, FtlError> {
        f.write(
            UnitWrite {
                lpn: Lpn(lpn),
                payload: UnitPayload::single(lpn, version, 4096),
                whole_unit: true,
            },
            OobKind::Data,
            SimTime::ZERO,
        )
    }

    #[test]
    fn transient_media_failures_are_absorbed_by_retries() {
        let mut f = fault_ftl(8);
        f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
            seed: 7,
            transient_read: 0.2,
            transient_program: 0.2,
            transient_erase: 0.2,
            ..FaultConfig::default()
        }));
        let mut shadow: Shadow<u64, u64> = Shadow::new();
        for i in 0..400u64 {
            let lpn = i % 24;
            put(&mut f, lpn, i).unwrap();
            shadow.insert(lpn, i);
        }
        assert!(
            f.counters().get("ftl.media_retries") > 0,
            "retries must have happened at a 20% fault rate"
        );
        for (&lpn, &version) in &shadow {
            let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
            assert_eq!(p.fragments[0].version, version, "lpn {lpn}");
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn grown_bad_blocks_are_retired_without_data_loss() {
        let mut f = fault_ftl(4);
        f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
            seed: 11,
            grown_bad_block: 0.004,
            ..FaultConfig::default()
        }));
        let mut shadow: Shadow<u64, u64> = Shadow::new();
        for i in 0..500u64 {
            let lpn = i % 24;
            put(&mut f, lpn, i).unwrap();
            shadow.insert(lpn, i);
        }
        assert!(
            f.counters().get("ftl.blocks_retired") > 0,
            "expected at least one retirement at this seed and rate"
        );
        for (&lpn, &version) in &shadow {
            let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
            assert_eq!(p.fragments[0].version, version, "lpn {lpn}");
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn power_cut_then_rebuild_preserves_every_acked_write() {
        for cut_tick in [5u64, 17, 33, 71, 120, 250, 400, 900] {
            let mut f = fault_ftl(4);
            f.flash_mut()
                .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, cut_tick)));
            let mut shadow: Shadow<u64, u64> = Shadow::new();
            let mut cut = false;
            // The one write that observes the cut is not acknowledged; the
            // durability contract allows it to be either absent or present.
            let mut inflight: Option<(u64, u64)> = None;
            for i in 0..600u64 {
                let lpn = i % 24;
                match put(&mut f, lpn, i) {
                    Ok(_) => {
                        shadow.insert(lpn, i);
                    }
                    Err(e) => {
                        assert!(e.is_power_loss(), "cut {cut_tick}: unexpected {e}");
                        inflight = Some((lpn, i));
                        cut = true;
                        break;
                    }
                }
            }
            assert!(cut, "cut {cut_tick} never fired");
            f.flash_mut().power_on();
            let stats = f.rebuild_after_power_loss().unwrap();
            assert!(
                stats.snapshot_entries_resolved
                    + stats.oob_records_replayed
                    + stats.buffered_units_recovered
                    > 0
                    || shadow.is_empty(),
                "cut {cut_tick}: rebuild recovered nothing"
            );
            for (&lpn, &version) in &shadow {
                let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
                let got = p.fragments[0].version;
                let acceptable =
                    got == version || matches!(inflight, Some((l, v)) if l == lpn && got == v);
                assert!(
                    acceptable,
                    "cut {cut_tick}: lpn {lpn} has version {got}, acked {version}"
                );
            }
            f.check_invariants().unwrap();
            // The device keeps working after recovery.
            put(&mut f, 0, 10_000).unwrap();
            assert_eq!(
                f.read(Lpn(0), SimTime::ZERO).unwrap().0.fragments[0].version,
                10_000
            );
        }
    }

    #[test]
    fn sabotaged_buffer_loses_acked_writes_visibly() {
        let mut f = fault_ftl(4);
        f.flash_mut()
            .arm_faults(FaultPlan::new(FaultConfig::power_cut(5, 1_000_000)));
        // Three acked writes that stay buffered (watermark is 4).
        for lpn in 0..3u64 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flash_mut().cut_power();
        f.flash_mut().power_on();
        // A failed capacitor: the buffer is gone before recovery runs.
        f.sabotage_drop_write_buffer();
        f.rebuild_after_power_loss().unwrap();
        let lost = (0..3u64)
            .filter(|&lpn| f.read(Lpn(lpn), SimTime::ZERO).is_err())
            .count();
        assert!(lost > 0, "sabotage must cause detectable loss");
    }

    #[test]
    fn rebuild_restores_mapping_log_unmappings() {
        let mut f = fault_ftl(4);
        f.flash_mut()
            .arm_faults(FaultPlan::new(FaultConfig::power_cut(9, 1_000_000)));
        put(&mut f, 0, 1).unwrap();
        put(&mut f, 1, 1).unwrap();
        f.flush(SimTime::ZERO).unwrap();
        assert!(f.deallocate(Lpn(0)));
        // The trim is metadata only; persisting the mapping log is what
        // makes it durable across a cut.
        f.persist_mapping_log();
        f.flash_mut().cut_power();
        f.flash_mut().power_on();
        f.rebuild_after_power_loss().unwrap();
        assert!(
            !f.is_mapped(Lpn(0)),
            "persisted trim must not be resurrected by OOB replay"
        );
        assert!(f.is_mapped(Lpn(1)));
        f.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod integrity_tests {
    use super::*;
    use crate::config::MediaRetryPolicy;
    use checkin_flash::{FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming};

    /// Small single-die device, 4 KiB mapping unit (one unit per page),
    /// no fault injection: corruption is placed deterministically with
    /// the sabotage hooks.
    fn integrity_ftl() -> Ftl {
        let flash = FlashArray::new(
            FlashGeometry {
                channels: 1,
                dies_per_channel: 1,
                planes_per_die: 1,
                blocks_per_plane: 16,
                pages_per_block: 8,
                page_bytes: 4096,
            },
            FlashTiming::mlc(),
        );
        Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: 4096,
                write_points: 1,
                gc_threshold_blocks: 2,
                gc_soft_threshold_blocks: 4,
                write_buffer_units: 4,
                wear_leveling_threshold: None,
                ..FtlConfig::default()
            },
        )
        .unwrap()
    }

    fn put(f: &mut Ftl, lpn: u64, version: u64) -> Result<SimTime, FtlError> {
        f.write(
            UnitWrite {
                lpn: Lpn(lpn),
                payload: UnitPayload::single(lpn, version, 4096),
                whole_unit: true,
            },
            OobKind::Data,
            SimTime::ZERO,
        )
    }

    /// The flash location `lpn` maps to (must be drained to flash).
    fn flash_pun(f: &Ftl, lpn: u64) -> Pun {
        match f.location_of(Lpn(lpn)) {
            Some(Location::Flash(pun)) => pun,
            other => panic!("lpn {lpn} not on flash: {other:?}"),
        }
    }

    #[test]
    fn corrupt_unit_read_fails_typed_and_stays_quarantined() {
        let mut f = integrity_ftl();
        for lpn in 0..4 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        let pun = flash_pun(&f, 2);
        assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 17));

        let err = f.read(Lpn(2), SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(2))),
            "corrupt data must fail typed, never be served"
        );
        assert!(err.is_integrity());
        assert_eq!(f.counters().get("ftl.integrity_detected"), 1);
        assert_eq!(f.counters().get("ftl.integrity_quarantined"), 1);

        // Repeated reads keep failing fast without re-detecting.
        let again = f.read(Lpn(2), SimTime::ZERO).unwrap_err();
        assert_eq!(
            again,
            FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(2)))
        );
        assert_eq!(f.counters().get("ftl.integrity_detected"), 1);

        // The allocation-free path agrees.
        let mut out = Vec::new();
        let err = f
            .read_fragments_into(Lpn(2), SimTime::ZERO, None, &mut out)
            .unwrap_err();
        assert!(err.is_integrity());
        assert!(out.is_empty());

        // Healthy neighbours are unaffected.
        assert_eq!(
            f.read(Lpn(1), SimTime::ZERO).unwrap().0.fragments[0].version,
            1
        );
        f.check_invariants().unwrap();
    }

    #[test]
    fn disabling_verification_serves_rot_silently() {
        // The sabotage mode corruptmatrix relies on: with verification
        // off the device trusts whatever the cells hold.
        let mut f = {
            let flash = FlashArray::new(
                FlashGeometry {
                    channels: 1,
                    dies_per_channel: 1,
                    planes_per_die: 1,
                    blocks_per_plane: 16,
                    pages_per_block: 8,
                    page_bytes: 4096,
                },
                FlashTiming::mlc(),
            );
            Ftl::new(
                flash,
                FtlConfig {
                    unit_bytes: 4096,
                    write_points: 1,
                    gc_threshold_blocks: 2,
                    gc_soft_threshold_blocks: 4,
                    write_buffer_units: 4,
                    wear_leveling_threshold: None,
                    verify_checksums: false,
                    ..FtlConfig::default()
                },
            )
            .unwrap()
        };
        put(&mut f, 0, 1).unwrap();
        f.flush(SimTime::ZERO).unwrap();
        let pun = flash_pun(&f, 0);
        f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 3);
        let (payload, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
        assert_ne!(
            payload.fragments[0].version, 1,
            "with verification off the flipped version is served as-is"
        );
        assert_eq!(f.counters().get("ftl.integrity_detected"), 0);
    }

    #[test]
    fn scrub_finds_referenced_and_stale_rot() {
        let mut f = integrity_ftl();
        for lpn in 0..4 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        let stale = flash_pun(&f, 1);
        // Overwriting lpn 1 leaves its old copy stale on flash.
        put(&mut f, 1, 2).unwrap();
        f.flush(SimTime::ZERO).unwrap();
        let live = flash_pun(&f, 3);
        assert_ne!(stale, live);
        assert!(f
            .flash_mut()
            .sabotage_corrupt_unit(stale.page(1), 0, 1 << 9));
        assert!(f.flash_mut().sabotage_corrupt_unit(live.page(1), 0, 1 << 9));

        let report = f.scrub_round(SimTime::ZERO, 1_000).unwrap();
        assert!(report.pages_scanned > 0);
        assert_eq!(report.detected, 2);
        assert_eq!(report.quarantined, 1, "live copy of lpn 3");
        assert_eq!(report.corrected, 1, "stale copy of lpn 1");
        assert_eq!(f.counters().get("ftl.integrity_detected"), 2);
        assert_eq!(f.counters().get("ftl.scrub_rounds"), 1);
        assert!(f.counters().get("ftl.scrub_pages") > 0);
        // Scrub reads are phase-tagged, not charged to the run phase.
        assert!(f.flash().counters().get("flash.read.scrub") > 0);

        // The scrubbed-out unit now fails fast on the foreground path...
        assert!(f.read(Lpn(3), SimTime::ZERO).unwrap_err().is_integrity());
        // ...while the overwritten lpn still reads its fresh copy.
        assert_eq!(
            f.read(Lpn(1), SimTime::ZERO).unwrap().0.fragments[0].version,
            2
        );

        // A second sweep re-reads but detects nothing new.
        let report = f.scrub_round(SimTime::ZERO, 1_000).unwrap();
        assert_eq!(report.detected, 0);
        assert_eq!(f.counters().get("ftl.integrity_detected"), 2);
        f.check_invariants().unwrap();
    }

    #[test]
    fn scrub_respects_budget_and_toggle() {
        let mut f = integrity_ftl();
        for lpn in 0..4 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        let reads_before = f.flash().counters().get("flash.read");
        let report = f.scrub_round(SimTime::ZERO, 0).unwrap();
        assert_eq!(report, ScrubReport::default());
        assert_eq!(f.flash().counters().get("flash.read"), reads_before);

        let report = f.scrub_round(SimTime::ZERO, 1).unwrap();
        assert_eq!(report.pages_scanned, 1, "budget of one page is honoured");

        // Verification off: the scrubber is a guaranteed no-op.
        let mut off = f;
        off.config.verify_checksums = false;
        let reads_before = off.flash().counters().get("flash.read");
        let report = off.scrub_round(SimTime::ZERO, 1_000).unwrap();
        assert_eq!(report, ScrubReport::default());
        assert_eq!(off.flash().counters().get("flash.read"), reads_before);
    }

    #[test]
    fn gc_poisons_destroyed_corrupt_units_and_write_heals() {
        let mut f = integrity_ftl();
        for lpn in 0..8 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        let victim_pun = flash_pun(&f, 0);
        // Invalidate every other unit sharing lpn 0's block so GC picks it.
        for lpn in 1..8 {
            put(&mut f, lpn, 2).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        assert!(f
            .flash_mut()
            .sabotage_corrupt_unit(victim_pun.page(1), 0, 1 << 5));

        let done = f
            .run_gc_round(SimTime::ZERO, GcTrigger::Background)
            .unwrap();
        assert!(done.is_some(), "a victim block must have been collected");
        assert_eq!(f.counters().get("ftl.integrity_unrecoverable"), 1);
        assert_eq!(f.counters().get("ftl.integrity_detected"), 1);
        f.check_invariants().unwrap();

        // The loss is reported as such — not as "never written".
        let err = f.read(Lpn(0), SimTime::ZERO).unwrap_err();
        assert_eq!(err, FtlError::Integrity(IntegrityError::Poisoned(Lpn(0))));

        // A fresh write supersedes the loss.
        put(&mut f, 0, 9).unwrap();
        assert_eq!(
            f.read(Lpn(0), SimTime::ZERO).unwrap().0.fragments[0].version,
            9
        );
        f.check_invariants().unwrap();
    }

    #[test]
    fn retry_exhaustion_is_counted_per_class() {
        let mut f = integrity_ftl();
        f.config.retry_read = MediaRetryPolicy::with_limit(3);
        put(&mut f, 0, 1).unwrap();
        f.flush(SimTime::ZERO).unwrap();
        f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
            seed: 11,
            transient_read: 1.0,
            ..FaultConfig::default()
        }));
        let err = f.read(Lpn(0), SimTime::ZERO).unwrap_err();
        assert!(!err.is_integrity(), "media failure, not corruption: {err}");
        assert_eq!(f.counters().get("ftl.retry_exhausted_read"), 1);
        assert_eq!(f.counters().get("ftl.media_retries"), 2);
        assert_eq!(f.counters().get("ftl.retry_exhausted_program"), 0);

        let mut f = integrity_ftl();
        f.config.retry_program = MediaRetryPolicy::with_limit(2);
        f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
            seed: 11,
            transient_program: 1.0,
            ..FaultConfig::default()
        }));
        for lpn in 0..4 {
            let _ = put(&mut f, lpn, 1);
        }
        let err = f.flush(SimTime::ZERO).unwrap_err();
        assert!(!err.is_integrity());
        assert!(f.counters().get("ftl.retry_exhausted_program") >= 1);
        assert_eq!(f.counters().get("ftl.retry_exhausted_erase"), 0);
    }

    #[test]
    fn spor_scan_rejects_corrupt_oob_records() {
        let mut f = integrity_ftl();
        f.flash_mut()
            .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1_000_000)));
        for lpn in 0..4 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        let pun = flash_pun(&f, 2);
        assert!(f.flash_mut().sabotage_corrupt_oob(pun.page(1), 0, 1 << 21));

        f.flash_mut().cut_power();
        f.flash_mut().power_on();
        let stats = f.rebuild_after_power_loss().unwrap();
        assert_eq!(stats.oob_records_rejected, 1);

        // The corrupt record neither replays wrong data nor resurrects
        // the mapping: the loss is visible, not silent.
        assert!(f.read(Lpn(2), SimTime::ZERO).is_err());
        for lpn in [0u64, 1, 3] {
            assert_eq!(
                f.read(Lpn(lpn), SimTime::ZERO).unwrap().0.fragments[0].version,
                1,
                "intact records must still recover"
            );
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn rebuild_drops_snapshot_entries_onto_corrupt_data() {
        let mut f = integrity_ftl();
        f.flash_mut()
            .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1_000_000)));
        for lpn in 0..4 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        f.persist_mapping_log();
        let pun = flash_pun(&f, 2);
        // Data rots after the snapshot was persisted; the OOB record is
        // pre-snapshot so replay will not re-add it either.
        assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 13));

        f.flash_mut().cut_power();
        f.flash_mut().power_on();
        let stats = f.rebuild_after_power_loss().unwrap();
        assert!(stats.snapshot_entries_dropped >= 1);
        assert!(f.read(Lpn(2), SimTime::ZERO).is_err());
        assert_eq!(
            f.read(Lpn(1), SimTime::ZERO).unwrap().0.fragments[0].version,
            1
        );
        f.check_invariants().unwrap();
    }
}

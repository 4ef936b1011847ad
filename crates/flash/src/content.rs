//! What a programmed page *contains*.
//!
//! The simulator does not shuffle real byte buffers around; a page stores
//! compact **content tags** that are sufficient to verify correctness: which
//! key, which version, and how many bytes of the record live in each
//! FTL mapping unit. The out-of-band (OOB) area carries the recovery
//! metadata the paper describes in §III-G (target address + version).

/// One record fragment stored inside a mapping unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fragment {
    /// Key-value store key this fragment belongs to.
    pub key: u64,
    /// Monotonic version of the record.
    pub version: u64,
    /// Bytes of the record occupied in this unit (post-alignment).
    pub bytes: u32,
}

/// A fragment list that stores up to two fragments inline.
///
/// Units nearly always carry one fragment (a whole record or its tail),
/// so the common case needs no heap allocation at all — the simulator
/// creates one of these per host write on the hot path. Longer merged
/// lists spill to a `Vec` transparently.
#[derive(Debug, Clone)]
enum FragRepr {
    Inline {
        len: u8,
        frags: [Fragment; FragVec::INLINE],
    },
    Spilled(Vec<Fragment>),
}

/// Small-vector of [`Fragment`]s; derefs to a slice.
#[derive(Debug, Clone)]
pub struct FragVec {
    repr: FragRepr,
}

impl FragVec {
    /// Fragments stored without heap allocation.
    pub const INLINE: usize = 2;

    const FILLER: Fragment = Fragment {
        key: 0,
        version: 0,
        bytes: 0,
    };

    /// An empty fragment list (inline, no allocation).
    pub const fn new() -> Self {
        FragVec {
            repr: FragRepr::Inline {
                len: 0,
                frags: [Self::FILLER; Self::INLINE],
            },
        }
    }

    /// Appends a fragment, spilling to the heap past [`FragVec::INLINE`].
    pub fn push(&mut self, f: Fragment) {
        match &mut self.repr {
            FragRepr::Inline { len, frags } => {
                if let Some(slot) = frags.get_mut(*len as usize) {
                    *slot = f;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(Self::INLINE * 2);
                    v.extend_from_slice(frags);
                    v.push(f);
                    self.repr = FragRepr::Spilled(v);
                }
            }
            FragRepr::Spilled(v) => v.push(f),
        }
    }

    /// The fragments as a slice.
    pub fn as_slice(&self) -> &[Fragment] {
        match &self.repr {
            FragRepr::Inline { len, frags } => &frags[..*len as usize],
            FragRepr::Spilled(v) => v,
        }
    }

    /// The fragments as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [Fragment] {
        match &mut self.repr {
            // `len <= INLINE` is an invariant of `push`; a corrupt length
            // degrades to the empty slice rather than a panic.
            FragRepr::Inline { len, frags } => frags.get_mut(..*len as usize).unwrap_or(&mut []),
            FragRepr::Spilled(v) => v,
        }
    }
}

impl Default for FragVec {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for FragVec {
    type Target = [Fragment];
    fn deref(&self) -> &[Fragment] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for FragVec {
    fn deref_mut(&mut self) -> &mut [Fragment] {
        self.as_mut_slice()
    }
}

impl PartialEq for FragVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FragVec {}

impl FromIterator<Fragment> for FragVec {
    fn from_iter<I: IntoIterator<Item = Fragment>>(iter: I) -> Self {
        let mut fv = FragVec::new();
        for f in iter {
            fv.push(f);
        }
        fv
    }
}

impl Extend<Fragment> for FragVec {
    fn extend<I: IntoIterator<Item = Fragment>>(&mut self, iter: I) {
        for f in iter {
            self.push(f);
        }
    }
}

impl From<Vec<Fragment>> for FragVec {
    fn from(v: Vec<Fragment>) -> Self {
        if v.len() <= Self::INLINE {
            v.into_iter().collect()
        } else {
            FragVec {
                repr: FragRepr::Spilled(v),
            }
        }
    }
}

/// By-value iteration (fragments are `Copy`).
pub struct FragVecIter {
    inner: FragVecIterRepr,
}

enum FragVecIterRepr {
    Inline {
        idx: u8,
        len: u8,
        frags: [Fragment; FragVec::INLINE],
    },
    Spilled(std::vec::IntoIter<Fragment>),
}

impl Iterator for FragVecIter {
    type Item = Fragment;
    fn next(&mut self) -> Option<Fragment> {
        match &mut self.inner {
            FragVecIterRepr::Inline { idx, len, frags } => {
                if idx < len {
                    let f = frags[*idx as usize];
                    *idx += 1;
                    Some(f)
                } else {
                    None
                }
            }
            FragVecIterRepr::Spilled(it) => it.next(),
        }
    }
}

impl IntoIterator for FragVec {
    type Item = Fragment;
    type IntoIter = FragVecIter;
    fn into_iter(self) -> FragVecIter {
        FragVecIter {
            inner: match self.repr {
                FragRepr::Inline { len, frags } => FragVecIterRepr::Inline { idx: 0, len, frags },
                FragRepr::Spilled(v) => FragVecIterRepr::Spilled(v.into_iter()),
            },
        }
    }
}

impl<'a> IntoIterator for &'a FragVec {
    type Item = &'a Fragment;
    type IntoIter = std::slice::Iter<'a, Fragment>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Content of one FTL mapping unit within a page.
///
/// A unit normally holds one fragment; sector-aligned journaling's
/// `MERGED` sectors hold several small records in one unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnitPayload {
    /// Fragments packed into this unit, in placement order.
    pub fragments: FragVec,
}

impl UnitPayload {
    /// A unit holding a single record fragment (no heap allocation).
    pub fn single(key: u64, version: u64, bytes: u32) -> Self {
        let mut fragments = FragVec::new();
        fragments.push(Fragment {
            key,
            version,
            bytes,
        });
        UnitPayload { fragments }
    }

    /// A unit holding several merged small records.
    pub fn merged(fragments: impl Into<FragVec>) -> Self {
        UnitPayload {
            fragments: fragments.into(),
        }
    }

    /// Total payload bytes in this unit.
    pub fn bytes(&self) -> u32 {
        self.fragments.iter().map(|f| f.bytes).sum()
    }

    /// True when the unit carries no fragments (padding).
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// Role of a page recorded in its OOB area, used during sudden-power-off
/// recovery to rebuild mapping state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OobKind {
    /// Page written on the journaling path.
    Journal,
    /// Page written to (or remapped into) the data area.
    Data,
    /// FTL metadata (mapping table snapshots, checkpoint markers).
    Meta,
    /// Page relocated by garbage collection.
    GcCopy,
}

/// One OOB record: the logical owner of one mapping unit of the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OobEntry {
    /// Logical page number (in mapping units) this unit was written for.
    pub lpn: u64,
    /// Write sequence number, used to order versions during recovery.
    pub sequence: u64,
    /// Provenance of the write.
    pub kind: OobKind,
}

/// What the firmware hands to [`FlashArray::program`](crate::FlashArray::program)
/// for one physical page: per-unit payloads and OOB records, unsealed.
///
/// The array seals each unit and record with its checksum as it stores
/// them and *moves* the payloads out, leaving this buffer with the same
/// number of (empty) unit slots and no OOB records — ready to be filled
/// for the next page without allocating.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageContent {
    /// Per-mapping-unit payloads; `None` marks a padded (unused) unit.
    pub units: Vec<Option<UnitPayload>>,
    /// OOB records, parallel to `units` where applicable.
    pub oob: Vec<OobEntry>,
}

impl PageContent {
    /// A page with `units` slots, all empty.
    pub fn empty(units: usize) -> Self {
        PageContent {
            units: vec![None; units],
            oob: Vec::new(),
        }
    }

    /// Number of occupied units.
    pub fn occupied_units(&self) -> usize {
        self.units.iter().filter(|u| u.is_some()).count()
    }

    /// Total payload bytes across units.
    pub fn payload_bytes(&self) -> u64 {
        self.units.iter().flatten().map(|u| u.bytes() as u64).sum()
    }
}

/// A stored unit: its payload and the checksum sealed over it at program
/// time, side by side, so one lookup both verifies and returns the unit.
/// Padded slots hold no payload (and verify trivially). The pair is 64
/// bytes, aligned so that it fills exactly one cache line.
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct SealedUnit {
    payload: Option<UnitPayload>,
    crc: u32,
}

impl SealedUnit {
    fn seal(payload: Option<UnitPayload>) -> Self {
        let crc = payload.as_ref().map_or(0, crate::integrity::unit_checksum);
        SealedUnit { payload, crc }
    }

    fn intact(&self) -> bool {
        self.payload
            .as_ref()
            .is_none_or(|p| crate::integrity::unit_checksum(p) == self.crc)
    }

    /// True when the slot holds a payload (not padding).
    pub(crate) fn is_occupied(&self) -> bool {
        self.payload.is_some()
    }

    /// Flips tag bits *without* resealing — the corruption injectors'
    /// primitive. XORs every fragment's version (and key) with the
    /// nonzero `mask`, so the canonical encoding changes and the stale
    /// checksum no longer matches. Padded slots are left alone.
    pub(crate) fn flip_bits(&mut self, mask: u64) {
        if let Some(unit) = &mut self.payload {
            for f in unit.fragments.as_mut_slice() {
                f.version ^= mask;
                f.key ^= mask;
            }
        }
    }
}

/// A stored OOB record beside its sealed checksum.
#[derive(Debug)]
pub(crate) struct SealedOob {
    entry: OobEntry,
    crc: u32,
}

impl SealedOob {
    fn seal(entry: OobEntry) -> Self {
        SealedOob {
            entry,
            crc: crate::integrity::oob_checksum(&entry),
        }
    }

    fn intact(&self) -> bool {
        crate::integrity::oob_checksum(&self.entry) == self.crc
    }

    /// Flips tag bits without resealing (corrupts the recovery-critical
    /// `lpn`/`sequence` stamps).
    pub(crate) fn flip_bits(&mut self, mask: u64) {
        self.entry.lpn ^= mask;
        self.entry.sequence ^= mask.rotate_left(17);
    }
}

/// The sealed content of one block's programmed pages, page after page.
///
/// Storage is reserved on the block's first program (sized for a full
/// block of pages shaped like that first one) and cleared in place on
/// erase, so later cycles reuse it: programming into a block that has
/// been opened before allocates nothing. The number of stored pages *is*
/// the block's write cursor.
#[derive(Debug, Default)]
pub(crate) struct BlockContent {
    units: Vec<SealedUnit>,
    oob: Vec<SealedOob>,
    /// Cumulative `(units, oob)` end offsets, one per stored page.
    ends: Vec<(u32, u32)>,
}

impl BlockContent {
    /// Number of programmed pages (the write cursor).
    pub(crate) fn pages(&self) -> u32 {
        self.ends.len() as u32
    }

    /// Seals `page` and appends it as the next page, moving its payloads
    /// out (its unit slots are left `None`, its OOB list empty).
    pub(crate) fn push(&mut self, page: &mut PageContent, pages_per_block: u32) {
        if self.ends.capacity() == 0 {
            let ppb = pages_per_block as usize;
            self.ends.reserve_exact(ppb);
            self.units.reserve_exact(ppb * page.units.len());
            self.oob
                .reserve_exact(ppb * page.units.len().max(page.oob.len()));
        }
        self.units
            .extend(page.units.iter_mut().map(|u| SealedUnit::seal(u.take())));
        self.oob.extend(page.oob.drain(..).map(SealedOob::seal));
        self.ends
            .push((self.units.len() as u32, self.oob.len() as u32));
    }

    /// Unit and OOB ranges of stored page `page`.
    fn span(&self, page: u32) -> Option<(std::ops::Range<usize>, std::ops::Range<usize>)> {
        let i = page as usize;
        let &(u_end, o_end) = self.ends.get(i)?;
        let (u_start, o_start) = match i.checked_sub(1) {
            Some(prev) => *self.ends.get(prev)?,
            None => (0, 0),
        };
        Some((
            u_start as usize..u_end as usize,
            o_start as usize..o_end as usize,
        ))
    }

    /// Read view of stored page `page`, or `None` past the cursor.
    pub(crate) fn page(&self, page: u32) -> Option<PageView<'_>> {
        let (u, o) = self.span(page)?;
        Some(PageView {
            units: self.units.get(u)?,
            oob: self.oob.get(o)?,
        })
    }

    /// Mutable units and OOB records of stored page `page` (injectors).
    pub(crate) fn page_mut(&mut self, page: u32) -> Option<(&mut [SealedUnit], &mut [SealedOob])> {
        let (u, o) = self.span(page)?;
        Some((self.units.get_mut(u)?, self.oob.get_mut(o)?))
    }

    /// Flips tag bits of stored page `page` without resealing: every unit
    /// from `first_unit` on, and every OOB record (written last on real
    /// NAND) — what a torn or misdirected program leaves behind.
    pub(crate) fn scramble(&mut self, page: u32, first_unit: usize, mask: u64) {
        if let Some((units, oob)) = self.page_mut(page) {
            let tail = units.iter_mut().skip(first_unit);
            tail.for_each(|u| u.flip_bits(mask));
            oob.iter_mut().for_each(|o| o.flip_bits(mask));
        }
    }

    /// Forgets every page, keeping the storage for the next cycle.
    pub(crate) fn clear(&mut self) {
        self.units.clear();
        self.oob.clear();
        self.ends.clear();
    }
}

/// The checksum sealed over a stored unit no longer matches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChecksumMismatch;

/// A borrowed view of one programmed page, as
/// [`FlashArray::read`](crate::FlashArray::read) returns it. Each unit
/// and OOB record sits beside its sealed checksum, so verifying and
/// fetching a unit is one lookup.
#[derive(Debug, Clone, Copy)]
pub struct PageView<'a> {
    units: &'a [SealedUnit],
    oob: &'a [SealedOob],
}

impl<'a> PageView<'a> {
    /// Number of unit slots (occupied or padded).
    pub fn unit_slots(&self) -> usize {
        self.units.len()
    }

    /// Payload of unit `i` (`None` when padded or out of range), without
    /// verification.
    pub fn unit(&self, i: usize) -> Option<&'a UnitPayload> {
        self.units.get(i).and_then(|s| s.payload.as_ref())
    }

    /// Verifies the sealed checksum of unit `i`. Padded and absent slots
    /// verify trivially (there is nothing to protect).
    pub fn unit_intact(&self, i: usize) -> bool {
        self.units.get(i).is_none_or(SealedUnit::intact)
    }

    /// One verified lookup of unit `i`: its payload (`None` when padded
    /// or absent) when `verify` is off or the checksum matches.
    ///
    /// # Errors
    ///
    /// [`ChecksumMismatch`] when `verify` is on and the stored unit no
    /// longer matches its sealed checksum.
    pub fn checked_unit(
        &self,
        i: usize,
        verify: bool,
    ) -> Result<Option<&'a UnitPayload>, ChecksumMismatch> {
        match self.units.get(i) {
            Some(s) if verify && !s.intact() => Err(ChecksumMismatch),
            Some(s) => Ok(s.payload.as_ref()),
            None => Ok(None),
        }
    }

    /// Number of OOB records.
    pub fn oob_len(&self) -> usize {
        self.oob.len()
    }

    /// OOB record `i`, without verification.
    pub fn oob(&self, i: usize) -> Option<&'a OobEntry> {
        self.oob.get(i).map(|s| &s.entry)
    }

    /// Verifies the sealed checksum of OOB record `i` (trivially true
    /// when absent).
    pub fn oob_intact(&self, i: usize) -> bool {
        self.oob.get(i).is_none_or(SealedOob::intact)
    }

    /// The OOB records in program order, without verification.
    pub fn oob_records(&self) -> impl Iterator<Item = &'a OobEntry> + 'a {
        self.oob.iter().map(|s| &s.entry)
    }

    /// Number of occupied units.
    pub fn occupied_units(&self) -> usize {
        self.units.iter().filter(|s| s.is_occupied()).count()
    }

    /// True when every occupied unit and OOB record verifies.
    pub fn intact(&self) -> bool {
        self.units.iter().all(SealedUnit::intact) && self.oob.iter().all(SealedOob::intact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_unit_payload() {
        let u = UnitPayload::single(42, 3, 512);
        assert_eq!(u.bytes(), 512);
        assert_eq!(u.fragments.len(), 1);
        assert!(!u.is_empty());
    }

    #[test]
    fn merged_unit_sums_bytes() {
        let u = UnitPayload::merged(vec![
            Fragment {
                key: 1,
                version: 1,
                bytes: 128,
            },
            Fragment {
                key: 2,
                version: 5,
                bytes: 256,
            },
        ]);
        assert_eq!(u.bytes(), 384);
    }

    #[test]
    fn page_content_accounting() {
        let mut p = PageContent::empty(8);
        assert_eq!(p.occupied_units(), 0);
        p.units[0] = Some(UnitPayload::single(1, 1, 512));
        p.units[3] = Some(UnitPayload::single(2, 1, 128));
        assert_eq!(p.occupied_units(), 2);
        assert_eq!(p.payload_bytes(), 640);
    }

    #[test]
    fn empty_unit_is_padding() {
        assert!(UnitPayload::default().is_empty());
        assert_eq!(UnitPayload::default().bytes(), 0);
    }

    fn sample_page() -> PageContent {
        let mut p = PageContent::empty(4);
        p.units[0] = Some(UnitPayload::single(1, 7, 512));
        p.units[2] = Some(UnitPayload::single(2, 3, 128));
        p.oob.push(OobEntry {
            lpn: 10,
            sequence: 5,
            kind: OobKind::Data,
        });
        p.oob.push(OobEntry {
            lpn: 11,
            sequence: 6,
            kind: OobKind::Journal,
        });
        p
    }

    /// A block holding `sample_page` as page 0 and a one-unit page 1.
    fn sealed_block() -> BlockContent {
        let mut b = BlockContent::default();
        let mut p = sample_page();
        b.push(&mut p, 4);
        assert!(p.units.iter().all(Option::is_none), "payloads moved out");
        assert!(p.oob.is_empty());
        assert_eq!(p.units.len(), 4, "slots kept for reuse");
        p.units[1] = Some(UnitPayload::single(3, 1, 512));
        b.push(&mut p, 4);
        b
    }

    #[test]
    fn sealed_page_verifies() {
        let b = sealed_block();
        assert_eq!(b.pages(), 2);
        let v = b.page(0).unwrap();
        assert!(v.intact());
        assert_eq!(v.unit_slots(), 4);
        assert_eq!(v.occupied_units(), 2);
        for i in 0..4 {
            assert!(v.unit_intact(i), "unit {i}");
        }
        assert!(v.oob_intact(0) && v.oob_intact(1));
        assert_eq!(v.oob(1).unwrap().lpn, 11);
        assert_eq!(v.unit(2).unwrap().fragments[0].key, 2);
        assert_eq!(v.checked_unit(1, true), Ok(None), "padding");
        let p1 = b.page(1).unwrap();
        assert_eq!(p1.occupied_units(), 1);
        assert_eq!(p1.oob_len(), 0);
        assert!(b.page(2).is_none(), "past the cursor");
    }

    #[test]
    fn flipped_unit_bits_break_verification() {
        let mut b = sealed_block();
        let (units, _) = b.page_mut(0).unwrap();
        units[0].flip_bits(1 << 13);
        let v = b.page(0).unwrap();
        assert!(!v.unit_intact(0));
        assert_eq!(v.checked_unit(0, true), Err(ChecksumMismatch));
        assert!(
            v.checked_unit(0, false).unwrap().is_some(),
            "unverified read"
        );
        assert!(v.unit_intact(2), "other unit untouched");
        assert!(v.oob_intact(0), "oob untouched");
        assert!(!v.intact());
        assert!(b.page(1).unwrap().intact(), "other page untouched");
    }

    #[test]
    fn flipped_oob_bits_break_verification() {
        let mut b = sealed_block();
        let (_, oob) = b.page_mut(0).unwrap();
        oob[1].flip_bits(1);
        let v = b.page(0).unwrap();
        assert!(v.unit_intact(0));
        assert!(v.oob_intact(0));
        assert!(!v.oob_intact(1));
    }

    #[test]
    fn sealed_unit_fills_one_cache_line() {
        assert_eq!(std::mem::size_of::<SealedUnit>(), 64);
        assert_eq!(std::mem::align_of::<SealedUnit>(), 64);
    }

    #[test]
    fn padded_slots_verify_trivially() {
        let mut b = BlockContent::default();
        b.push(&mut PageContent::empty(4), 4);
        let v = b.page(0).unwrap();
        assert!(v.intact());
        assert_eq!(v.occupied_units(), 0);
        assert!(
            (0..6).all(|i| v.unit_intact(i) && v.oob_intact(i)),
            "absent too"
        );
        assert_eq!(v.checked_unit(9, true), Ok(None));
    }

    #[test]
    fn resealing_after_mutation_restores_integrity() {
        let mut b = sealed_block();
        let cap = b.units.capacity();
        b.page_mut(0).unwrap().0[0].flip_bits(0xFF00);
        assert!(!b.page(0).unwrap().intact());
        // Erase clears in place; the reused storage seals afresh.
        b.clear();
        assert_eq!(b.pages(), 0);
        assert!(b.page(0).is_none());
        b.push(&mut sample_page(), 4);
        assert!(b.page(0).unwrap().intact());
        assert_eq!(b.units.capacity(), cap, "storage reused, not reallocated");
    }
}

//! Table catalog and database space layout.
//!
//! Each table is a heap of fixed-size slots. Following Dali (paper §2),
//! *allocation information is not stored on the same page as tuple data*:
//! a table gets two page-aligned extents in the image — an allocation
//! bitmap extent and a data extent. (This is why the hardware-protection
//! scheme touches ~11 pages per TPC-B operation, §5.3: the bitmap pages
//! are distinct from the tuple pages.)
//!
//! The catalog itself lives outside the image: it is persisted in
//! checkpoint metadata and re-created from `CreateTable` log records during
//! recovery.

use dali_common::align::WORD;
use dali_common::codec::{Reader, Wire};
use dali_common::{DaliError, DbAddr, Result, SlotId, TableId};
use std::collections::HashMap;

/// Physical layout of a heap's allocation information.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum HeapLayout {
    /// Dali layout (the default): the allocation bitmap lives in its own
    /// page-aligned extent, never sharing a page with record data.
    Separate,
    /// Page-based layout (the §5.3 ablation): every data page begins with
    /// a slot-allocation header for the records *on that page*, so an
    /// insert touches a single page.
    PageLocal {
        /// Records stored per page.
        records_per_page: u32,
        /// Bytes reserved at the start of each page for the allocation
        /// header (whole words, 8-byte aligned).
        header_bytes: u32,
        /// Page size the layout was computed for.
        page_size: u32,
    },
}

impl HeapLayout {
    /// Compute the page-local layout for a record size: the largest
    /// per-page record count whose allocation header still fits.
    pub fn page_local(rec_size: usize, page_size: usize) -> Result<HeapLayout> {
        let mut rpp = (page_size / rec_size).max(1);
        loop {
            if rpp == 0 {
                return Err(DaliError::InvalidArg(format!(
                    "record size {rec_size} too large for page-local layout on {page_size}-byte pages"
                )));
            }
            let header = dali_common::align::round_up(rpp.div_ceil(32) * 4, 8);
            if header + rpp * rec_size <= page_size {
                return Ok(HeapLayout::PageLocal {
                    records_per_page: rpp as u32,
                    header_bytes: header as u32,
                    page_size: page_size as u32,
                });
            }
            rpp -= 1;
        }
    }
}

/// Metadata of one table (heap file).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapMeta {
    pub table: TableId,
    pub name: String,
    /// Fixed record size in bytes (multiple of 4 so records are
    /// word-aligned for codeword maintenance).
    pub rec_size: usize,
    /// Maximum number of slots.
    pub capacity: usize,
    /// Base of the allocation bitmap extent (one bit per slot). For
    /// [`HeapLayout::PageLocal`] this equals `data_base` (the headers are
    /// embedded in the data pages).
    pub bitmap_base: DbAddr,
    /// Base of the record data extent.
    pub data_base: DbAddr,
    /// Allocation-information layout.
    pub layout: HeapLayout,
}

impl HeapMeta {
    /// Address of a slot's record data.
    #[inline]
    pub fn slot_addr(&self, slot: SlotId) -> DbAddr {
        debug_assert!((slot.0 as usize) < self.capacity);
        match self.layout {
            HeapLayout::Separate => self.data_base.add(slot.0 as usize * self.rec_size),
            HeapLayout::PageLocal {
                records_per_page,
                header_bytes,
                page_size,
            } => {
                let page = slot.0 / records_per_page;
                let within = slot.0 % records_per_page;
                self.data_base.add(
                    page as usize * page_size as usize
                        + header_bytes as usize
                        + within as usize * self.rec_size,
                )
            }
        }
    }

    /// Address of the bitmap *word* holding a slot's allocation bit, and
    /// the bit index within it. Bitmap words are `u32` so bitmap updates
    /// are word-aligned physical updates.
    #[inline]
    pub fn bit_word_addr(&self, slot: SlotId) -> (DbAddr, u32) {
        match self.layout {
            HeapLayout::Separate => {
                let word = slot.0 as usize / 32;
                let bit = slot.0 % 32;
                (self.bitmap_base.add(word * 4), bit)
            }
            HeapLayout::PageLocal {
                records_per_page,
                page_size,
                ..
            } => {
                let page = slot.0 / records_per_page;
                let within = slot.0 % records_per_page;
                let word = within as usize / 32;
                let bit = within % 32;
                (
                    self.data_base
                        .add(page as usize * page_size as usize + word * 4),
                    bit,
                )
            }
        }
    }

    /// Bytes of bitmap storage (rounded up to whole words; zero for the
    /// page-local layout, whose headers live inside the data extent).
    pub fn bitmap_bytes(&self) -> usize {
        match self.layout {
            HeapLayout::Separate => self.capacity.div_ceil(32) * 4,
            HeapLayout::PageLocal { .. } => 0,
        }
    }

    /// End of the data extent (including embedded page headers for the
    /// page-local layout), or `None` when the extents cannot exist: a base
    /// that is not word aligned (`plan_table` only makes page-aligned
    /// ones; bitmap words are `u32`s), a page-local layout with no records
    /// per page, or sizes that overflow the address space. Decoded
    /// metadata (a checkpoint catalog, a replayed `CreateTable`) is only
    /// checksum-valid, not sane.
    fn data_end(&self) -> Option<usize> {
        if !(self.bitmap_base.0 | self.data_base.0).is_multiple_of(WORD) {
            return None;
        }
        let bytes = match self.layout {
            HeapLayout::Separate => self.capacity.checked_mul(self.rec_size)?,
            HeapLayout::PageLocal {
                records_per_page,
                page_size,
                ..
            } => (records_per_page > 0)
                .then(|| self.capacity.div_ceil(records_per_page as usize))?
                .checked_mul(page_size as usize)?,
        };
        self.data_base.0.checked_add(bytes)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        self.table.put(buf);
        self.name.put(buf);
        (self.rec_size as u32).put(buf);
        (self.capacity as u64).put(buf);
        self.bitmap_base.put(buf);
        self.data_base.put(buf);
        match self.layout {
            HeapLayout::Separate => 0u8.put(buf),
            HeapLayout::PageLocal {
                records_per_page,
                header_bytes,
                page_size,
            } => {
                1u8.put(buf);
                records_per_page.put(buf);
                header_bytes.put(buf);
                page_size.put(buf);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<HeapMeta> {
        Ok(HeapMeta {
            table: Wire::get(r)?,
            name: Wire::get(r)?,
            rec_size: r.u32()? as usize,
            capacity: r.u64()? as usize,
            bitmap_base: Wire::get(r)?,
            data_base: Wire::get(r)?,
            layout: match r.u8()? {
                0 => HeapLayout::Separate,
                1 => HeapLayout::PageLocal {
                    records_per_page: r.u32()?,
                    header_bytes: r.u32()?,
                    page_size: r.u32()?,
                },
                t => return Err(r.fail(format_args!("unknown heap layout tag {t}"))),
            },
        })
    }
}

/// The table catalog plus the extent-allocation watermark.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: Vec<HeapMeta>,
    by_name: HashMap<String, TableId>,
    /// First unallocated byte of the image.
    watermark: usize,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables exist.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Current space watermark.
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Plan extents for a new table without registering it: returns the
    /// `HeapMeta` the table would get. `page_size` aligns extents so
    /// bitmap and data never share a page; `image_bytes` bounds the space.
    pub fn plan_table(
        &self,
        name: &str,
        rec_size: usize,
        capacity: usize,
        page_size: usize,
        image_bytes: usize,
    ) -> Result<HeapMeta> {
        self.plan_table_with_layout(name, rec_size, capacity, page_size, image_bytes, false)
    }

    /// Like [`plan_table`](Self::plan_table), but with a layout choice:
    /// `colocate` selects [`HeapLayout::PageLocal`] (per-page allocation
    /// headers embedded in the data pages, so operations touch fewer
    /// pages) — the page-based layout of the §5.3 ablation.
    pub fn plan_table_with_layout(
        &self,
        name: &str,
        rec_size: usize,
        capacity: usize,
        page_size: usize,
        image_bytes: usize,
        colocate: bool,
    ) -> Result<HeapMeta> {
        if self.by_name.contains_key(name) {
            return Err(DaliError::InvalidArg(format!(
                "table '{name}' already exists"
            )));
        }
        if rec_size == 0 || !rec_size.is_multiple_of(4) {
            return Err(DaliError::InvalidArg(format!(
                "record size {rec_size} must be a positive multiple of 4"
            )));
        }
        if capacity == 0 || capacity > u32::MAX as usize {
            return Err(DaliError::InvalidArg(format!("bad capacity {capacity}")));
        }
        let table = TableId(self.tables.len() as u32);
        let (layout, bitmap_base, data_base) = if colocate {
            // Page-based layout: per-page allocation headers embedded in
            // the data pages themselves.
            let layout = HeapLayout::page_local(rec_size, page_size)?;
            let d = DbAddr(dali_common::align::round_up(self.watermark, page_size));
            (layout, d, d)
        } else {
            // Dali layout: control information on its own pages.
            let bitmap_bytes = capacity.div_ceil(32) * 4;
            let b = DbAddr(dali_common::align::round_up(self.watermark, page_size));
            let d = DbAddr(dali_common::align::round_up(b.0 + bitmap_bytes, page_size));
            (HeapLayout::Separate, b, d)
        };
        let meta = HeapMeta {
            table,
            name: name.to_string(),
            rec_size,
            capacity,
            bitmap_base,
            data_base,
            layout,
        };
        let end = meta.data_end().unwrap_or(usize::MAX);
        if end > image_bytes {
            return Err(DaliError::OutOfSpace(format!(
                "table '{name}' needs {end} bytes, image has {image_bytes}"
            )));
        }
        Ok(meta)
    }

    /// Register a planned table (or one replayed from the log). The meta's
    /// id must be the next free id; recovery may pass an id that already
    /// exists, in which case the call is an idempotent no-op when the
    /// metadata matches.
    pub fn register(&mut self, meta: HeapMeta) -> Result<()> {
        if let Some(existing) = self.tables.get(meta.table.0 as usize) {
            if *existing == meta {
                return Ok(()); // replayed CreateTable
            }
            return Err(DaliError::InvalidArg(format!(
                "table id {} already registered with different metadata",
                meta.table
            )));
        }
        if meta.table.0 as usize != self.tables.len() {
            return Err(DaliError::InvalidArg(format!(
                "non-contiguous table id {}",
                meta.table
            )));
        }
        let end = meta.data_end().ok_or_else(|| {
            DaliError::InvalidArg(format!("table {} has impossible extents", meta.table))
        })?;
        self.watermark = self.watermark.max(end);
        self.by_name.insert(meta.name.clone(), meta.table);
        self.tables.push(meta);
        Ok(())
    }

    /// Look up a table by id.
    pub fn get(&self, table: TableId) -> Result<&HeapMeta> {
        self.tables
            .get(table.0 as usize)
            .ok_or_else(|| DaliError::NotFound(format!("table {table}")))
    }

    /// Look up a table by name.
    pub fn by_name(&self, name: &str) -> Result<&HeapMeta> {
        let id = self
            .by_name
            .get(name)
            .ok_or_else(|| DaliError::NotFound(format!("table '{name}'")))?;
        self.get(*id)
    }

    /// Iterate all tables.
    pub fn iter(&self) -> impl Iterator<Item = &HeapMeta> {
        self.tables.iter()
    }

    /// Serialize for checkpoint metadata.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        (self.tables.len() as u32).put(buf);
        for t in &self.tables {
            t.encode(buf);
        }
        (self.watermark as u64).put(buf);
    }

    /// Deserialize from checkpoint metadata.
    pub fn decode(r: &mut Reader<'_>) -> Result<Catalog> {
        // The smallest table is its fixed fields with an empty name.
        let n = r.count(4 + 4 + 4 + 3 * 8 + 1)?;
        let mut cat = Catalog::new();
        for _ in 0..n {
            let meta = HeapMeta::decode(r)?;
            cat.register(meta).map_err(|e| r.fail(e))?;
        }
        cat.watermark = r.u64()? as usize;
        Ok(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 4096;
    const IMAGE: usize = 4096 * 256;

    fn plan_and_register(cat: &mut Catalog, name: &str, rec: usize, cap: usize) -> HeapMeta {
        let m = cat.plan_table(name, rec, cap, PAGE, IMAGE).unwrap();
        cat.register(m.clone()).unwrap();
        m
    }

    #[test]
    fn extents_are_page_aligned_and_disjoint() {
        let mut cat = Catalog::new();
        let a = plan_and_register(&mut cat, "a", 100, 1000);
        let b = plan_and_register(&mut cat, "b", 8, 64);
        assert_eq!(a.bitmap_base.0 % PAGE, 0);
        assert_eq!(a.data_base.0 % PAGE, 0);
        // Bitmap and data never share a page.
        assert!(a.data_base.0 >= a.bitmap_base.0 + PAGE);
        // Table b starts after table a.
        assert!(b.bitmap_base.0 >= a.data_end().unwrap());
    }

    #[test]
    fn slot_and_bitword_addresses() {
        let mut cat = Catalog::new();
        let m = plan_and_register(&mut cat, "t", 100, 1000);
        assert_eq!(m.slot_addr(SlotId(0)), m.data_base);
        assert_eq!(m.slot_addr(SlotId(3)).0, m.data_base.0 + 300);
        let (w0, b0) = m.bit_word_addr(SlotId(0));
        assert_eq!((w0, b0), (m.bitmap_base, 0));
        let (w, b) = m.bit_word_addr(SlotId(37));
        assert_eq!(w.0, m.bitmap_base.0 + 4);
        assert_eq!(b, 5);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut cat = Catalog::new();
        plan_and_register(&mut cat, "t", 8, 10);
        assert!(cat.plan_table("t", 8, 10, PAGE, IMAGE).is_err());
    }

    #[test]
    fn bad_record_size_rejected() {
        let cat = Catalog::new();
        assert!(cat.plan_table("t", 0, 10, PAGE, IMAGE).is_err());
        assert!(cat.plan_table("t", 10, 10, PAGE, IMAGE).is_err());
    }

    #[test]
    fn out_of_space_rejected() {
        let cat = Catalog::new();
        assert!(cat.plan_table("t", 4096, 10_000, PAGE, IMAGE).is_err());
    }

    #[test]
    fn lookups() {
        let mut cat = Catalog::new();
        let m = plan_and_register(&mut cat, "accounts", 100, 10);
        assert_eq!(cat.by_name("accounts").unwrap().table, m.table);
        assert_eq!(cat.get(m.table).unwrap().name, "accounts");
        assert!(cat.by_name("nope").is_err());
        assert!(cat.get(TableId(99)).is_err());
    }

    #[test]
    fn register_is_idempotent_for_replay() {
        let mut cat = Catalog::new();
        let m = plan_and_register(&mut cat, "t", 8, 10);
        cat.register(m.clone()).unwrap(); // replay
        assert_eq!(cat.len(), 1);
        // Conflicting metadata is rejected.
        let mut m2 = m;
        m2.rec_size = 12;
        assert!(cat.register(m2).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut cat = Catalog::new();
        plan_and_register(&mut cat, "x", 100, 1000);
        plan_and_register(&mut cat, "y", 16, 32);
        let mut buf = Vec::new();
        cat.encode(&mut buf);
        let mut r = Reader::new(&buf, DaliError::RecoveryFailed);
        let back = Catalog::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.watermark(), cat.watermark());
        assert_eq!(back.by_name("y").unwrap(), cat.by_name("y").unwrap());
    }

    #[test]
    fn page_local_layout_parameters() {
        // 100-byte records on 4096-byte pages: header for 40 records is
        // ceil(40/32)*4 = 8 bytes; 8 + 40*100 = 4008 <= 4096.
        match HeapLayout::page_local(100, 4096).unwrap() {
            HeapLayout::PageLocal {
                records_per_page,
                header_bytes,
                page_size,
            } => {
                assert_eq!(records_per_page, 40);
                assert_eq!(header_bytes, 8);
                assert_eq!(page_size, 4096);
            }
            other => panic!("{other:?}"),
        }
        // A record as big as the page cannot fit next to a header.
        assert!(HeapLayout::page_local(4096, 4096).is_err());
    }

    #[test]
    fn page_local_records_never_cross_pages() {
        let mut cat = Catalog::new();
        let m = cat
            .plan_table_with_layout("t", 100, 1000, PAGE, IMAGE, true)
            .unwrap();
        cat.register(m.clone()).unwrap();
        assert_eq!(m.bitmap_base, m.data_base);
        for slot in 0..1000u32 {
            let a = m.slot_addr(SlotId(slot));
            let start_page = a.0 / PAGE;
            let end_page = (a.0 + m.rec_size - 1) / PAGE;
            assert_eq!(start_page, end_page, "slot {slot} crosses a page");
            // The record never overlaps its page's header.
            let (baddr, _) = m.bit_word_addr(SlotId(slot));
            assert_eq!(baddr.0 / PAGE, start_page, "header on same page");
            assert!(a.0 % PAGE >= 8, "record begins after the header");
        }
    }

    #[test]
    fn page_local_bit_word_is_on_the_record_page() {
        let cat = Catalog::new();
        let m = cat
            .plan_table_with_layout("t", 100, 200, PAGE, IMAGE, true)
            .unwrap();
        // Slots on the same page share header words; different pages don't.
        let (w0, b0) = m.bit_word_addr(SlotId(0));
        let (w1, b1) = m.bit_word_addr(SlotId(1));
        assert_eq!(w0, w1);
        assert_ne!(b0, b1);
        let (w40, _) = m.bit_word_addr(SlotId(40)); // next page (40 rpp)
        assert_eq!(w40.0, w0.0 + PAGE);
    }

    #[test]
    fn page_local_round_trips_through_catalog_encoding() {
        let mut cat = Catalog::new();
        let m = cat
            .plan_table_with_layout("t", 100, 500, PAGE, IMAGE, true)
            .unwrap();
        cat.register(m.clone()).unwrap();
        let mut buf = Vec::new();
        cat.encode(&mut buf);
        let back = Catalog::decode(&mut Reader::new(&buf, DaliError::RecoveryFailed)).unwrap();
        assert_eq!(back.get(m.table).unwrap(), &m);
    }
}

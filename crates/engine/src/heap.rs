//! Heap runtime state: slot allocation over the image bitmap.
//!
//! The *authoritative* allocation state is the bitmap in the database
//! image (updated through the prescribed physical-update interface so it
//! is logged, checkpointed, and codeword-protected like any other data).
//! `HeapRuntime` keeps an in-memory mirror used to *reserve* slots:
//!
//! * an insert reserves a mirror bit before setting the image bit, so two
//!   concurrent inserts never pick the same slot;
//! * a delete clears the mirror bit only when the deleting transaction
//!   finishes (deferred free), so a slot freed by an uncommitted delete
//!   cannot be re-allocated out from under a potential rollback.
//!
//! The mirror is rebuilt from the image after recovery.

use crate::catalog::HeapMeta;
use dali_common::{DaliError, Result, SlotId};
use dali_mem::DbImage;
use parking_lot::Mutex;

struct AllocState {
    /// One bit per slot; set = allocated or reserved.
    mirror: Vec<u32>,
    /// Rotating scan cursor (word index).
    cursor: usize,
    /// Number of set bits.
    in_use: usize,
}

/// Runtime allocation state for one heap.
pub struct HeapRuntime {
    meta: HeapMeta,
    alloc: Mutex<AllocState>,
}

impl HeapRuntime {
    /// Fresh runtime with an empty mirror (matches a zeroed image).
    pub fn new(meta: HeapMeta) -> HeapRuntime {
        let words = meta.capacity.div_ceil(32);
        HeapRuntime {
            meta,
            alloc: Mutex::new(AllocState {
                mirror: vec![0; words],
                cursor: 0,
                in_use: 0,
            }),
        }
    }

    /// Table metadata.
    pub fn meta(&self) -> &HeapMeta {
        &self.meta
    }

    /// Number of allocated (or reserved) slots.
    pub fn in_use(&self) -> usize {
        self.alloc.lock().in_use
    }

    /// Rebuild the mirror from the image bitmap (after recovery). Walks
    /// slot by slot through [`HeapMeta::bit_word_addr`] so it works for
    /// both allocation layouts.
    pub fn rebuild_from_image(&self, image: &DbImage) -> Result<()> {
        let mut st = self.alloc.lock();
        for w in st.mirror.iter_mut() {
            *w = 0;
        }
        let mut in_use = 0;
        for slot in 0..self.meta.capacity {
            let (addr, bit) = self.meta.bit_word_addr(SlotId(slot as u32));
            let word = image.arena().read_u32(addr.0)?;
            if word & (1 << bit) != 0 {
                st.mirror[slot / 32] |= 1 << (slot % 32);
                in_use += 1;
            }
        }
        st.cursor = 0;
        st.in_use = in_use;
        Ok(())
    }

    /// Reserve a free slot (sets its mirror bit). The caller must then set
    /// the image bit through the update interface, or call
    /// [`release`](Self::release) if the insert is abandoned.
    pub fn reserve(&self) -> Result<SlotId> {
        let mut st = self.alloc.lock();
        if st.in_use >= self.meta.capacity {
            return Err(DaliError::OutOfSpace(format!(
                "heap '{}' is full ({} slots)",
                self.meta.name, self.meta.capacity
            )));
        }
        let words = st.mirror.len();
        for i in 0..words {
            let w = (st.cursor + i) % words;
            if st.mirror[w] != u32::MAX {
                let bit = (!st.mirror[w]).trailing_zeros();
                let slot = (w * 32) as u32 + bit;
                if (slot as usize) < self.meta.capacity {
                    st.mirror[w] |= 1 << bit;
                    st.in_use += 1;
                    st.cursor = w;
                    return Ok(SlotId(slot));
                }
                // Tail word with only out-of-capacity bits free; skip it.
            }
        }
        Err(DaliError::OutOfSpace(format!(
            "heap '{}' is full ({} slots)",
            self.meta.name, self.meta.capacity
        )))
    }

    /// Release a slot's mirror bit (deferred free at transaction end, or
    /// abandoning a reservation).
    pub fn release(&self, slot: SlotId) {
        let mut st = self.alloc.lock();
        let (w, b) = (slot.0 as usize / 32, slot.0 % 32);
        if st.mirror[w] & (1 << b) != 0 {
            st.mirror[w] &= !(1 << b);
            st.in_use -= 1;
        }
    }

    /// Run `f` while holding the heap's allocation mutex. Used to
    /// serialize read-modify-write cycles on shared bitmap words (two
    /// inserts allocating different slots of the same word must not race
    /// on the word itself).
    pub fn with_alloc_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.alloc.lock();
        f()
    }

    /// Is the slot allocated *in the image* (authoritative, what readers
    /// see)?
    pub fn is_allocated_in_image(&self, image: &DbImage, slot: SlotId) -> Result<bool> {
        if slot.0 as usize >= self.meta.capacity {
            return Err(DaliError::NotFound(format!(
                "slot {} out of range for '{}'",
                slot.0, self.meta.name
            )));
        }
        let (addr, bit) = self.meta.bit_word_addr(slot);
        let word = image.arena().read_u32(addr.0)?;
        Ok(word & (1 << bit) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn setup(cap: usize) -> (DbImage, HeapRuntime) {
        let image = DbImage::new(64, 4096).unwrap();
        let mut cat = Catalog::new();
        let meta = cat.plan_table("t", 8, cap, 4096, image.len()).unwrap();
        cat.register(meta.clone()).unwrap();
        (image, HeapRuntime::new(meta))
    }

    #[test]
    fn reserve_returns_distinct_slots() {
        let (_img, h) = setup(100);
        let a = h.reserve().unwrap();
        let b = h.reserve().unwrap();
        let c = h.reserve().unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(h.in_use(), 3);
    }

    #[test]
    fn full_heap_rejects() {
        let (_img, h) = setup(3);
        for _ in 0..3 {
            h.reserve().unwrap();
        }
        assert!(matches!(h.reserve(), Err(DaliError::OutOfSpace(_))));
    }

    #[test]
    fn capacity_not_word_multiple() {
        let (_img, h) = setup(35);
        let mut slots = vec![];
        for _ in 0..35 {
            slots.push(h.reserve().unwrap().0);
        }
        slots.sort_unstable();
        assert_eq!(slots, (0..35).collect::<Vec<_>>());
        assert!(h.reserve().is_err());
    }

    #[test]
    fn release_allows_reuse() {
        let (_img, h) = setup(2);
        let a = h.reserve().unwrap();
        let _b = h.reserve().unwrap();
        assert!(h.reserve().is_err());
        h.release(a);
        assert_eq!(h.reserve().unwrap(), a);
    }

    #[test]
    fn image_bit_is_authoritative_for_readers() {
        let (img, h) = setup(64);
        let slot = SlotId(5);
        assert!(!h.is_allocated_in_image(&img, slot).unwrap());
        // Simulate the physical update setting the image bit.
        let (addr, bit) = h.meta().bit_word_addr(slot);
        img.write(addr, &(1u32 << bit).to_le_bytes()).unwrap();
        assert!(h.is_allocated_in_image(&img, slot).unwrap());
        assert!(!h.is_allocated_in_image(&img, SlotId(6)).unwrap());
    }

    #[test]
    fn rebuild_from_image_counts_bits() {
        let (img, h) = setup(64);
        // Set bits for slots 0 and 33 directly in the image.
        let (a0, b0) = h.meta().bit_word_addr(SlotId(0));
        img.write(a0, &(1u32 << b0).to_le_bytes()).unwrap();
        let (a1, b1) = h.meta().bit_word_addr(SlotId(33));
        img.write(a1, &(1u32 << b1).to_le_bytes()).unwrap();
        h.rebuild_from_image(&img).unwrap();
        assert_eq!(h.in_use(), 2);
        // Reservation avoids the occupied slots.
        let s = h.reserve().unwrap();
        assert_ne!(s, SlotId(0));
        assert_ne!(s, SlotId(33));
    }

    #[test]
    fn out_of_range_slot_errors() {
        let (img, h) = setup(10);
        assert!(h.is_allocated_in_image(&img, SlotId(10)).is_err());
    }

    #[test]
    fn concurrent_reservations_are_unique() {
        let (_img, h) = setup(1024);
        let h = std::sync::Arc::new(h);
        let mut handles = vec![];
        for _ in 0..8 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| h.reserve().unwrap().0).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "duplicate slot handed out");
    }
}

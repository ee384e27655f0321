//! Concurrent eager parity: the repair bracket's invariant with no
//! drain step.
//!
//! Four updater threads own disjoint regions (region `r` belongs to
//! thread `r % 4`), so every parity group of eight is shared by all four.
//! Each runs seeded prescribed updates — before-image, write, then
//! `apply_update` — inside `lock_span(.., Shared)`, exactly as the
//! engine's update bracket does. Meanwhile a checker repeatedly takes one
//! group's latches exclusively, as `repair_region` does, and requires the
//! parity buffer to equal the XOR of the members read from the image and
//! the group's codeword to verify. After the threads join, every group
//! must be exact. Runs under both algebras.

use dali::codeword::{CodewordAlgebraKind, CodewordProtection, DeferredConfig, LatchMode};
use dali::mem::DbImage;
use dali::{DbAddr, ProtectionScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "support/parity.rs"]
mod parity;

const PAGES: usize = 4;
const PAGE: usize = 4096;
const REGION: usize = 64;
const NREGIONS: usize = PAGES * PAGE / REGION;
const GROUP: usize = 8;
const UPDATERS: usize = 4;
const UPDATES: usize = 4_000;
/// The checker keeps going until the updaters finish *and* it has made
/// at least this many checks, so it always observes some interleaving.
const MIN_CHECKS: usize = 64;

/// One prescribed update of `len` bytes at `addr` (within one region),
/// filled with `fill`, inside the shared latch bracket.
fn update(image: &DbImage, prot: &CodewordProtection, addr: usize, len: usize, fill: u8) {
    let (ws, wl) = dali::common::align::widen_to_words(addr, len);
    let (first, last) = prot.geometry().region_span(DbAddr(ws), wl);
    prot.latches().lock_span(first, last, LatchMode::Shared);
    let mut old = vec![0u8; wl];
    image.read(DbAddr(ws), &mut old).unwrap();
    image.write(DbAddr(addr), &vec![fill; len]).unwrap();
    prot.apply_update(image, DbAddr(ws), &old).unwrap();
    prot.latches().unlock_span(first, last, LatchMode::Shared);
}

fn run(kind: CodewordAlgebraKind, seed: u64) {
    let image = DbImage::new(PAGES, PAGE).unwrap();
    let mut prot = CodewordProtection::with_config(
        &image,
        ProtectionScheme::DataCodeword,
        REGION,
        1,
        DeferredConfig::default(),
        1,
        kind,
    )
    .unwrap();
    prot.enable_parity(&image, GROUP, 0, 0).unwrap();
    let (image, prot) = (&image, &prot);
    let groups = prot.parity().unwrap().num_groups();
    let done = AtomicUsize::new(0);
    let ctx = format!("{kind:?} seed {seed}");

    std::thread::scope(|s| {
        for t in 0..UPDATERS {
            let done = &done;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64) << 32));
                for _ in 0..UPDATES {
                    let region = rng.gen_range(0..NREGIONS / UPDATERS) * UPDATERS + t;
                    let off = rng.gen_range(0..REGION);
                    let len = rng.gen_range(1..=REGION - off);
                    update(
                        image,
                        prot,
                        region * REGION + off,
                        len,
                        rng.gen_range(0..=u8::MAX),
                    );
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        let checks = s.spawn(|| {
            let mut checks = 0usize;
            while done.load(Ordering::Acquire) < UPDATERS || checks < MIN_CHECKS {
                let g = checks % groups;
                let (first, last) = prot.parity().unwrap().members(g);
                let verdict = prot
                    .latches()
                    .with_span(first, last, LatchMode::Exclusive, || {
                        parity::group_exact(image, prot, g)
                    });
                if let Err(e) = verdict {
                    panic!("{ctx}: check {checks}: {e}");
                }
                checks += 1;
            }
            checks
        });
        assert!(checks.join().unwrap() >= MIN_CHECKS);
    });

    parity::stripe_exact(image, prot).unwrap_or_else(|e| panic!("{ctx}: after join: {e}"));
    assert!(
        prot.audit(image).unwrap().clean(),
        "{ctx}: audit after join"
    );
}

#[test]
fn eager_parity_holds_under_concurrent_updaters_both_algebras() {
    for kind in CodewordAlgebraKind::ALL {
        run(kind, 0x5EED_0000);
    }
}

//! Model-based test of the sharded deferred codeword set and of the
//! eagerly maintained parity stripe.
//!
//! Generates arbitrary scripts of prescribed updates, partial shard
//! drains, full drains and audits, and applies each script to one shared
//! database image through three protection instances at once, each with
//! a parity stripe (groups of 8 regions):
//!
//! * an **eager** `DataCodeword` protection — the trivially-correct
//!   reference: every delta hits the codeword table at `endUpdate`;
//! * a **1-shard** deferred protection (the old global-queue geometry);
//! * an **8-shard** deferred protection (the sharded dirty set, where a
//!   `DrainRegion` really is partial).
//!
//! Checked invariants, after every op:
//!
//! * an audit of a deferred protection is always clean — the audit's
//!   latch-then-drain-shard catch-up must make queued deltas invisible,
//!   no matter how updates and partial drains interleaved;
//! * the 1-shard and 8-shard instances decide every audit identically
//!   (shard geometry must never change an outcome), mirroring the
//!   lock-model suite's 1-vs-8-shard comparison;
//! * a full audit leaves both dirty sets empty;
//! * the eager reference audits clean throughout (sanity on the harness
//!   itself);
//! * for all three protections, each parity group's buffer equals the
//!   XOR of its member regions read from the image, and its maintained
//!   parity codeword verifies — parity is applied inside `apply_update`,
//!   so no drain is needed first, under either scheme.
//!
//! At the end of every script, after a full drain, the three codeword
//! tables must agree region by region — deferral may *lag* the eager
//! table, never diverge from it.
//!
//! CI raises the case count via `PROPTEST_CASES`, as with the lock-model
//! suite.

use dali::codeword::{CodewordAlgebraKind, CodewordProtection, DeferredConfig};
use dali::mem::DbImage;
use dali::{DbAddr, ProtectionScheme};
use proptest::prelude::*;

#[path = "support/parity.rs"]
mod parity;

/// 4 pages x 4096 bytes, 64-byte regions => 256 regions.
const PAGES: usize = 4;
const PAGE: usize = 4096;
const REGION: usize = 64;
const NREGIONS: usize = PAGES * PAGE / REGION;
/// Regions per parity group.
const GROUP: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Prescribed update of `len` bytes at `addr`, filled with `fill`.
    Update {
        addr: usize,
        len: usize,
        fill: u8,
    },
    /// Incremental catch-up of one region's shard (partial on 8 shards,
    /// total on 1 — exactly the asymmetry audits must absorb).
    DrainRegion(usize),
    DrainAll,
    Audit,
}

fn op() -> impl Strategy<Value = Op> {
    // Updates dominate (the arm is repeated — the vendored prop_oneof!
    // has no weights); lengths up to 100 bytes cross region boundaries
    // (region size 64) and word-widen unaligned edges.
    let span = PAGES * PAGE;
    let update = move || {
        (0..span - 100, 1..100usize, any::<u8>()).prop_map(|(addr, len, fill)| Op::Update {
            addr,
            len,
            fill,
        })
    };
    prop_oneof![
        update(),
        update(),
        update(),
        update(),
        (0..NREGIONS).prop_map(Op::DrainRegion),
        Just(Op::DrainAll),
        Just(Op::Audit),
    ]
}

struct Harness {
    image: DbImage,
    eager: CodewordProtection,
    def1: CodewordProtection,
    def8: CodewordProtection,
}

impl Harness {
    fn new() -> Harness {
        let image = DbImage::new(PAGES, PAGE).unwrap();
        let prot = |scheme, shards| {
            // Watermark 0 = unbounded: no inline drains, so the only
            // catch-up is the script's, keeping runs deterministic.
            let cfg = DeferredConfig {
                shards,
                watermark: 0,
            };
            let mut prot = CodewordProtection::with_config(
                &image,
                scheme,
                REGION,
                1,
                cfg,
                1,
                CodewordAlgebraKind::XorFold,
            )
            .unwrap();
            // The stripe's queue-sizing arguments are unused (eager).
            prot.enable_parity(&image, GROUP, 0, 0).unwrap();
            prot
        };
        let eager = prot(ProtectionScheme::DataCodeword, 8);
        let (def1, def8) = (
            prot(ProtectionScheme::DeferredMaintenance, 1),
            prot(ProtectionScheme::DeferredMaintenance, 8),
        );
        Harness {
            image,
            eager,
            def1,
            def8,
        }
    }

    fn each(&self) -> [&CodewordProtection; 3] {
        [&self.eager, &self.def1, &self.def8]
    }

    fn named(&self) -> [(&'static str, &CodewordProtection); 3] {
        [
            ("eager", &self.eager),
            ("1 shard", &self.def1),
            ("8 shards", &self.def8),
        ]
    }

    /// One prescribed update: capture the widened before-image once,
    /// write the image once, publish the delta through all three
    /// protections (the delta math is pure, so sharing the image is
    /// exactly "the same writes" the model requires).
    fn update(&self, addr: usize, data: &[u8]) {
        let (ws, wl) = dali::common::align::widen_to_words(addr, data.len());
        let mut old = vec![0u8; wl];
        self.image.read(DbAddr(ws), &mut old).unwrap();
        self.image.write(DbAddr(addr), data).unwrap();
        for prot in self.each() {
            prot.apply_update(&self.image, DbAddr(ws), &old).unwrap();
        }
    }

    fn run(&self, script: &[Op]) -> Result<(), String> {
        for (i, &op) in script.iter().enumerate() {
            match op {
                Op::Update { addr, len, fill } => self.update(addr, &vec![fill; len]),
                Op::DrainRegion(r) => {
                    for prot in self.each() {
                        prot.drain_region(r);
                    }
                }
                Op::DrainAll => {
                    for prot in self.each() {
                        prot.drain_deferred();
                    }
                }
                Op::Audit => {
                    let a1 = self.def1.audit(&self.image).map_err(|e| e.to_string())?;
                    let a8 = self.def8.audit(&self.image).map_err(|e| e.to_string())?;
                    if a1.clean() != a8.clean() {
                        return Err(format!(
                            "op {i}: shard count changed the audit outcome \
                             (1 shard clean={}, 8 shards clean={})",
                            a1.clean(),
                            a8.clean()
                        ));
                    }
                    if !a1.clean() || !a8.clean() {
                        return Err(format!(
                            "op {i}: false corruption report from a deferred audit: \
                             1 shard {a1:?}, 8 shards {a8:?}"
                        ));
                    }
                    // A full audit drains every dirty region's shard.
                    for (name, p) in [("1 shard", &self.def1), ("8 shards", &self.def8)] {
                        if p.deferred_len() != 0 || p.deferred_pending_deltas() != 0 {
                            return Err(format!(
                                "op {i}: {name} still holds {} dirty regions / {} deltas \
                                 after a full audit",
                                p.deferred_len(),
                                p.deferred_pending_deltas()
                            ));
                        }
                    }
                }
            }
            // The eager reference is maintained at every endUpdate, so it
            // must audit clean after *every* op.
            let e = self.eager.audit(&self.image).map_err(|e| e.to_string())?;
            if !e.clean() {
                return Err(format!("op {i}: eager reference audit unclean: {e:?}"));
            }
            // Eager parity: every stripe is exact after every op.
            for (name, prot) in self.named() {
                parity::stripe_exact(&self.image, prot)
                    .map_err(|e| format!("op {i}: {name}: {e}"))?;
            }
        }

        // Fully drained, the deferred tables must equal the eager one —
        // deferral lags, never diverges.
        for prot in self.each() {
            prot.drain_deferred();
        }
        for r in 0..NREGIONS {
            let (e, d1, d8) = (
                self.eager.table().get(r),
                self.def1.table().get(r),
                self.def8.table().get(r),
            );
            if e != d1 || e != d8 {
                return Err(format!(
                    "region {r}: drained codewords diverge (eager {e:#010x}, \
                     1 shard {d1:#010x}, 8 shards {d8:#010x})"
                ));
            }
        }
        for (name, p) in [("1 shard", &self.def1), ("8 shards", &self.def8)] {
            let rep = p.audit(&self.image).map_err(|e| e.to_string())?;
            if !rep.clean() {
                return Err(format!("final audit on {name} unclean: {rep:?}"));
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn deferred_tables_match_eager_reference(
        script in proptest::collection::vec(op(), 1..24),
    ) {
        Harness::new().run(&script).map_err(TestCaseError::fail)?;
    }
}

/// Pinned scripts for the interesting corners, kept deterministic so a
/// regression reproduces without the property runner.
#[test]
fn pinned_deferred_scripts() {
    use Op::{Audit, DrainAll, DrainRegion, Update};
    let scripts: &[&[Op]] = &[
        // Audit with everything still queued: catch-up is the audit's job.
        &[
            Update {
                addr: 5,
                len: 90,
                fill: 0xab,
            },
            Update {
                addr: 700,
                len: 3,
                fill: 0x11,
            },
            Audit,
        ],
        // Partial drain, then more updates to the same region, then audit.
        &[
            Update {
                addr: 0,
                len: 8,
                fill: 1,
            },
            DrainRegion(0),
            Update {
                addr: 4,
                len: 8,
                fill: 2,
            },
            Audit,
        ],
        // Same region updated repeatedly: pure coalescing, one drain.
        &[
            Update {
                addr: 64,
                len: 4,
                fill: 3,
            },
            Update {
                addr: 68,
                len: 4,
                fill: 4,
            },
            Update {
                addr: 64,
                len: 4,
                fill: 5,
            },
            DrainAll,
            Audit,
        ],
        // Drain of an untouched region is a no-op that must not disturb
        // queued deltas for others (on 8 shards it drains a different
        // shard; on 1 shard it drains everything — audit absorbs both).
        &[
            Update {
                addr: 128,
                len: 16,
                fill: 6,
            },
            DrainRegion(200),
            Audit,
        ],
        // Unaligned cross-region update: word widening at both edges.
        &[
            Update {
                addr: 101,
                len: 70,
                fill: 7,
            },
            Audit,
            DrainAll,
            Audit,
        ],
        // Parity: an update straddling the group boundary between
        // regions 7 and 8, a sibling update in group 0, a partial drain,
        // another update to the drained region, then a full drain.
        &[
            Update {
                addr: 488,
                len: 40,
                fill: 8,
            },
            Update {
                addr: 130,
                len: 12,
                fill: 9,
            },
            DrainRegion(8),
            Update {
                addr: 500,
                len: 8,
                fill: 10,
            },
            DrainAll,
            Audit,
        ],
    ];
    for (i, script) in scripts.iter().enumerate() {
        if let Err(e) = Harness::new().run(script) {
            panic!("pinned script {i}: {e}");
        }
    }
}

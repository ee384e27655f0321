//! Engine configuration and the protection-scheme selector.
//!
//! [`ProtectionScheme`] enumerates the protection levels evaluated in the
//! paper (the rows of Table 2); [`DaliConfig`] carries the knobs used to
//! size the database image, protection regions, and durability behaviour.

use std::path::PathBuf;
use std::time::Duration;

/// Which corruption-protection scheme the engine runs with.
///
/// Each variant corresponds to a row of Table 2 in the paper:
///
/// | Variant | Table 2 row | Direct corruption | Indirect corruption |
/// |---|---|---|---|
/// | `Baseline` | Baseline | none | none |
/// | `DataCodeword` | Data CW | detect (audit) | none |
/// | `ReadPrecheck` | Data CW w/Precheck, *N* byte | detect | prevent |
/// | `ReadLogging` | Data CW w/ReadLog | detect | correct (delete-txn recovery) |
/// | `CwReadLogging` | Data CW w/CW ReadLog | detect | correct (view-consistent) |
/// | `MemoryProtection` | Memory Protection | prevent (mprotect) | unneeded |
///
/// The precheck region size is configured separately
/// ([`DaliConfig::region_size`]) to allow the 64 B / 512 B / 8 K rows and
/// the region-size sweep ablation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProtectionScheme {
    /// No protection at all.
    Baseline,
    /// Maintain codewords on every update; detect direct corruption only
    /// through asynchronous audits (paper §3.2).
    DataCodeword,
    /// Codeword maintenance plus a codeword consistency check on every read
    /// (paper §3.1); prevents transaction-carried corruption.
    ReadPrecheck,
    /// Codeword maintenance plus logging of the identity of every item read
    /// (paper §4.2); enables delete-transaction corruption recovery.
    ReadLogging,
    /// Read logging that additionally stores the region codeword(s) in each
    /// read log record (paper §4.3 extension); recovery becomes
    /// view-consistent and runs on every restart.
    CwReadLogging,
    /// Hardware protection: mprotect pages read-only, expose them for the
    /// duration of each beginUpdate/endUpdate pair (paper §3, after \[21\]).
    MemoryProtection,
}

impl ProtectionScheme {
    /// All schemes, in the order they appear in Table 2 (for the 64-byte
    /// region size).
    pub const ALL: [ProtectionScheme; 6] = [
        ProtectionScheme::Baseline,
        ProtectionScheme::DataCodeword,
        ProtectionScheme::ReadPrecheck,
        ProtectionScheme::ReadLogging,
        ProtectionScheme::CwReadLogging,
        ProtectionScheme::MemoryProtection,
    ];

    /// Does the scheme maintain a codeword per protection region on every
    /// update?
    #[inline]
    pub fn maintains_codewords(self) -> bool {
        !matches!(
            self,
            ProtectionScheme::Baseline | ProtectionScheme::MemoryProtection
        )
    }

    /// Does the scheme verify the codeword of each region read, before the
    /// read (paper §3.1)?
    #[inline]
    pub fn prechecks_reads(self) -> bool {
        matches!(self, ProtectionScheme::ReadPrecheck)
    }

    /// Does the scheme append read log records to the transaction log?
    #[inline]
    pub fn logs_reads(self) -> bool {
        matches!(
            self,
            ProtectionScheme::ReadLogging | ProtectionScheme::CwReadLogging
        )
    }

    /// Do read log records carry the region codeword(s)?
    #[inline]
    pub fn logs_read_codewords(self) -> bool {
        matches!(self, ProtectionScheme::CwReadLogging)
    }

    /// Does the scheme bracket updates with mprotect calls?
    #[inline]
    pub fn uses_mprotect(self) -> bool {
        matches!(self, ProtectionScheme::MemoryProtection)
    }

    /// Can the scheme drive delete-transaction corruption recovery (needs
    /// read log records)?
    #[inline]
    pub fn supports_delete_txn_recovery(self) -> bool {
        self.logs_reads()
    }

    /// Human-readable label matching the Table 2 row names.
    pub fn label(self, region_size: usize) -> String {
        match self {
            ProtectionScheme::Baseline => "Baseline".to_string(),
            ProtectionScheme::DataCodeword => "Data CW".to_string(),
            ProtectionScheme::ReadPrecheck => {
                format!("Data CW w/Precheck, {} byte", region_size)
            }
            ProtectionScheme::ReadLogging => "Data CW w/ReadLog".to_string(),
            ProtectionScheme::CwReadLogging => "Data CW w/CW ReadLog".to_string(),
            ProtectionScheme::MemoryProtection => "Memory Protection".to_string(),
        }
    }
}

/// The modulus of the residue codeword algebra: `2^32 - 1`.
///
/// Folding a region as a sum of its 32-bit words modulo `2^32 - 1`
/// (one's-complement / end-around-carry arithmetic, the same family as the
/// Internet checksum) detects every *same-direction* pair of identical
/// bit-column flips that the XOR fold cancels: two `+2^k` perturbations sum
/// to `2^(k+1) != 0 (mod 2^32 - 1)` — including `k = 31`, because
/// `2^32 ≡ 1`, the end-around carry. See DESIGN.md for the algebra's laws
/// and residual blind spots (opposite-direction pairs still cancel).
pub const RESIDUE_MODULUS: u64 = 0xFFFF_FFFF;

/// Which codeword *algebra* folds region contents into a `u32` codeword.
///
/// The paper fixes the algebra to a bitwise XOR of the region's words
/// (§3); this enum makes it pluggable so the detection/overhead trade-off
/// can be measured. Every algebra is a commutative group on `u32`
/// codewords: `combine` is associative and commutative with `identity()`
/// as neutral element and `neg` as inverse, which is exactly what
/// incremental maintenance and order-free concurrent delta publishing
/// rely on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum CodewordAlgebraKind {
    /// Bitwise XOR of the region's 32-bit words (the paper's codeword).
    /// Self-inverse deltas; blind to an even number of identical flips in
    /// one bit column.
    #[default]
    XorFold,
    /// Sum of the region's 32-bit words modulo `2^32 - 1`
    /// ([`RESIDUE_MODULUS`]), canonicalized into `[0, 2^32 - 1)`.
    /// Detects the same-direction paired-flip class XOR misses at
    /// comparable fold cost.
    Residue,
}

impl CodewordAlgebraKind {
    /// Both algebras, XOR first (the paper's default).
    pub const ALL: [CodewordAlgebraKind; 2] =
        [CodewordAlgebraKind::XorFold, CodewordAlgebraKind::Residue];

    /// The codeword of an empty (or all-zero) region.
    #[inline]
    pub fn identity(self) -> u32 {
        0
    }

    /// Combine two codewords / deltas (the group operation). Associative
    /// and commutative for both algebras.
    #[inline]
    pub fn combine(self, a: u32, b: u32) -> u32 {
        match self {
            CodewordAlgebraKind::XorFold => a ^ b,
            CodewordAlgebraKind::Residue => ((a as u64 + b as u64) % RESIDUE_MODULUS) as u32,
        }
    }

    /// The inverse of a codeword under [`combine`](Self::combine):
    /// `combine(a, neg(a)) == identity()`. XOR is self-inverse; the
    /// residue inverse is `M - a` (with `0` fixed, keeping the canonical
    /// range `[0, M)`).
    #[inline]
    pub fn neg(self, a: u32) -> u32 {
        match self {
            CodewordAlgebraKind::XorFold => a,
            CodewordAlgebraKind::Residue => {
                if a == 0 {
                    0
                } else {
                    (RESIDUE_MODULUS - a as u64) as u32
                }
            }
        }
    }

    /// The *directed* delta taking fold(`old`) to fold(`new`):
    /// `combine(fold(old), delta) == fold(new)`. For XOR this is the
    /// symmetric difference (direction-free); for residue the direction
    /// matters — rolling back applies `neg(delta)`, equivalently the delta
    /// computed with the roles swapped.
    #[inline]
    pub fn delta_of_folds(self, old_fold: u32, new_fold: u32) -> u32 {
        self.combine(new_fold, self.neg(old_fold))
    }

    /// On-disk tag byte for checkpoint metadata. Stable across versions.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            CodewordAlgebraKind::XorFold => 1,
            CodewordAlgebraKind::Residue => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag); `None` for unknown bytes.
    #[inline]
    pub fn from_tag(tag: u8) -> Option<CodewordAlgebraKind> {
        match tag {
            1 => Some(CodewordAlgebraKind::XorFold),
            2 => Some(CodewordAlgebraKind::Residue),
            _ => None,
        }
    }

    /// Human-readable label for benches and reports.
    pub fn label(self) -> &'static str {
        match self {
            CodewordAlgebraKind::XorFold => "xor-fold",
            CodewordAlgebraKind::Residue => "residue-2^32-1",
        }
    }
}

/// Configuration for opening or creating a database.
#[derive(Clone, Debug)]
pub struct DaliConfig {
    /// Directory holding the stable log, the two checkpoint images, and the
    /// checkpoint anchor.
    pub dir: PathBuf,
    /// Page size in bytes (power of two). Pages are the granularity of
    /// dirty tracking, checkpoint I/O, and mprotect.
    pub page_size: usize,
    /// Database image size in pages.
    pub db_pages: usize,
    /// Protection scheme to run with.
    pub scheme: ProtectionScheme,
    /// Protection-region size in bytes (power of two, multiple of the
    /// codeword word size). Table 2 uses 64, 512, and 8192.
    pub region_size: usize,
    /// Number of protection regions guarded by one protection latch.
    /// `1` gives the paper's latch-per-region; larger values stripe.
    pub regions_per_latch: usize,
    /// fsync the stable log on transaction commit. When false the log is
    /// still written (buffered) at commit, but durability is left to the OS.
    pub sync_commit: bool,
    /// Unused: durable commits never wait for neighbours (one fsync
    /// still covers every commit written before it). Kept only because
    /// the frozen ledger (`benchmark/src/harness.rs`) prints it.
    pub commit_window: Duration,
    /// How long a lock request waits before being denied (deadlock
    /// resolution by timeout).
    pub lock_timeout: Duration,
    /// Number of record-lock table shards (rounded up to a power of
    /// two). `0` = one shard per available CPU. Partitioned workloads
    /// never contend on the lock table either way; sharding keeps
    /// cross-partition workloads from serializing every lock/unlock
    /// through one table mutex.
    pub lock_shards: usize,
    /// `Some(interval)`: blocked lock requests run a wait-for-graph
    /// cycle check every `interval`, so genuine deadlocks abort (the
    /// youngest transaction in the cycle) within milliseconds instead of
    /// burning the full `lock_timeout`. `None`: timeout-only resolution.
    pub deadlock_detect_interval: Option<Duration>,
    /// Unused; read only by the frozen ledger (ROADMAP item 9).
    pub deferred_shard_watermark: usize,
    /// Number of worker threads striping full-image codeword scans —
    /// whole-database audits, checkpoint certification, the startup
    /// codeword-table fold, and post-recovery resync. `0` = auto: one per
    /// available CPU. Each region is still audited under its own
    /// protection latch, so normal processing continues around a parallel
    /// audit exactly as around a serial one; `1` keeps scans serial.
    pub audit_threads: usize,
    /// Checkpoint certification cadence: every `full_certify_every`-th
    /// checkpoint audits the *entire* database (paper §4.2); the
    /// checkpoints in between *delta-certify* only the protection regions
    /// covered by pages dirtied since the image was last written. `0` =
    /// every checkpoint is a full sweep — the paper-faithful mode and the
    /// default. Delta certification cannot see a wild write that lands
    /// entirely outside the dirty footprint, so a corrupt checkpoint can be
    /// certified for at most `full_certify_every - 1` intervals before the
    /// next full sweep catches it (see DESIGN.md); `Audit_SN` only advances
    /// on full sweeps for the same reason. A failed certification or a restart
    /// forces the next sweep full regardless of cadence, and the
    /// read-logging schemes always sweep fully: a delta certification
    /// would anchor restart past the read records of carriers it missed.
    pub full_certify_every: u32,
    /// Which algebra folds region contents into codewords — the paper's
    /// XOR fold by default, or the mod-(2^32−1) residue code that also
    /// detects same-direction paired bit-column flips. The algebra is
    /// stamped into checkpoint metadata; recovery rejects an image
    /// certified under a different algebra rather than resync a table
    /// whose certification verdicts it cannot reproduce.
    pub codeword_algebra: CodewordAlgebraKind,
    /// Lay allocation bitmaps out adjacent to their table's data instead
    /// of on separate pages. Dali keeps control information *off* the
    /// data pages (the default, `false`); colocating models a page-based
    /// system and reduces the pages touched per operation — the §5.3
    /// ablation explaining why Hardware Protection fares better on
    /// page-based systems.
    pub colocate_control: bool,
    /// Unused; read only by the frozen ledger (`benchmark/`).
    pub parity_group_size: usize,
    /// Admission control: maximum concurrently open connections. At the
    /// cap the listener's read interest is parked (accept-pause) after
    /// rejecting the connections already in the backlog with a
    /// structured error; rejects are counted in
    /// `ServerStats::conns_rejected`. `0` = unlimited.
    pub net_max_conns: usize,
    /// Capacity at which a system-log segment is sealed and a new one
    /// started. Sealed segments are immutable; once a certified
    /// checkpoint's `CK_end` is past a sealed segment's last byte the
    /// segment can be retired (see [`DaliConfig::log_retire`]), so
    /// together with the checkpoint cadence this bounds the log
    /// directory's size. Records never span segments; a record larger
    /// than a segment gets one to itself.
    pub log_segment_bytes: u64,
    /// Retire (unlink) log segments fully covered by the *older* of the
    /// two ping-pong checkpoint images after every successful
    /// checkpoint. Disable to keep the whole history on disk — e.g. for
    /// prior-state recovery to points before the previous checkpoint, or
    /// for offline log forensics with `logdump`.
    pub log_retire: bool,
}

/// `n`, or one per available CPU when `n` is `0` (the knobs' "auto").
fn or_cpus(n: usize) -> usize {
    match n {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    }
}

impl DaliConfig {
    /// A small configuration rooted at `dir`, suitable for tests and
    /// examples: 4 MiB database, 64-byte regions, baseline scheme.
    pub fn small(dir: impl Into<PathBuf>) -> DaliConfig {
        DaliConfig {
            dir: dir.into(),
            page_size: 8192,
            db_pages: 512,
            scheme: ProtectionScheme::Baseline,
            region_size: 64,
            regions_per_latch: 1,
            sync_commit: false,
            commit_window: Duration::ZERO,
            lock_timeout: Duration::from_secs(2),
            lock_shards: 0,
            deadlock_detect_interval: Some(Duration::from_millis(5)),
            deferred_shard_watermark: 4096,
            audit_threads: 0,
            full_certify_every: 0,
            codeword_algebra: CodewordAlgebraKind::XorFold,
            colocate_control: false,
            parity_group_size: 0,
            net_max_conns: 16384,
            log_segment_bytes: 4 << 20,
            log_retire: true,
        }
    }

    /// Total database image size in bytes.
    #[inline]
    pub fn db_bytes(&self) -> usize {
        self.page_size * self.db_pages
    }

    /// Builder-style scheme selection.
    pub fn with_scheme(mut self, scheme: ProtectionScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Builder-style region-size selection.
    pub fn with_region_size(mut self, region_size: usize) -> Self {
        self.region_size = region_size;
        self
    }

    /// Builder-style lock-shard-count selection (`0` = auto).
    pub fn with_lock_shards(mut self, lock_shards: usize) -> Self {
        self.lock_shards = lock_shards;
        self
    }

    /// The effective lock-shard count: `lock_shards`, or one per
    /// available CPU when `0`, rounded up to a power of two.
    pub fn resolved_lock_shards(&self) -> usize {
        or_cpus(self.lock_shards).next_power_of_two()
    }

    /// Unused; called only by the frozen ledger (ROADMAP item 9).
    pub fn resolved_deferred_shards(&self) -> usize {
        1
    }

    /// Builder-style audit-scan worker count (`0` = auto, `1` = serial).
    pub fn with_audit_threads(mut self, audit_threads: usize) -> Self {
        self.audit_threads = audit_threads;
        self
    }

    /// Builder-style certification cadence (`0` = every checkpoint runs a
    /// full sweep, the paper-faithful default; `n > 0` = delta-certify,
    /// with a full sweep every `n`-th checkpoint).
    pub fn with_full_certify_every(mut self, every: u32) -> Self {
        self.full_certify_every = every;
        self
    }

    /// Builder-style codeword-algebra selection.
    pub fn with_codeword_algebra(mut self, algebra: CodewordAlgebraKind) -> Self {
        self.codeword_algebra = algebra;
        self
    }

    /// Unused; called only by the frozen ledger (`benchmark/`).
    #[inline]
    pub fn resolved_parity_group_size(&self) -> usize {
        0
    }

    /// Builder-style connection cap (`0` = unlimited).
    pub fn with_net_max_conns(mut self, n: usize) -> Self {
        self.net_max_conns = n;
        self
    }

    /// The effective audit-scan worker count: `audit_threads`, or one per
    /// available CPU when `0` (no power-of-two rounding — stripes are
    /// contiguous region chunks, not hash buckets).
    pub fn resolved_audit_threads(&self) -> usize {
        or_cpus(self.audit_threads)
    }

    /// Builder-style log-segment capacity selection.
    pub fn with_log_segment_bytes(mut self, bytes: u64) -> Self {
        self.log_segment_bytes = bytes;
        self
    }

    /// Builder-style segment-retirement toggle.
    pub fn with_log_retire(mut self, retire: bool) -> Self {
        self.log_retire = retire;
        self
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !self.page_size.is_power_of_two() || self.page_size < 512 {
            return Err(format!(
                "page_size {} must be a power of two >= 512",
                self.page_size
            ));
        }
        if self.db_pages == 0 {
            return Err("db_pages must be positive".into());
        }
        if !self.region_size.is_power_of_two()
            || self.region_size < crate::align::WORD
            || self.region_size > self.page_size
        {
            return Err(format!(
                "region_size {} must be a power of two in [{}, page_size]",
                self.region_size,
                crate::align::WORD
            ));
        }
        if self.regions_per_latch == 0 || !self.regions_per_latch.is_power_of_two() {
            return Err("regions_per_latch must be a power of two >= 1".into());
        }
        if self.deadlock_detect_interval == Some(Duration::ZERO) {
            // A zero interval makes every wait time out at once, so a
            // blocked waiter re-walks the wait-for graph in a busy loop.
            return Err("deadlock_detect_interval must be positive (or None)".into());
        }
        if self.full_certify_every == 1 {
            // `1` would mean "every checkpoint is the Nth" — identical to
            // `0` but ambiguous at call sites; reject it so the two
            // spellings of always-full cannot drift apart.
            return Err("full_certify_every must be 0 (always full) or >= 2".into());
        }
        if self.log_segment_bytes < 1024 {
            return Err(format!(
                "log_segment_bytes {} must be >= 1024 (a segment must hold \
                 real frames, not just its seal)",
                self.log_segment_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_capabilities_match_table2_semantics() {
        use ProtectionScheme::*;
        assert!(!Baseline.maintains_codewords());
        assert!(!MemoryProtection.maintains_codewords());
        for s in [DataCodeword, ReadPrecheck, ReadLogging, CwReadLogging] {
            assert!(s.maintains_codewords(), "{s:?}");
        }
        assert!(ReadPrecheck.prechecks_reads());
        assert!(!DataCodeword.prechecks_reads());
        assert!(ReadLogging.logs_reads() && CwReadLogging.logs_reads());
        assert!(!ReadLogging.logs_read_codewords());
        assert!(CwReadLogging.logs_read_codewords());
        assert!(MemoryProtection.uses_mprotect());
        assert!(ReadLogging.supports_delete_txn_recovery());
        assert!(!ReadPrecheck.supports_delete_txn_recovery());
    }

    #[test]
    fn labels_match_paper_rows() {
        use ProtectionScheme::*;
        assert_eq!(Baseline.label(64), "Baseline");
        assert_eq!(DataCodeword.label(64), "Data CW");
        assert_eq!(ReadPrecheck.label(64), "Data CW w/Precheck, 64 byte");
        assert_eq!(ReadPrecheck.label(8192), "Data CW w/Precheck, 8192 byte");
        assert_eq!(ReadLogging.label(64), "Data CW w/ReadLog");
        assert_eq!(CwReadLogging.label(64), "Data CW w/CW ReadLog");
        assert_eq!(MemoryProtection.label(64), "Memory Protection");
    }

    #[test]
    fn small_config_validates() {
        assert_eq!(DaliConfig::small("/tmp/x").validate(), Ok(()));
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = DaliConfig::small("/tmp/x");
        c.page_size = 1000;
        assert!(c.validate().is_err());
        let mut c = DaliConfig::small("/tmp/x");
        c.region_size = 3;
        assert!(c.validate().is_err());
        let mut c = DaliConfig::small("/tmp/x");
        c.region_size = c.page_size * 2;
        assert!(c.validate().is_err());
        let mut c = DaliConfig::small("/tmp/x");
        c.db_pages = 0;
        assert!(c.validate().is_err());
        let mut c = DaliConfig::small("/tmp/x");
        c.regions_per_latch = 3;
        assert!(c.validate().is_err());
        let mut c = DaliConfig::small("/tmp/x");
        c.deadlock_detect_interval = Some(Duration::ZERO);
        assert!(c.validate().is_err());
        c.deadlock_detect_interval = None;
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn db_bytes_product() {
        let c = DaliConfig::small("/tmp/x");
        assert_eq!(c.db_bytes(), 8192 * 512);
    }

    #[test]
    fn builders_chain() {
        let c = DaliConfig::small("/tmp/x")
            .with_scheme(ProtectionScheme::ReadPrecheck)
            .with_region_size(512)
            .with_lock_shards(6);
        assert_eq!(c.scheme, ProtectionScheme::ReadPrecheck);
        assert_eq!(c.region_size, 512);
        assert_eq!(c.lock_shards, 6);
    }

    #[test]
    fn lock_shards_resolve_to_power_of_two() {
        let c = DaliConfig::small("/tmp/x");
        let auto = c.resolved_lock_shards();
        assert!(auto >= 1 && auto.is_power_of_two());
        assert_eq!(c.clone().with_lock_shards(1).resolved_lock_shards(), 1);
        assert_eq!(c.clone().with_lock_shards(6).resolved_lock_shards(), 8);
        assert_eq!(c.with_lock_shards(8).resolved_lock_shards(), 8);
    }

    #[test]
    fn audit_threads_resolve() {
        let c = DaliConfig::small("/tmp/x");
        assert_eq!(c.audit_threads, 0, "auto by default");
        assert!(c.resolved_audit_threads() >= 1);
        assert_eq!(c.clone().with_audit_threads(1).resolved_audit_threads(), 1);
        // No power-of-two rounding: stripes are contiguous chunks.
        assert_eq!(c.with_audit_threads(6).resolved_audit_threads(), 6);
    }

    #[test]
    fn log_knobs_validate() {
        let c = DaliConfig::small("/tmp/x");
        assert!(c.log_retire, "retirement on by default");
        assert!(c.clone().with_log_segment_bytes(4096).validate().is_ok());
        assert!(c.clone().with_log_segment_bytes(100).validate().is_err());
        assert!(!c.with_log_retire(false).log_retire);
    }

    #[test]
    fn certify_knobs_default_paper_faithful() {
        let c = DaliConfig::small("/tmp/x");
        assert_eq!(c.full_certify_every, 0, "always-full by default");
        let c = c.with_full_certify_every(8);
        assert_eq!(c.full_certify_every, 8);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn certify_every_one_rejected() {
        let c = DaliConfig::small("/tmp/x").with_full_certify_every(1);
        assert!(c.validate().is_err());
        assert_eq!(
            DaliConfig::small("/tmp/x")
                .with_full_certify_every(2)
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn algebra_group_laws_hold_for_samples() {
        let samples = [
            0u32,
            1,
            2,
            0x8000_0000,
            0xFFFF_FFFE,
            0xFFFF_FFFF, // M itself never appears canonically, but combine tolerates it
            0xDEAD_BEEF,
            0x0101_0101,
        ];
        for kind in CodewordAlgebraKind::ALL {
            for &a in &samples {
                // Identity and inverse laws (on canonical values < M for residue).
                let a_c = kind.combine(a, kind.identity());
                if kind == CodewordAlgebraKind::Residue && a as u64 == RESIDUE_MODULUS {
                    assert_eq!(a_c, 0, "M is congruent to 0");
                } else {
                    assert_eq!(a_c, a, "{kind:?} identity");
                }
                assert_eq!(
                    kind.combine(a_c, kind.neg(a_c)),
                    kind.identity(),
                    "{kind:?} inverse of {a_c:#x}"
                );
                for &b in &samples {
                    assert_eq!(
                        kind.combine(a, b),
                        kind.combine(b, a),
                        "{kind:?} commutativity"
                    );
                    for &c in &samples {
                        assert_eq!(
                            kind.combine(kind.combine(a, b), c),
                            kind.combine(a, kind.combine(b, c)),
                            "{kind:?} associativity"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn algebra_delta_is_directed() {
        for kind in CodewordAlgebraKind::ALL {
            let old = 0x1234_5678u32;
            let new = 0x9ABC_DEF0u32;
            let d = kind.delta_of_folds(old, new);
            assert_eq!(kind.combine(old, d), new, "{kind:?} forward");
            // Rolling back composes the reverse delta, which is neg(d).
            let back = kind.delta_of_folds(new, old);
            assert_eq!(back, kind.neg(d), "{kind:?} reverse = neg");
            assert_eq!(kind.combine(new, back), old, "{kind:?} rollback");
        }
        // XOR deltas are self-inverse; residue deltas generally are not.
        let k = CodewordAlgebraKind::XorFold;
        assert_eq!(k.neg(0xABCD), 0xABCD);
        let r = CodewordAlgebraKind::Residue;
        assert_eq!(r.neg(5), (RESIDUE_MODULUS - 5) as u32);
        assert_eq!(r.neg(0), 0);
    }

    #[test]
    fn residue_combine_wraps_end_around() {
        let r = CodewordAlgebraKind::Residue;
        // (M - 1) + 2 = M + 1 ≡ 1 (mod M): the end-around carry.
        assert_eq!(r.combine((RESIDUE_MODULUS - 1) as u32, 2), 1);
        // Same-direction paired flip in one column is visible: +2^k twice.
        let flip = 1u32 << 20;
        let d = r.combine(flip, flip);
        assert_ne!(d, 0, "residue sees the pair XOR cancels");
        assert_eq!(CodewordAlgebraKind::XorFold.combine(flip, flip), 0);
    }

    #[test]
    fn algebra_tags_round_trip() {
        for kind in CodewordAlgebraKind::ALL {
            assert_eq!(CodewordAlgebraKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(CodewordAlgebraKind::from_tag(0), None);
        assert_eq!(CodewordAlgebraKind::from_tag(3), None);
        assert_ne!(
            CodewordAlgebraKind::XorFold.tag(),
            CodewordAlgebraKind::Residue.tag()
        );
    }

    #[test]
    fn algebra_config_defaults_and_builder() {
        let c = DaliConfig::small("/tmp/x");
        assert_eq!(c.codeword_algebra, CodewordAlgebraKind::XorFold);
        let c = c.with_codeword_algebra(CodewordAlgebraKind::Residue);
        assert_eq!(c.codeword_algebra, CodewordAlgebraKind::Residue);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(CodewordAlgebraKind::XorFold.label(), "xor-fold");
        assert_eq!(CodewordAlgebraKind::Residue.label(), "residue-2^32-1");
    }

    #[test]
    fn net_knobs_default_and_resolve() {
        let c = DaliConfig::small("/tmp/x");
        assert_eq!(c.net_max_conns, 16384);

        let c = c.with_net_max_conns(100);
        assert_eq!(c.net_max_conns, 100);
        assert_eq!(c.validate(), Ok(()));
    }
}

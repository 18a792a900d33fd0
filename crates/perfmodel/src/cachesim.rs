//! A set-associative, write-back, write-allocate LRU cache simulator.
//!
//! Stands in for "NVIDIA Nsight compute" in §IV of the paper: replaying a
//! kernel's address trace through a cache with a device's geometry yields
//! the bytes moved to/from memory and the hit rates that the paper reads
//! off the profiler.

/// Whether an access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Read access.
    Load,
    /// Write access.
    Store,
}

/// Counters accumulated over a trace replay.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Number of load accesses.
    pub loads: u64,
    /// Number of store accesses.
    pub stores: u64,
    /// Load hits.
    pub load_hits: u64,
    /// Store hits.
    pub store_hits: u64,
    /// Bytes fetched from memory (misses × line, including write
    /// allocations).
    pub mem_read_bytes: u64,
    /// Bytes written back to memory (dirty evictions × line).
    pub mem_write_bytes: u64,
}

impl CacheStats {
    /// Overall hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.loads + self.stores;
        if total == 0 {
            return 0.0;
        }
        (self.load_hits + self.store_hits) as f64 / total as f64
    }

    /// Field-wise difference `self − earlier` (for phase snapshots).
    pub fn minus(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            load_hits: self.load_hits - earlier.load_hits,
            store_hits: self.store_hits - earlier.store_hits,
            mem_read_bytes: self.mem_read_bytes - earlier.mem_read_bytes,
            mem_write_bytes: self.mem_write_bytes - earlier.mem_write_bytes,
        }
    }

    /// Field-wise accumulation.
    pub fn add(&mut self, other: &CacheStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.load_hits += other.load_hits;
        self.store_hits += other.store_hits;
        self.mem_read_bytes += other.mem_read_bytes;
        self.mem_write_bytes += other.mem_write_bytes;
    }
}

/// One cache level.
///
/// ```
/// use pp_perfmodel::{AccessKind, Cache};
///
/// let mut c = Cache::new(4096, 64, 4);
/// assert!(!c.access(0, AccessKind::Load));  // cold miss fetches the line
/// assert!(c.access(32, AccessKind::Store)); // same line: hit
/// assert_eq!(c.stats().mem_read_bytes, 64);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    line_bytes: usize,
    num_sets: usize,
    assoc: usize,
    /// Per set: most-recent-first list of `(tag, dirty)`.
    sets: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl Cache {
    /// A cache of `size_bytes` capacity with `line_bytes` lines and
    /// `assoc`-way sets. Size is rounded down to a whole number of sets;
    /// a degenerate geometry gets one set (fully associative).
    ///
    /// # Panics
    /// Panics if `line_bytes` or `assoc` is zero.
    pub fn new(size_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(line_bytes > 0 && assoc > 0, "invalid cache geometry");
        let lines = (size_bytes / line_bytes).max(assoc);
        let num_sets = (lines / assoc).max(1);
        Self {
            line_bytes,
            num_sets,
            assoc,
            sets: vec![Vec::with_capacity(assoc); num_sets],
            stats: CacheStats::default(),
        }
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Access one byte address. Returns `true` on hit.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        let line = addr / self.line_bytes as u64;
        // XOR-folded set index: real shared caches hash addresses so that
        // power-of-two strides (like lane-contiguous batched vectors) do
        // not collapse onto a handful of sets. Sequential lines still map
        // one-to-one onto sets within each num_sets-sized block.
        let set_idx = ((line ^ (line / self.num_sets as u64)) % self.num_sets as u64) as usize;
        let set = &mut self.sets[set_idx];
        match kind {
            AccessKind::Load => self.stats.loads += 1,
            AccessKind::Store => self.stats.stores += 1,
        }

        if let Some(pos) = set.iter().position(|&(tag, _)| tag == line) {
            let (tag, dirty) = set.remove(pos);
            set.insert(0, (tag, dirty || kind == AccessKind::Store));
            match kind {
                AccessKind::Load => self.stats.load_hits += 1,
                AccessKind::Store => self.stats.store_hits += 1,
            }
            return true;
        }

        // Miss: fetch the line (write-allocate), evict LRU if full.
        self.stats.mem_read_bytes += self.line_bytes as u64;
        if set.len() == self.assoc {
            let (_, dirty) = set.pop().expect("set is full");
            if dirty {
                self.stats.mem_write_bytes += self.line_bytes as u64;
            }
        }
        set.insert(0, (line, kind == AccessKind::Store));
        false
    }

    /// Flush: write back all dirty lines and empty the cache.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for &(_, dirty) in set.iter() {
                if dirty {
                    self.stats.mem_write_bytes += self.line_bytes as u64;
                }
            }
            set.clear();
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 64, 4);
        assert!(!c.access(0, AccessKind::Load)); // cold miss
        assert!(c.access(8, AccessKind::Load)); // same line
        assert!(c.access(0, AccessKind::Store));
        let s = c.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.load_hits, 1);
        assert_eq!(s.store_hits, 1);
        assert_eq!(s.mem_read_bytes, 64);
    }

    #[test]
    fn capacity_eviction_and_writeback() {
        // Fully associative, 2 lines of 64 B.
        let mut c = Cache::new(128, 64, 2);
        c.access(0, AccessKind::Store); // line 0 dirty
        c.access(64, AccessKind::Load); // line 1
        c.access(128, AccessKind::Load); // evicts line 0 (LRU, dirty)
        let s = c.stats();
        assert_eq!(s.mem_write_bytes, 64, "dirty eviction must write back");
        assert_eq!(s.mem_read_bytes, 3 * 64);
        // Line 0 is gone.
        assert!(!c.access(0, AccessKind::Load));
    }

    #[test]
    fn lru_order_is_respected() {
        let mut c = Cache::new(128, 64, 2);
        c.access(0, AccessKind::Load); // A
        c.access(64, AccessKind::Load); // B
        c.access(0, AccessKind::Load); // touch A -> MRU
        c.access(128, AccessKind::Load); // evicts B
        assert!(c.access(0, AccessKind::Load), "A must survive");
        assert!(!c.access(64, AccessKind::Load), "B must be evicted");
    }

    #[test]
    fn streaming_larger_than_cache_misses_every_line() {
        let mut c = Cache::new(4096, 64, 8);
        let lines = 1000;
        for i in 0..lines {
            c.access(i * 64, AccessKind::Load);
        }
        let s = c.stats();
        assert_eq!(s.load_hits, 0);
        assert_eq!(s.mem_read_bytes, lines * 64);
    }

    #[test]
    fn working_set_within_cache_hits_on_second_pass() {
        let mut c = Cache::new(64 * 1024, 64, 8);
        for pass in 0..2 {
            for i in 0..512 {
                let hit = c.access(i * 64, AccessKind::Load);
                if pass == 1 {
                    assert!(hit, "second pass over a resident set must hit");
                }
            }
        }
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flush_writes_dirty_lines() {
        let mut c = Cache::new(1024, 64, 4);
        c.access(0, AccessKind::Store);
        c.access(64, AccessKind::Load);
        c.flush();
        assert_eq!(c.stats().mem_write_bytes, 64);
        assert!(!c.access(0, AccessKind::Load), "flushed lines are cold");
    }

    #[test]
    fn geometry() {
        let c = Cache::new(40 * 1024 * 1024, 128, 16);
        assert_eq!(c.line_bytes(), 128);
    }
}

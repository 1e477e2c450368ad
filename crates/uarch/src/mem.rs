//! The memory path behind the L1s: queued mesh NoC, NUCA LLC, and
//! main memory.
//!
//! The paper's CMP (Table 3) is a 16-tile 4x4 mesh with an
//! address-interleaved shared LLC (512 KB/tile) and 45 ns memory. We
//! simulate one core in detail; the other fifteen run the same
//! homogeneous workload (§5.1), so their traffic is modeled as
//! *background load proportional to the detailed core's own injection
//! rate* — each foreground message brings `background_factor`
//! link-occupancy equivalents with it.
//!
//! The mesh is collapsed into a single aggregate link server with
//! capacity `link_bandwidth` messages/cycle: messages queue FIFO, so
//! queueing delay grows superlinearly with load. This is the mechanism
//! behind Fig. 11 — indiscriminate region prefetching (Entire Region /
//! 5-Blocks) inflates front-end traffic, which delays *data* fills for
//! everyone.
//!
//! Latency of a request = queue wait + mesh round trip (2 x mean hops x
//! cycles/hop) + LLC slice access, plus memory latency on an LLC miss.
//!
//! Each simulated core owns its [`MemorySystem`] outright: the link
//! queue, the LLC's instruction lines (keyed by line index), the
//! data-miss RNG and the [`MemStats`] counters live in one value, so
//! one core's run shares no state with any other.

use fe_model::config::MachineConfig;
use fe_model::LineAddr;

use crate::setmap::SetAssocMap;

/// Traffic class of a memory request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemClass {
    /// Demand instruction fetch (L1-I miss).
    InstrDemand,
    /// Instruction prefetch probe that missed the L1-I.
    InstrPrefetch,
    /// Data fill (L1-D miss).
    Data,
    /// Prefetcher metadata access (Confluence's LLC-resident history).
    Metadata,
}

/// Counters exposed for reports and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Foreground messages injected.
    pub messages: u64,
    /// Total cycles foreground messages spent queued for the link.
    pub queue_wait: u64,
    /// Instruction requests that missed the LLC and paid memory latency.
    pub instr_llc_misses: u64,
    /// Data requests that missed the LLC.
    pub data_llc_misses: u64,
}

/// Aggregate NoC + LLC + memory timing model for one core (see the
/// module docs).
///
/// ```
/// use fe_model::MachineConfig;
/// use fe_model::LineAddr;
/// use fe_uarch::{MemClass, MemorySystem};
///
/// let mut mem = MemorySystem::new(&MachineConfig::table3());
/// let done = mem.request_instr(100, LineAddr::containing(0x1000), MemClass::InstrDemand);
/// assert!(done > 100);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    /// Link occupancy per foreground message, background included.
    service_per_msg: f64,
    /// Cycle at which the aggregate link next frees up.
    queue_free: f64,
    /// One-way uncontended mesh traversal.
    one_way: u32,
    llc_latency: u32,
    memory_cycles: u32,
    llc_data_miss_rate: f64,
    /// LLC contents for instruction lines, keyed by line index.
    llc: SetAssocMap<()>,
    /// Deterministic generator for probabilistic data-side LLC misses.
    lcg: u64,
    stats: MemStats,
}

impl MemorySystem {
    /// Builds the memory path `cfg` describes, with a cold LLC and an
    /// idle link.
    pub fn new(cfg: &MachineConfig) -> Self {
        let llc_lines = cfg.llc_total_kib() * 1024 / fe_model::LINE_BYTES;
        MemorySystem {
            service_per_msg: (1.0 + cfg.noc.background_factor) / cfg.noc.link_bandwidth,
            queue_free: 0.0,
            one_way: cfg.noc_base_latency(),
            llc_latency: cfg.llc.latency,
            memory_cycles: cfg.memory_cycles(),
            llc_data_miss_rate: cfg.backend.llc_data_miss_rate,
            llc: SetAssocMap::new(llc_lines as usize, cfg.llc.ways as usize),
            lcg: fe_model::rng::SPLITMIX64_GOLDEN,
            stats: MemStats::default(),
        }
    }

    /// Uncontended LLC round trip (mesh + slice), the latency floor of
    /// any request.
    pub fn llc_round_trip(&self) -> u32 {
        2 * self.one_way + self.llc_latency
    }

    /// Requests an instruction line; returns the completion cycle.
    pub fn request_instr(&mut self, now: u64, line: LineAddr, class: MemClass) -> u64 {
        debug_assert!(matches!(
            class,
            MemClass::InstrDemand | MemClass::InstrPrefetch
        ));
        let issued = self.enqueue(now);
        let mut latency = self.llc_round_trip() as u64;
        if self.llc.get(line.get()).is_none() {
            self.stats.instr_llc_misses += 1;
            latency += self.memory_cycles as u64;
            self.llc.insert(line.get(), ());
        }
        issued + latency
    }

    /// Functional warming of the LLC: brings `line` resident and
    /// promotes its recency *without* queueing a NoC message, advancing
    /// the link clock, or counting request statistics — the
    /// sampled-simulation update-only path for the memory hierarchy.
    pub fn warm_instr(&mut self, line: LineAddr) {
        if self.llc.get(line.get()).is_none() {
            self.llc.insert(line.get(), ());
        }
    }

    /// Requests a data line fill; returns the completion cycle. Data
    /// addresses are abstracted: LLC hit/miss is drawn at the
    /// configured rate (the paper's data working sets are not part of
    /// the front-end study — only the *latency* of these fills under
    /// NoC load matters, Fig. 11).
    pub fn request_data(&mut self, now: u64) -> u64 {
        let issued = self.enqueue(now);
        let mut latency = self.llc_round_trip() as u64;
        // SplitMix64 counter stream; plenty for a Bernoulli draw.
        if fe_model::rng::splitmix64_unit(&mut self.lcg) < self.llc_data_miss_rate {
            self.stats.data_llc_misses += 1;
            latency += self.memory_cycles as u64;
        }
        issued + latency
    }

    /// Reads prefetcher metadata pinned in the LLC (Confluence/SHIFT);
    /// always an LLC hit, but subject to NoC queueing like any message.
    pub fn request_metadata(&mut self, now: u64) -> u64 {
        self.enqueue(now) + self.llc_round_trip() as u64
    }

    /// Counters accumulated since construction or the last reset.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets the counters (e.g. at the end of warmup) without
    /// disturbing LLC contents or queue state.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Current queue backlog in cycles relative to `now` — how congested
    /// the mesh is.
    pub fn backlog(&self, now: u64) -> f64 {
        (self.queue_free - now as f64).max(0.0)
    }

    /// Queues one foreground message for the link; returns the cycle it
    /// is issued.
    fn enqueue(&mut self, now: u64) -> u64 {
        self.stats.messages += 1;
        let start = self.queue_free.max(now as f64);
        let wait = (start - now as f64) as u64;
        self.stats.queue_wait += wait;
        self.queue_free = start + self.service_per_msg;
        start.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_model::MachineConfig;

    fn mem() -> MemorySystem {
        MemorySystem::new(&MachineConfig::table3())
    }

    #[test]
    fn round_trip_floor() {
        let mut m = mem();
        // Cold LLC: first touch pays memory latency.
        let line = LineAddr::containing(0x1000);
        let t1 = m.request_instr(0, line, MemClass::InstrDemand);
        assert_eq!(t1, (21 + 90), "cold miss = LLC round trip + memory");
        // Warm: LLC hit.
        let t2 = m.request_instr(1000, line, MemClass::InstrDemand);
        assert_eq!(t2, 1000 + 21);
    }

    #[test]
    fn queueing_delays_bursts() {
        let mut m = mem();
        let line = LineAddr::containing(0x2000);
        m.request_instr(0, line, MemClass::InstrDemand); // warm the line

        // A burst of requests at the same cycle must serialize on the
        // link: completion times strictly increase.
        let mut last = 0;
        for i in 0..16 {
            let done = m.request_instr(
                500,
                LineAddr::containing(0x2000 + i * 64),
                MemClass::InstrPrefetch,
            );
            assert!(done >= last, "burst must not reorder");
            last = done;
        }
        let stats = m.stats();
        assert!(stats.queue_wait > 0, "burst must queue");
    }

    #[test]
    fn idle_gaps_drain_the_queue() {
        let mut m = mem();
        for i in 0..8 {
            m.request_data(i);
        }
        let backlog_hot = m.backlog(8);
        assert!(backlog_hot > 0.0);
        assert_eq!(m.backlog(100_000), 0.0, "queue drains when idle");
    }

    #[test]
    fn data_misses_follow_configured_rate() {
        let mut cfg = MachineConfig::table3();
        cfg.backend.llc_data_miss_rate = 0.3;
        let mut m = MemorySystem::new(&cfg);
        let n = 20_000;
        for i in 0..n {
            m.request_data(i * 1000); // spaced: no queue interference
        }
        let rate = m.stats().data_llc_misses as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed data miss rate {rate}");
    }

    #[test]
    fn metadata_is_llc_round_trip() {
        let mut m = mem();
        assert_eq!(m.request_metadata(50), 50 + 21);
    }

    #[test]
    fn llc_capacity_evicts_instruction_lines() {
        let mut cfg = MachineConfig::table3();
        cfg.llc.kib_per_core = 4; // 64 KiB total = 1024 lines
        let mut m = MemorySystem::new(&cfg);
        // Touch far more lines than fit, spaced to avoid queue noise.
        for i in 0..4096u64 {
            m.request_instr(i * 1000, LineAddr::from_index(i), MemClass::InstrDemand);
        }
        let before = m.stats().instr_llc_misses;
        // Line 0 must have been evicted by now.
        m.request_instr(10_000_000, LineAddr::from_index(0), MemClass::InstrDemand);
        assert_eq!(m.stats().instr_llc_misses, before + 1);
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut m = mem();
        let line = LineAddr::containing(0x1000);
        m.request_instr(0, line, MemClass::InstrDemand);
        m.reset_stats();
        assert_eq!(m.stats().messages, 0);
        // Still warm in LLC after reset.
        let t = m.request_instr(5000, line, MemClass::InstrDemand);
        assert_eq!(t, 5000 + 21);
    }
}

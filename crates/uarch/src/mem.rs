//! Shared memory path: queued mesh NoC, NUCA LLC, and main memory.
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
//! ## Sharing across simulated contexts
//!
//! [`MemorySystem`] is a *handle*: the LLC contents, the link queue, and
//! the data-miss RNG live in a core shared by every handle created from
//! the same [`MemorySystem::shared_group`] call, while per-context
//! counters ([`MemStats`]) stay in the handle. A single-context
//! simulation ([`MemorySystem::new`]) is simply a group of one and
//! behaves exactly as an owning memory system would. Consolidated
//! multi-context simulations hand one handle to each pipeline: they
//! contend on the link queue and LLC capacity, and each handle's
//! counters report that context's own traffic and the interference it
//! suffered ([`MemStats::cross_evictions`]).
//!
//! Contexts model distinct consolidated *processes*: their (synthetic)
//! virtual address ranges overlap but their physical pages do not, so
//! LLC keys are tagged with the owning context id. The LLC is shared
//! as a resource — capacity and bandwidth — not as a page cache;
//! context 0's keys are untagged, keeping single-context timing
//! bit-identical to a private memory system.

use std::cell::RefCell;
use std::rc::Rc;

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

/// The chip-level state shared by every context of a group: the
/// aggregate link server, the LLC array (lines tagged with the context
/// that installed them), and the data-miss RNG.
#[derive(Debug)]
struct ChipCore {
    /// Link occupancy per foreground message, background included.
    service_per_msg: f64,
    /// Cycle at which the aggregate link next frees up.
    queue_free: f64,
    /// One-way uncontended mesh traversal.
    one_way: u32,
    llc_latency: u32,
    memory_cycles: u32,
    llc_data_miss_rate: f64,
    /// LLC contents for instruction lines, keyed by [`llc_key`] and
    /// holding the installing context's id.
    llc: SetAssocMap<u8>,
    /// Deterministic generator for probabilistic data-side LLC misses.
    lcg: u64,
    /// Per-context count of resident lines evicted by a *different*
    /// context's install — the direct cross-context interference
    /// signal. Indexed by victim context id.
    evicted_by_other: Vec<u64>,
}

/// LLC key for `line` in `ctx`'s address space: distinct processes'
/// equal virtual lines must not alias. Synthetic line indices stay far
/// below 2^48, so the tag never collides with the index bits, and
/// context 0 (every single-context run) keys exactly by line index.
fn llc_key(ctx: u8, line: LineAddr) -> u64 {
    ((ctx as u64) << 48) | line.get()
}

impl ChipCore {
    fn new(cfg: &MachineConfig, contexts: usize) -> Self {
        let llc_lines = cfg.llc_total_kib() * 1024 / fe_model::LINE_BYTES;
        ChipCore {
            service_per_msg: (1.0 + cfg.noc.background_factor) / cfg.noc.link_bandwidth,
            queue_free: 0.0,
            one_way: cfg.noc_base_latency(),
            llc_latency: cfg.llc.latency,
            memory_cycles: cfg.memory_cycles(),
            llc_data_miss_rate: cfg.backend.llc_data_miss_rate,
            llc: SetAssocMap::new(llc_lines as usize, cfg.llc.ways as usize),
            lcg: fe_model::rng::SPLITMIX64_GOLDEN,
            evicted_by_other: vec![0; contexts],
        }
    }

    fn llc_round_trip(&self) -> u32 {
        2 * self.one_way + self.llc_latency
    }

    fn draw(&mut self) -> f64 {
        // SplitMix64 counter stream; plenty for a Bernoulli draw.
        fe_model::rng::splitmix64_unit(&mut self.lcg)
    }
}

/// Counters exposed for reports and tests. With a shared group, each
/// handle's stats cover only its own context's traffic.
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
    /// This context's resident LLC lines evicted by another context's
    /// install — zero in single-context groups.
    pub cross_evictions: u64,
}

/// Aggregate NoC + LLC + memory timing model — a per-context handle
/// onto chip state that may be shared with other contexts (see the
/// module docs). Deliberately not `Clone`: a copy of a handle would
/// alias the shared chip state, not copy it — create additional
/// contexts through [`MemorySystem::shared_group`] instead.
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
    core: Rc<RefCell<ChipCore>>,
    /// This handle's context id (the LLC owner tag it installs with).
    ctx: u8,
    stats: MemStats,
    /// `evicted_by_other[ctx]` at the last stats reset.
    evicted_base: u64,
}

impl MemorySystem {
    /// Builds a private memory path (a group of one context).
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut group = Self::shared_group(cfg, 1);
        group.pop().expect("group of one")
    }

    /// Builds `contexts` handles onto one shared LLC/NoC: handle `i`
    /// is context id `i`. All handles contend on the same link queue
    /// and LLC array.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero or exceeds 255.
    pub fn shared_group(cfg: &MachineConfig, contexts: usize) -> Vec<MemorySystem> {
        assert!(
            (1..=255).contains(&contexts),
            "shared group needs 1..=255 contexts"
        );
        let core = Rc::new(RefCell::new(ChipCore::new(cfg, contexts)));
        (0..contexts)
            .map(|i| MemorySystem {
                core: Rc::clone(&core),
                ctx: i as u8,
                stats: MemStats::default(),
                evicted_base: 0,
            })
            .collect()
    }

    /// This handle's context id within its group.
    pub fn context_id(&self) -> u8 {
        self.ctx
    }

    /// Uncontended LLC round trip (mesh + slice), the latency floor of
    /// any request.
    pub fn llc_round_trip(&self) -> u32 {
        self.core.borrow().llc_round_trip()
    }

    /// Requests an instruction line; returns the completion cycle.
    pub fn request_instr(&mut self, now: u64, line: LineAddr, class: MemClass) -> u64 {
        debug_assert!(matches!(
            class,
            MemClass::InstrDemand | MemClass::InstrPrefetch
        ));
        let core = &mut *self.core.borrow_mut();
        let issued = enqueue(core, &mut self.stats, now);
        let mut latency = core.llc_round_trip() as u64;
        let key = llc_key(self.ctx, line);
        if core.llc.get(key).is_none() {
            self.stats.instr_llc_misses += 1;
            latency += core.memory_cycles as u64;
            if let Some((_, owner)) = core.llc.insert(key, self.ctx) {
                if owner != self.ctx {
                    core.evicted_by_other[owner as usize] += 1;
                }
            }
        }
        issued + latency
    }

    /// Functional warming of the LLC: brings `line` (in this context's
    /// address space) resident and promotes its recency *without*
    /// queueing a NoC message, advancing the link clock, or counting
    /// request statistics — the sampled-simulation update-only path
    /// for the memory hierarchy. Cross-context evictions still count:
    /// capacity displacement is real whichever path installed the line.
    pub fn warm_instr(&mut self, line: LineAddr) {
        let core = &mut *self.core.borrow_mut();
        let key = llc_key(self.ctx, line);
        if core.llc.get(key).is_none() {
            if let Some((_, owner)) = core.llc.insert(key, self.ctx) {
                if owner != self.ctx {
                    core.evicted_by_other[owner as usize] += 1;
                }
            }
        }
    }

    /// Requests a data line fill; returns the completion cycle. Data
    /// addresses are abstracted: LLC hit/miss is drawn at the
    /// configured rate (the paper's data working sets are not part of
    /// the front-end study — only the *latency* of these fills under
    /// NoC load matters, Fig. 11).
    pub fn request_data(&mut self, now: u64) -> u64 {
        let core = &mut *self.core.borrow_mut();
        let issued = enqueue(core, &mut self.stats, now);
        let mut latency = core.llc_round_trip() as u64;
        if core.draw() < core.llc_data_miss_rate {
            self.stats.data_llc_misses += 1;
            latency += core.memory_cycles as u64;
        }
        issued + latency
    }

    /// Reads prefetcher metadata pinned in the LLC (Confluence/SHIFT);
    /// always an LLC hit, but subject to NoC queueing like any message.
    pub fn request_metadata(&mut self, now: u64) -> u64 {
        let core = &mut *self.core.borrow_mut();
        let issued = enqueue(core, &mut self.stats, now);
        issued + core.llc_round_trip() as u64
    }

    /// Counters accumulated since construction or the last reset —
    /// this context's traffic only.
    pub fn stats(&self) -> MemStats {
        MemStats {
            cross_evictions: self.core.borrow().evicted_by_other[self.ctx as usize]
                - self.evicted_base,
            ..self.stats
        }
    }

    /// Resets this handle's counters (e.g. at the end of warmup)
    /// without disturbing LLC contents, queue state, or other
    /// contexts' counters.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.evicted_base = self.core.borrow().evicted_by_other[self.ctx as usize];
    }

    /// Current queue backlog in cycles relative to `now` — how congested
    /// the mesh is.
    pub fn backlog(&self, now: u64) -> f64 {
        (self.core.borrow().queue_free - now as f64).max(0.0)
    }
}

fn enqueue(core: &mut ChipCore, stats: &mut MemStats, now: u64) -> u64 {
    stats.messages += 1;
    let start = core.queue_free.max(now as f64);
    let wait = (start - now as f64) as u64;
    stats.queue_wait += wait;
    core.queue_free = start + core.service_per_msg;
    start.round() as u64
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

    // ---- shared-group behavior ---------------------------------------

    #[test]
    fn address_spaces_are_private_in_the_shared_llc() {
        let cfg = MachineConfig::table3();
        let mut group = MemorySystem::shared_group(&cfg, 2);
        let line = LineAddr::containing(0x4000);
        // Context 0 pays the cold miss and is warm afterwards.
        let t0 = group[0].request_instr(0, line, MemClass::InstrDemand);
        assert_eq!(t0, 21 + 90);
        // Context 1's *same virtual line* is a different physical page:
        // it pays its own cold miss rather than aliasing context 0's.
        let t1 = group[1].request_instr(1000, line, MemClass::InstrDemand);
        assert_eq!(t1, 1000 + 21 + 90, "no cross-process aliasing");
        // Both copies now coexist; each context hits its own.
        assert_eq!(
            group[0].request_instr(5000, line, MemClass::InstrDemand),
            5000 + 21
        );
        assert_eq!(
            group[1].request_instr(6000, line, MemClass::InstrDemand),
            6000 + 21
        );
        assert_eq!(group[0].stats().instr_llc_misses, 1);
        assert_eq!(group[1].stats().instr_llc_misses, 1);
    }

    #[test]
    fn shared_link_queue_carries_cross_context_contention() {
        let cfg = MachineConfig::table3();
        let mut group = MemorySystem::shared_group(&cfg, 2);
        // Context 0 floods the link at cycle 0.
        for i in 0..64u64 {
            group[0].request_instr(0, LineAddr::from_index(i), MemClass::InstrPrefetch);
        }
        // Context 1's lone request at the same cycle waits behind it.
        group[1].request_instr(0, LineAddr::from_index(1000), MemClass::InstrDemand);
        assert!(
            group[1].stats().queue_wait > 0,
            "shared queue must delay the other context"
        );
        // A private system sees no such wait for a single request.
        let mut solo = MemorySystem::new(&cfg);
        solo.request_instr(0, LineAddr::from_index(1000), MemClass::InstrDemand);
        assert_eq!(solo.stats().queue_wait, 0);
    }

    #[test]
    fn cross_evictions_attributed_to_victim() {
        let mut cfg = MachineConfig::table3();
        cfg.llc.kib_per_core = 4; // tiny shared LLC: 1024 lines
        let mut group = MemorySystem::shared_group(&cfg, 2);
        // Context 0 installs a working set...
        for i in 0..1024u64 {
            group[0].request_instr(i * 1000, LineAddr::from_index(i), MemClass::InstrDemand);
        }
        // ...context 1 blows it away with disjoint lines.
        for i in 0..1024u64 {
            group[1].request_instr(
                2_000_000 + i * 1000,
                LineAddr::from_index(100_000 + i),
                MemClass::InstrDemand,
            );
        }
        assert!(
            group[0].stats().cross_evictions > 0,
            "victim context must observe cross-context evictions"
        );
        assert_eq!(
            group[1].stats().cross_evictions,
            0,
            "aggressor suffered none"
        );
        // Same-context evictions never count.
        let mut solo = MemorySystem::new(&cfg);
        for i in 0..4096u64 {
            solo.request_instr(i * 1000, LineAddr::from_index(i), MemClass::InstrDemand);
        }
        assert_eq!(solo.stats().cross_evictions, 0);
    }

    #[test]
    fn reset_isolates_per_context_counters() {
        let cfg = MachineConfig::table3();
        let mut group = MemorySystem::shared_group(&cfg, 2);
        group[0].request_instr(0, LineAddr::from_index(1), MemClass::InstrDemand);
        group[1].request_instr(0, LineAddr::from_index(2), MemClass::InstrDemand);
        group[0].reset_stats();
        assert_eq!(group[0].stats().messages, 0);
        assert_eq!(group[1].stats().messages, 1, "other context unaffected");
    }
}

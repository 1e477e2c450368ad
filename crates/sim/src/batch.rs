//! The run driver: one schedule for every cell, alone or batched.
//!
//! Every cell — a full-detail run (timed warmup, then measurement) or a
//! sampled one (initial functional warm, then fast-forward / warm /
//! timed-detail intervals) — advances through the same resumable
//! `Schedule` state machine. A lone cell runs it to completion over
//! its own private source; a batch advances a whole same-workload scheme
//! group through it in bounded turns over one decoded stream:
//!
//! ```text
//!            ┌────────────── SharedWindow ──────────────┐
//! trace ──▶  │ decode once ─▶ VecDeque<RetiredBlock>    │
//!            │        cursor 0 ─▶ cell 0 (no-prefetch)  │
//!            │        cursor 1 ─▶ cell 1 (boomerang)    │
//!            │        cursor 2 ─▶ cell 2 (shotgun)      │
//!            └──────────────────────────────────────────┘
//! ```
//!
//! * [`SharedWindow`] wraps one [`SourceKind`] decoder and buffers the
//!   blocks between the slowest and fastest cursor; each cell's
//!   pipeline pulls through its own [`SharedCursor`]
//!   ([`SourceKind::Shared`]), so every block is decoded exactly once
//!   for the whole group and the window is pruned as the trailing
//!   cursor advances. A lone cell has no window: it reads its private
//!   replayer or store directly, so their seekable skips still apply.
//! * `BatchSimulator` owns the cell array ([`Simulator`] pipelines in a
//!   contiguous `Vec`, each cell's hot per-pipeline state — TAGE fold
//!   scratch, BTB set-maps, fetch-fill scratch — allocated per cell and
//!   touched in round-robin order) and advances the cells in bounded
//!   retired-instruction rounds. Chunked rounds rather than strict
//!   cycle lockstep: a measured probe showed per-cycle interleaving
//!   thrashes every cell's predictor tables in and out of cache, while
//!   ~10⁶-instruction chunks keep each cell's tables hot *and* still
//!   bound the window.
//! * Each batched cell runs with the batch accelerations armed: the TAGE
//!   fold scratch (`Tage::enable_fold_scratch` in `fe-uarch`, O(1)
//!   folded-history maintenance instead of
//!   per-lookup folding — the single hottest loop in the simulator)
//!   and quiescent-span skipping
//!   (`Simulator::try_skip_quiet_span`, bulk-accounting stretches
//!   where every stage is provably inert). Both are bit-identical by
//!   construction and double-checked by `tests/batch_engine.rs`
//!   byte-for-byte against lone cells, which run with the accelerations
//!   off and are the reference.
//! * In sampled mode the *initial functional warm* is shared too: the
//!   first cell leads, walking the warm window once and feeding every
//!   follower's scheme the same retired blocks as riders; when the warm
//!   completes, deep copies of the leader's scheme-independent
//!   structures (L1-I, TAGE, retire RAS, memory image) are installed
//!   into each follower, which merely seeks its cursor past the warmed
//!   prefix. The structures depend only on the retired stream — never
//!   on the scheme riding above them, and no in-tree scheme's warm hook
//!   writes through the front-end context — so each follower lands in
//!   exactly the state its own warm would have produced.
//! * Cells whose conditional retirement streams are provably identical
//!   share the TAGE retire-side work: the first cell to reach each
//!   retirement computes the tables' evolution once and records the
//!   few entry writes it made; the rest verify the `(pc, taken,
//!   history)` key and replay the writes instead of re-deriving them
//!   (see [`TageShare`] and `setup_retire_share`). Any key mismatch
//!   permanently drops the cell back to local computation, so the
//!   share can only ever reproduce — never approximate — the lone-cell
//!   result.
//!
//! Statistics are per-cell exactly as for a lone cell: every cell keeps
//! its own pipeline, memory system, RNG stream, and stall accounting —
//! only the *decode* is shared. [`run_cells`](crate::run_cells) decides
//! which cells batch (see its docs for the grouping rule).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fe_model::{BlockSource, RetiredBlock, SimStats};
use fe_uarch::TageShare;

use crate::engine::{EngineScheme, Simulator};
use crate::runner::{CellStats, RunLength};
use crate::sampling::{SampledStats, SamplingSpec, RAMP_CAP};
use crate::snapshot::WarmSnapshot;
use crate::source::SourceKind;

/// Retired instructions each cell advances per round-robin turn. Large
/// enough that a cell's predictor tables stay cache-resident across
/// the turn, small enough that the shared window stays bounded (a
/// round of blocks is a few MB of `Copy` data). Swept empirically:
/// 50K/200K/1M/4M gave 6.3/6.8/7.4/7.1 MIPS on the default sweep —
/// the tables benefit from longer residency right up until the window
/// itself starts fighting for the same cache.
const ROUND_INSTRS: u64 = 1_000_000;
/// Cursor advances between window prunes.
const PRUNE_PERIOD: u32 = 8_192;

struct WindowInner<'p> {
    source: SourceKind<'p>,
    /// Decoded blocks between the trailing and leading cursor;
    /// `buf[0]` is stream index `base`.
    buf: VecDeque<RetiredBlock>,
    base: u64,
    /// Per-cursor absolute stream index (`u64::MAX` = released).
    pos: Vec<u64>,
    since_prune: u32,
}

impl WindowInner<'_> {
    fn next_for(&mut self, id: usize) -> Option<RetiredBlock> {
        let off = (self.pos[id] - self.base) as usize;
        debug_assert!(off <= self.buf.len(), "cursor ran ahead of the window");
        if off == self.buf.len() {
            // Leading cursor: decode one more block — the single decode
            // the whole batch shares.
            self.buf.push_back(self.source.next_block()?);
        }
        let rb = self.buf[off];
        self.pos[id] += 1;
        self.since_prune += 1;
        if self.since_prune >= PRUNE_PERIOD {
            self.prune();
        }
        Some(rb)
    }

    /// Bulk [`Self::next_for`]: appends up to `n` blocks to `out` under
    /// one window lock, returning how many were delivered (short only
    /// when the source runs dry). One offset computation, one cursor
    /// advance, and one prune check cover the whole run — the
    /// per-block overhead that dominates a pipeline's oracle refill
    /// when every block bounces through the shared window.
    fn next_n_for(&mut self, id: usize, n: usize, out: &mut VecDeque<RetiredBlock>) -> usize {
        let mut off = (self.pos[id] - self.base) as usize;
        debug_assert!(off <= self.buf.len(), "cursor ran ahead of the window");
        let mut taken = 0;
        while taken < n {
            if off == self.buf.len() {
                match self.source.next_block() {
                    Some(rb) => self.buf.push_back(rb),
                    None => break,
                }
            }
            out.push_back(self.buf[off]);
            off += 1;
            taken += 1;
        }
        self.pos[id] += taken as u64;
        self.since_prune += taken as u32;
        if self.since_prune >= PRUNE_PERIOD {
            self.prune();
        }
        taken
    }

    fn skip_for(&mut self, id: usize, min_instrs: u64) -> u64 {
        // Same contract as `BlockSource::skip_instrs`: whole blocks
        // until at least `min_instrs`, so a shared cursor lands on the
        // exact stream position a private replayer would. (The blocks
        // are decoded for the window — a later cursor may need them —
        // so decode-skip does not apply here.)
        let mut skipped = 0;
        while skipped < min_instrs {
            match self.next_for(id) {
                Some(rb) => skipped += rb.instr_count(),
                None => break,
            }
        }
        skipped
    }

    fn prune(&mut self) {
        self.since_prune = 0;
        let min = self.pos.iter().copied().min().unwrap_or(self.base);
        while self.base < min && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base += 1;
        }
    }
}

/// One decoder fanned out to N readers; see the module docs.
pub struct SharedWindow<'p> {
    inner: Rc<RefCell<WindowInner<'p>>>,
}

impl<'p> SharedWindow<'p> {
    /// Wraps `source` for shared consumption.
    pub fn new(source: impl Into<SourceKind<'p>>) -> Self {
        SharedWindow {
            inner: Rc::new(RefCell::new(WindowInner {
                source: source.into(),
                buf: VecDeque::with_capacity(1024),
                base: 0,
                pos: Vec::new(),
                since_prune: 0,
            })),
        }
    }

    /// Registers a new reader at the start of the stream.
    ///
    /// # Panics
    ///
    /// Panics if the window has already been pruned past the stream
    /// start — create every cursor before any of them reads.
    pub fn cursor(&self) -> SharedCursor<'p> {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            inner.base, 0,
            "shared cursors must be created before consumption starts"
        );
        inner.pos.push(0);
        SharedCursor {
            inner: Rc::clone(&self.inner),
            id: inner.pos.len() - 1,
        }
    }
}

/// One reader of a [`SharedWindow`] — a [`BlockSource`]-shaped handle
/// that rides into the pipeline as [`SourceKind::Shared`].
///
/// [`BlockSource`]: fe_model::BlockSource
pub struct SharedCursor<'p> {
    inner: Rc<RefCell<WindowInner<'p>>>,
    id: usize,
}

impl SharedCursor<'_> {
    /// The next block at this cursor's stream position.
    #[inline]
    pub fn next_block(&mut self) -> Option<RetiredBlock> {
        self.inner.borrow_mut().next_for(self.id)
    }

    /// Fast-forwards this cursor; same contract as
    /// [`BlockSource::skip_instrs`].
    pub fn skip_instrs(&mut self, min_instrs: u64) -> u64 {
        self.inner.borrow_mut().skip_for(self.id, min_instrs)
    }

    /// Appends up to `n` blocks to `out` under one window lock; short
    /// only when the stream ends (see `WindowInner::next_n_for`).
    pub fn next_blocks_into(&mut self, n: usize, out: &mut VecDeque<RetiredBlock>) -> usize {
        self.inner.borrow_mut().next_n_for(self.id, n, out)
    }

    /// Marks this reader finished so the window no longer retains
    /// blocks for it.
    pub(crate) fn release(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.pos[self.id] = u64::MAX;
        inner.prune();
    }
}

/// Where one cell is in its run.
enum Phase {
    /// Full detail: timed warmup before measurement starts.
    Warmup,
    /// Full detail: measuring until `retired_total` reaches `end`.
    Measure {
        end: u64,
    },
    /// Sampled: initial functional warm, `remaining` instructions to
    /// go. Chunked against the running remainder, which lands on the
    /// same block boundary as one whole-length warm.
    InitWarm {
        remaining: u64,
    },
    /// Sampled: the interval loop, one whole interval per step.
    Intervals {
        end: u64,
    },
    Done,
}

/// One cell's run schedule — warmup → measure in full detail, or
/// initial functional warm → intervals when sampled — as a resumable
/// state machine over the cell's [`Simulator`]. The only driver of
/// either run shape: batches advance it in bounded turns, lone cells
/// and [`Simulator::run`] run it to completion.
pub(crate) struct Schedule {
    len: RunLength,
    sampling: Option<SamplingSpec>,
    phase: Phase,
    /// The full-detail result, once measurement ends.
    stats: Option<SimStats>,
    /// The sampled result: every measured interval so far.
    intervals: Vec<SimStats>,
}

impl Schedule {
    /// A fresh schedule: full detail, or sampled per `sampling`.
    pub(crate) fn new(len: RunLength, sampling: Option<SamplingSpec>) -> Self {
        Schedule {
            len,
            sampling,
            phase: match sampling {
                Some(_) => Phase::InitWarm {
                    remaining: len.warmup,
                },
                None => Phase::Warmup,
            },
            stats: None,
            intervals: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Advances until `sim` has retired `target` instructions (or the
    /// run finished).
    pub(crate) fn advance(&mut self, sim: &mut Simulator<'_>, target: u64) {
        while !self.done() && sim.state.retired_total < target {
            self.step(sim, target);
        }
    }

    /// Runs a sampled cell's initial functional warm to completion.
    pub(crate) fn warm(&mut self, sim: &mut Simulator<'_>) {
        while matches!(self.phase, Phase::InitWarm { .. }) {
            self.step(sim, u64::MAX);
        }
    }

    /// Replaces a sampled cell's initial functional warm with a
    /// restored snapshot (see the [`snapshot`](crate::snapshot) module).
    pub(crate) fn restore(&mut self, sim: &mut Simulator<'_>, snap: &WarmSnapshot) {
        sim.restore_warm(snap);
        self.start_intervals(sim);
    }

    /// One unit of work: timed steps up to the phase's end (or
    /// `target`), a warm chunk, or a whole sampled interval.
    fn step(&mut self, sim: &mut Simulator<'_>, target: u64) {
        match self.phase {
            Phase::Warmup => {
                sim.step_until(self.len.warmup.min(target));
                if sim.state.retired_total >= self.len.warmup || sim.state.stream_ended() {
                    sim.begin_measurement();
                    // Measure relative to the actual measurement start
                    // (warmup may overshoot by a partial retire-width).
                    self.phase = Phase::Measure {
                        end: sim.state.retired_total + self.len.measure,
                    };
                }
            }
            Phase::Measure { end } => {
                sim.step_until(end.min(target));
                if sim.state.retired_total >= end || sim.state.stream_ended() {
                    self.stats = Some(sim.finalize());
                    self.finish(sim);
                }
            }
            Phase::InitWarm { remaining } => {
                if remaining == 0 || sim.state.stream_ended() {
                    self.start_intervals(sim);
                } else {
                    // Chunked against the running remainder: each chunk
                    // stops at the first block boundary at or past its
                    // sub-target, so the final boundary is the first one
                    // at or past the whole warmup — exactly where one
                    // unchunked warm would stop. `warmed < chunk` only
                    // happens when the source ran dry, which makes
                    // `stream_ended()` true and transitions next step.
                    let warmed = sim.warm_functional(remaining.min(ROUND_INSTRS));
                    self.phase = Phase::InitWarm {
                        remaining: remaining.saturating_sub(warmed),
                    };
                }
            }
            Phase::Intervals { end } => {
                if sim.state.retired_total >= end || sim.state.stream_ended() {
                    self.finish(sim);
                } else {
                    self.step_interval(sim, end);
                }
            }
            Phase::Done => {}
        }
    }

    fn start_intervals(&mut self, sim: &Simulator<'_>) {
        self.phase = Phase::Intervals {
            end: sim.state.retired_total.saturating_add(self.len.measure),
        };
    }

    /// One sampled interval: a tail warm, or skip + functional warm +
    /// timed detail window.
    fn step_interval(&mut self, sim: &mut Simulator<'_>, end: u64) {
        let spec = self
            .sampling
            .expect("interval phase is only entered by sampled schedules");
        let budget = (end - sim.state.retired_total).min(spec.interval);
        if budget < spec.detail {
            // Tail shorter than a detail window: cover it functionally.
            // A sub-length measured window would enter the per-interval
            // statistics at full weight and skew the mean and
            // confidence interval.
            sim.warm_functional(budget);
            return;
        }
        let detail = spec.detail;
        let fwarm = spec.warmup.min(budget - detail);
        let skip = budget - detail - fwarm;
        sim.skip_functional(skip);
        sim.warm_functional(fwarm);
        if sim.state.stream_ended() || !sim.begin_interval() {
            self.finish(sim);
            return;
        }
        // Unmeasured ramp: refill the FTQ/supply so the measured window
        // does not charge artificial cold-pipeline stalls.
        let ramp = (detail / 16).min(RAMP_CAP);
        sim.step_until(sim.state.retired_total + ramp);
        sim.begin_measurement();
        sim.step_until(sim.state.retired_total + (detail - ramp));
        let stats = sim.finalize();
        if stats.instructions > 0 {
            self.intervals.push(stats);
        }
    }

    fn finish(&mut self, sim: &mut Simulator<'_>) {
        self.phase = Phase::Done;
        sim.release_tage_share();
        sim.state.source.release();
    }

    /// The finished cell's statistics.
    pub(crate) fn into_stats(self) -> CellStats {
        match self.sampling {
            None => CellStats {
                stats: self.stats.expect("a driven cell finishes its measurement"),
                sampled: None,
            },
            Some(_) => {
                let sampled = SampledStats {
                    intervals: self.intervals,
                };
                CellStats {
                    stats: sampled.aggregate(),
                    sampled: Some(sampled),
                }
            }
        }
    }
}

struct BatchCell<'p> {
    sim: Simulator<'p>,
    schedule: Schedule,
    label: String,
}

/// Cells driven together in round-robin turns; see the module docs. A
/// lone cell is a group of one.
#[derive(Default)]
pub(crate) struct BatchSimulator<'p> {
    cells: Vec<BatchCell<'p>>,
}

impl<'p> BatchSimulator<'p> {
    /// Adds one cell. Every cell of a group runs the same run length
    /// and mode.
    pub(crate) fn add_cell(&mut self, sim: Simulator<'p>, schedule: Schedule, label: String) {
        self.cells.push(BatchCell {
            sim,
            schedule,
            label,
        });
    }

    /// Wires a TAGE retire-share through every cell whose conditional
    /// retirement stream is provably identical to the others', so one
    /// cell computes each table update and the rest replay the recorded
    /// writes (see [`TageShare`]). Real schemes all discover direction
    /// mispredicts at retirement and flush, so their surviving
    /// prediction-time history snapshots equal the retired history —
    /// the share key `(pc, taken, hist)` is then a pure function of the
    /// shared stream. `Ideal` cells stay out: they keep mispredicted
    /// bits in their speculative history (no flush), so their keys
    /// diverge from the group's.
    fn setup_retire_share(&mut self) {
        let members: Vec<&mut BatchCell<'p>> = self
            .cells
            .iter_mut()
            .filter(|c| !c.sim.state.is_ideal())
            .collect();
        if members.len() < 2 {
            return;
        }
        let share = TageShare::new();
        for cell in members {
            cell.sim.attach_tage_share(share.cursor());
        }
    }

    /// One bounded chunk of the group's shared initial warm (see the
    /// module docs). The leader pulls and warms the blocks with every
    /// follower's scheme riding along; the followers then seek their
    /// cursors past the same blocks. On completion the leader's warmed
    /// structures are installed into each follower and the whole group
    /// enters the interval loop. Returns `true` while warming still has
    /// work left.
    fn shared_warm_round(&mut self) -> bool {
        let Some((leader, followers)) = self.cells.split_first_mut() else {
            return false;
        };
        let Phase::InitWarm { remaining } = leader.schedule.phase else {
            return false;
        };
        if remaining > 0 && !leader.sim.state.stream_ended() {
            let chunk = remaining.min(ROUND_INSTRS);
            let mut riders: Vec<EngineScheme> = followers
                .iter_mut()
                .map(|c| std::mem::replace(&mut c.sim.state.scheme, EngineScheme::Ideal))
                .collect();
            let warmed = leader.sim.warm_functional_with(chunk, &mut riders);
            // A leader in a retire-share group recorded its warm
            // retirements through its cursor; pull the followers' past
            // them each round so the share log prunes instead of
            // buffering the whole warm. (The followers never consume
            // warm deltas — the leader's warmed structures are
            // installed wholesale at the end.)
            let seq = leader.sim.tage_share_seq();
            for (cell, scheme) in followers.iter_mut().zip(riders) {
                cell.sim.state.scheme = scheme;
                // Identical streams: the follower's skip lands on the
                // exact block boundary the leader's warm stopped at.
                cell.sim.skip_functional(warmed);
                if let Some(seq) = seq {
                    cell.sim.sync_tage_share(seq);
                }
            }
            let left = remaining.saturating_sub(warmed);
            for cell in &mut self.cells {
                cell.schedule.phase = Phase::InitWarm { remaining: left };
            }
            true
        } else {
            let structures = leader.sim.capture_warm_structures();
            let dry = leader.sim.state.source_dry;
            let seq = leader.sim.tage_share_seq();
            for cell in followers {
                cell.sim.install_warm_structures(&structures);
                cell.sim.state.source_dry = dry;
                // The installed TAGE already reflects the leader's warm
                // retirements: reposition the follower's share cursor.
                if let Some(seq) = seq {
                    cell.sim.sync_tage_share(seq);
                }
            }
            for cell in &mut self.cells {
                cell.schedule.start_intervals(&cell.sim);
            }
            false
        }
    }

    /// Runs every cell to completion, advancing all of them to the same
    /// retired-instruction quota each round so no cursor runs more than
    /// one round (plus pipeline lookahead) ahead of the slowest.
    /// Statistics come back in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `source` (named in the message) ran dry before a cell
    /// completed: a cell measured over a partial stream would be
    /// silently wrong.
    pub(crate) fn run(mut self, source: &str) -> Vec<CellStats> {
        if self.cells.len() >= 2 {
            self.setup_retire_share();
            while self.shared_warm_round() {}
        }
        let mut quota = 0u64;
        while self.cells.iter().any(|c| !c.schedule.done()) {
            quota = quota.saturating_add(ROUND_INSTRS);
            for cell in &mut self.cells {
                cell.schedule.advance(&mut cell.sim, quota);
            }
        }
        self.cells
            .into_iter()
            .map(|c| {
                assert!(
                    !c.sim.source_exhausted(),
                    "{source} ran dry mid-run of `{}` — record at least \
                     RunLength::trace_instrs instructions",
                    c.label,
                );
                c.schedule.into_stats()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_cells, CellRun, CellSource, SchemeSpec};
    use fe_cfg::workloads;
    use fe_model::MachineConfig;
    use fe_trace::Trace;

    const SEED: u64 = 0x5407;

    #[test]
    fn shared_cursors_each_see_the_whole_stream() {
        let program = workloads::nutch().scaled(0.05).build();
        let trace = Trace::record(&program, SEED, 20_000);
        let window = SharedWindow::new(trace.replayer());
        let mut a = window.cursor();
        let mut b = window.cursor();
        let mut reference = trace.replayer();
        // Interleave unevenly: `a` sprints ahead, `b` trails, and the
        // window must keep `b`'s blocks buffered until it catches up.
        let mut a_blocks = Vec::new();
        let mut b_blocks = Vec::new();
        loop {
            let mut progressed = false;
            for _ in 0..7 {
                if let Some(rb) = a.next_block() {
                    a_blocks.push(rb);
                    progressed = true;
                }
            }
            if let Some(rb) = b.next_block() {
                b_blocks.push(rb);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        while let Some(rb) = b.next_block() {
            b_blocks.push(rb);
        }
        let mut expected = Vec::new();
        while let Some(rb) = reference.next_block() {
            expected.push(rb);
        }
        assert_eq!(a_blocks, expected);
        assert_eq!(b_blocks, expected);
    }

    #[test]
    fn shared_skip_matches_private_replayer() {
        let program = workloads::apache().scaled(0.05).build();
        let trace = Trace::record(&program, SEED, 20_000);
        let window = SharedWindow::new(trace.replayer());
        let mut shared = window.cursor();
        let mut private = trace.replayer();
        assert_eq!(shared.skip_instrs(1_234), private.skip_instrs(1_234));
        assert_eq!(shared.next_block(), private.next_block());
        assert_eq!(shared.skip_instrs(5_000), private.skip_instrs(5_000));
        assert_eq!(shared.next_block(), private.next_block());
    }

    #[test]
    fn batch_full_detail_matches_serial_cells() {
        let program = workloads::zeus().scaled(0.2).build();
        let len = RunLength {
            warmup: 30_000,
            measure: 80_000,
        };
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, SEED, len.trace_instrs(&machine));
        let source = CellSource::Trace(&trace);
        let specs = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ];
        let run = CellRun::full(len);
        let batch = run_cells(&program, source, &specs, &machine, run, SEED);
        for (spec, got) in specs.iter().zip(&batch) {
            let lone = run_cells(
                &program,
                source,
                std::slice::from_ref(spec),
                &machine,
                run,
                SEED,
            );
            assert_eq!(
                got,
                &lone[0],
                "batch diverged from a lone cell for {}",
                spec.label()
            );
        }
    }

    #[test]
    fn batch_sampled_matches_serial_cells() {
        let program = workloads::streaming().scaled(0.2).build();
        let len = RunLength {
            warmup: 20_000,
            measure: 200_000,
        };
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, SEED, len.trace_instrs(&machine));
        let source = CellSource::Trace(&trace);
        let run = CellRun::sampled(
            len,
            SamplingSpec {
                interval: 40_000,
                detail: 8_000,
                warmup: 10_000,
            },
        );
        // One cell per scheme family: every follower kind rides the
        // shared initial warm, and the Ideal cell exercises the
        // scheme-less rider slot.
        let schemes = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::Confluence,
            SchemeSpec::shotgun(),
            SchemeSpec::Ideal,
        ];
        let batch = run_cells(&program, source, &schemes, &machine, run, SEED);
        for (scheme, got) in schemes.iter().zip(&batch) {
            let lone = run_cells(
                &program,
                source,
                std::slice::from_ref(scheme),
                &machine,
                run,
                SEED,
            );
            assert_eq!(
                got,
                &lone[0],
                "sampled batch diverged from a lone cell for {}",
                scheme.label()
            );
        }
    }

    #[test]
    #[should_panic(expected = "ran dry mid-run")]
    fn truncated_trace_panics_like_serial() {
        let program = workloads::nutch().scaled(0.05).build();
        let len = RunLength {
            warmup: 20_000,
            measure: 1_000_000,
        };
        let trace = Trace::record(&program, SEED, 50_000);
        let machine = MachineConfig::table3();
        let specs = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
        run_cells(
            &program,
            CellSource::Trace(&trace),
            &specs,
            &machine,
            CellRun::full(len),
            SEED,
        );
    }
}

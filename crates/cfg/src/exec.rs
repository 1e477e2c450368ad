//! The dynamic execution engine: an infinite, deterministic random walk
//! over a [`Program`].
//!
//! [`Executor`] is the oracle of actual control flow the timing
//! simulator retires against. It models a server core grinding through
//! transactions: each pass around the dispatcher loop draws a
//! Zipf-popular request type, walks the handler's call tree (conditional
//! outcomes drawn per branch bias, loops with geometric trip counts,
//! traps into kernel routines), and returns to the dispatcher.
//!
//! The walk is *semantically closed*: every control transfer follows a
//! real edge of the synthesized program, so the retired stream is
//! exactly what a real core executing this binary would retire — the
//! property that makes BTB/predecoder/footprint modeling faithful.

use fe_model::{Addr, BlockSource, RetiredBlock};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::program::{Behavior, BlockId, Program};
use crate::zipf::sample_geometric;

/// Maximum loop trips per visit, bounding tail latency of a region.
const MAX_TRIPS: u32 = 64;

/// Deterministic, infinite retired-block stream over a program.
///
/// ```
/// use fe_cfg::{workloads, Executor};
/// let program = workloads::nutch().scaled(0.05).build();
/// let blocks: Vec<_> = Executor::new(&program, 1).take(100).collect();
/// assert_eq!(blocks.len(), 100);
/// // Determinism: the same seed yields the same stream.
/// let again: Vec<_> = Executor::new(&program, 1).take(100).collect();
/// assert_eq!(blocks, again);
/// ```
#[derive(Clone, Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    rng: SmallRng,
    /// Current block (next to retire).
    cur: BlockId,
    /// Call stack of fall-through block ids to return to.
    stack: Vec<BlockId>,
    /// Remaining trips before each loop back-edge falls through;
    /// 0 = limit not yet drawn for the current visit.
    loop_limit: Vec<u16>,
    loop_count: Vec<u16>,
    /// Entry block of the dispatcher (transaction boundary).
    entry_block: BlockId,
    /// Handler selected for the current transaction.
    handler: u32,
    transactions: u64,
    instructions: u64,
}

impl<'p> Executor<'p> {
    /// Creates an executor starting at the program entry.
    pub fn new(program: &'p Program, seed: u64) -> Self {
        let entry_block = program
            .block_id_at(program.entry())
            .expect("program entry must be a block");
        let mut rng = SmallRng::seed_from_u64(seed);
        let handler = program.handler_table().sample(&mut rng) as u32;
        Executor {
            program,
            rng,
            cur: entry_block,
            stack: Vec::with_capacity(32),
            loop_limit: vec![0; program.block_count()],
            loop_count: vec![0; program.block_count()],
            entry_block,
            handler,
            transactions: 0,
            instructions: 0,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Completed dispatcher round trips (requests served).
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Current call-stack depth (dispatcher level = 0).
    pub fn call_depth(&self) -> usize {
        self.stack.len()
    }

    /// Retires the next basic block and advances the walk.
    pub fn next_block(&mut self) -> RetiredBlock {
        use fe_model::BranchKind::*;

        let id = self.cur;
        let block = *self.program.block(id);
        let (taken, next_id) = match block.kind {
            Conditional => {
                let taken = self.conditional_outcome(id);
                let next = if taken {
                    self.program.target_id(id)
                } else {
                    self.program.fall_through_id(id)
                };
                (taken, next)
            }
            Jump => (true, self.program.target_id(id)),
            Call | Trap => {
                self.stack.push(self.program.fall_through_id(id));
                (true, self.program.target_id(id))
            }
            Return | TrapReturn => {
                let ret = self
                    .stack
                    .pop()
                    .expect("return executed with an empty call stack: broken program");
                (true, ret)
            }
        };

        let next_pc = self.program.block(next_id).start;
        self.cur = next_id;
        self.instructions += block.instr_count as u64;
        if next_id == self.entry_block {
            // Back at the top of the dispatch loop: new transaction.
            self.transactions += 1;
            self.handler = self.program.handler_table().sample(&mut self.rng) as u32;
        }
        RetiredBlock {
            block,
            taken,
            next_pc,
        }
    }

    /// The RAS-style return target for the most recent call, used by
    /// tests validating return semantics.
    pub fn pending_return(&self) -> Option<Addr> {
        self.stack.last().map(|&id| self.program.block(id).start)
    }

    fn conditional_outcome(&mut self, id: BlockId) -> bool {
        match self.program.behavior(id) {
            Behavior::Biased { taken } => self.rng.gen::<f32>() < taken,
            Behavior::Loop { mean_trips, fixed } => {
                let idx = id as usize;
                if self.loop_limit[idx] == 0 {
                    self.loop_limit[idx] = if fixed {
                        (mean_trips.round() as u16).clamp(1, MAX_TRIPS as u16)
                    } else {
                        sample_geometric(&mut self.rng, mean_trips as f64, MAX_TRIPS) as u16
                    };
                }
                self.loop_count[idx] += 1;
                if self.loop_count[idx] < self.loop_limit[idx] {
                    true
                } else {
                    self.loop_count[idx] = 0;
                    self.loop_limit[idx] = 0;
                    false
                }
            }
            Behavior::Dispatch { handler } => handler == self.handler,
            Behavior::Pattern {
                period,
                taken_count,
            } => {
                let idx = id as usize;
                let phase = self.loop_count[idx] % period as u16;
                self.loop_count[idx] = (phase + 1) % period as u16;
                phase < taken_count as u16
            }
            Behavior::Uncond => unreachable!("conditional block with Uncond behavior"),
        }
    }
}

impl Iterator for Executor<'_> {
    type Item = RetiredBlock;

    /// Never returns `None`: server loops run forever.
    fn next(&mut self) -> Option<RetiredBlock> {
        Some(self.next_block())
    }
}

impl BlockSource for Executor<'_> {
    /// Live execution: advance the random walk one block. The walk is
    /// infinite, so this never returns `None`.
    fn next_block(&mut self) -> Option<RetiredBlock> {
        Some(Executor::next_block(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, WorkloadSpec};
    use fe_model::BranchKind;
    use std::collections::BTreeSet;

    fn test_program() -> Program {
        WorkloadSpec {
            name: "exectest".into(),
            seed: 99,
            layers: vec![
                LayerSpec::grouped(4, 4.0),
                LayerSpec::grouped(16, 2.0),
                LayerSpec::shared(24, 0.5),
            ],
            kernel_entries: 4,
            kernel_helpers: 8,
            ..WorkloadSpec::default()
        }
        .build()
    }

    #[test]
    fn stream_is_semantically_consistent() {
        let p = test_program();
        let mut exec = Executor::new(&p, 3);
        let mut prev_next = p.entry();
        for _ in 0..200_000 {
            let r = exec.next_block();
            assert_eq!(r.block.start, prev_next, "stream must be contiguous");
            if !r.taken {
                assert_eq!(r.next_pc, r.block.fall_through());
            } else if r.block.kind.has_btb_target() {
                assert_eq!(r.next_pc, r.block.target);
            }
            assert!(r.taken || !r.block.kind.is_unconditional());
            prev_next = r.next_pc;
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let p = test_program();
        let mut exec = Executor::new(&p, 17);
        let mut depth = 0i64;
        let mut max_depth = 0i64;
        for _ in 0..500_000 {
            let r = exec.next_block();
            match r.block.kind {
                BranchKind::Call | BranchKind::Trap => depth += 1,
                BranchKind::Return | BranchKind::TrapReturn => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "more returns than calls");
            max_depth = max_depth.max(depth);
        }
        assert!(
            max_depth >= 3,
            "call tree should have depth, saw {max_depth}"
        );
        assert!(
            max_depth <= 16,
            "DAG layering bounds depth, saw {max_depth}"
        );
    }

    #[test]
    fn return_targets_match_call_fall_through() {
        let p = test_program();
        let mut exec = Executor::new(&p, 7);
        let mut shadow: Vec<Addr> = Vec::new();
        for _ in 0..300_000 {
            let r = exec.next_block();
            match r.block.kind {
                BranchKind::Call | BranchKind::Trap => shadow.push(r.block.fall_through()),
                BranchKind::Return | BranchKind::TrapReturn => {
                    let expect = shadow.pop().expect("shadow stack unbalanced");
                    assert_eq!(
                        r.next_pc, expect,
                        "return must target the call fall-through"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn transactions_progress_and_vary() {
        let p = test_program();
        let mut exec = Executor::new(&p, 21);
        let mut handlers_seen = BTreeSet::new();
        for _ in 0..400_000 {
            let r = exec.next_block();
            // Record which handler call-blocks fire in the dispatcher.
            if r.block.kind == BranchKind::Call
                && p.function_of(p.block_id_at(r.block.start).expect(
                    "retired block start must be a block boundary: every block the \
                         executor yields comes from the program's own layout",
                ))
                .kind
                    == crate::program::FunctionKind::Dispatcher
            {
                handlers_seen.insert(r.next_pc);
            }
        }
        assert!(
            exec.transactions() > 10,
            "transactions: {}",
            exec.transactions()
        );
        assert!(
            handlers_seen.len() >= 2,
            "popularity draw must vary handlers"
        );
    }

    #[test]
    fn determinism_across_instances() {
        let p = test_program();
        let a: Vec<_> = Executor::new(&p, 5).take(50_000).collect();
        let b: Vec<_> = Executor::new(&p, 5).take(50_000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = Executor::new(&p, 6).take(50_000).collect();
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn loops_iterate_but_terminate() {
        let p = test_program();
        let mut exec = Executor::new(&p, 13);
        // Find a loop back-edge and check it is taken multiple times in
        // a row but eventually falls through.
        let mut consecutive: std::collections::BTreeMap<BlockId, (u32, u32)> = Default::default();
        for _ in 0..500_000 {
            let r = exec.next_block();
            let id = p.block_id_at(r.block.start).expect(
                "retired block start must be a block boundary: the executor only \
                 retires blocks taken from the program's own layout",
            );
            if let Behavior::Loop { .. } = p.behavior(id) {
                let entry = consecutive.entry(id).or_insert((0, 0));
                if r.taken {
                    entry.0 += 1;
                    assert!(entry.0 < 2 * MAX_TRIPS, "loop failed to terminate");
                } else {
                    entry.1 += 1;
                    entry.0 = 0;
                }
            }
        }
        assert!(
            consecutive.values().any(|&(_, exits)| exits > 0),
            "at least one loop must have exited",
        );
    }

    #[test]
    fn instruction_counting() {
        let p = test_program();
        let mut exec = Executor::new(&p, 2);
        let mut total = 0u64;
        for _ in 0..10_000 {
            total += exec.next_block().instr_count();
        }
        assert_eq!(exec.instructions(), total);
    }
}

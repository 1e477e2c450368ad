#![forbid(unsafe_code)]
//! # fe-cfg — synthetic server-workload substrate
//!
//! The paper evaluates Shotgun on commercial server stacks (Oracle, DB2,
//! Apache, Zeus, Nutch, Darwin Streaming) traced under the Flexus
//! full-system simulator. Neither the binaries nor the traces are
//! available, so this crate builds the closest synthetic equivalent: a
//! statistical program synthesizer plus a deterministic random-walk
//! executor that together reproduce the *code properties* the paper's
//! mechanisms depend on:
//!
//! * deep, layered call trees over thousands of small functions
//!   (request handlers → modules → shared libraries → leaf utilities,
//!   plus kernel trap routines), so instruction footprints reach
//!   multiple MBs and branch working sets dwarf a 2K-entry BTB
//!   (Table 1, Fig. 4);
//! * high spatial locality inside code regions delimited by
//!   unconditional branches (Fig. 3), because functions are contiguous
//!   runs of small basic blocks with short-offset conditionals;
//! * strong temporal recurrence across requests (a dispatcher loop with
//!   Zipf-popular request types), which both temporal-streaming and
//!   BTB-directed prefetchers require to learn anything.
//!
//! The three layers of the API:
//!
//! 1. [`WorkloadSpec`] — the knobs; [`workloads`] has the six named
//!    presets standing in for Table 2.
//! 2. [`Program`] — the static artifact: basic blocks, functions, and
//!    the queries hardware-like components need (exact-match block
//!    lookup for BTBs, branches-in-line for predecoders).
//! 3. [`Executor`] — an infinite, seeded iterator of
//!    [`fe_model::RetiredBlock`]s: the dynamic control-flow oracle the
//!    timing simulator consumes.
//!
//! ```
//! use fe_cfg::{workloads, Executor};
//!
//! let program = workloads::nutch().scaled(0.1).build();
//! let mut exec = Executor::new(&program, 42);
//! let first = exec.next_block();
//! assert_eq!(first.block.start, program.entry());
//! ```

pub mod analytics;
pub mod exec;
pub mod program;
pub mod spec;
pub mod synth;
pub mod workloads;
mod zipf;

pub use exec::Executor;
pub use program::{Behavior, BlockId, Function, FunctionKind, Program};
pub use spec::{LayerSpec, WorkloadSpec};
pub use zipf::ZipfTable;

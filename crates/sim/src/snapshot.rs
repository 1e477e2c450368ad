//! Warmed-uarch-state snapshots: skip functional warming on repeated
//! sampled runs.
//!
//! A sampled cell (see [`sampling`](crate::sampling)) starts by
//! functionally warming `len.warmup` instructions — draining the
//! retired stream through the update-only paths of the L1-I, the LLC,
//! TAGE, the retire RAS, and the scheme's own structures. Warming is
//! deterministic, so for a fixed (workload fingerprint, seed, machine,
//! scheme, warmup length) the post-warmup state is always the same —
//! and a long-running service that sweeps the same workloads
//! repeatedly (parameter studies share every non-swept cell input) can
//! capture that state once and restore it on every subsequent run.
//!
//! A [`WarmSnapshot`] is a deep copy of exactly the structures the
//! warm path touches, plus the stream position it stopped at. Restoring
//! installs the copies into a fresh simulator and seeks the replayer to
//! the same position (a cheap decode-skip), after which the measured
//! intervals proceed **bit-identically** to a run that warmed
//! functionally — snapshots are an exactness-preserving cache, not an
//! approximation. The [`SnapshotStore`] holds them in memory for the
//! lifetime of the process (a daemon's working set), bounded by a
//! capacity; full-detail runs never use snapshots (their warmup runs
//! through the timed pipeline, which is the measurement, not a
//! warm-up).
//!
//! Schemes ride along as clones of their concrete state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fe_model::MachineConfig;
use fe_trace::ProgramFingerprint;
use fe_uarch::{FastMap, LineCache, MemSnapshot, ReturnAddressStack, Tage};

use crate::cache::{config_hash, machine_to_json, ENGINE_VERSION};
use crate::engine::{EngineScheme, Simulator};
use crate::experiment::scheme_to_json;
use crate::json::Json;
use crate::runner::SchemeSpec;

/// Identifies one warmed state: everything that determines the
/// post-warmup microarchitectural contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SnapshotKey {
    /// [`ENGINE_VERSION`] at capture time — a warm-path change must
    /// invalidate snapshots just like it invalidates cached cells.
    pub engine_version: u32,
    /// Fingerprint of the workload program / recorded trace.
    pub fingerprint: ProgramFingerprint,
    /// Hash over (machine, scheme, seed, warmup instructions).
    pub config_hash: u64,
}

impl SnapshotKey {
    /// Key of the warmed state a sampled run of `scheme` reaches after
    /// `warmup` instructions.
    pub fn for_run(
        fingerprint: ProgramFingerprint,
        machine: &MachineConfig,
        scheme: &SchemeSpec,
        seed: u64,
        warmup: u64,
    ) -> SnapshotKey {
        let doc = Json::Obj(vec![
            ("machine".into(), machine_to_json(machine)),
            ("scheme".into(), scheme_to_json(scheme)),
            ("seed".into(), Json::U64(seed)),
            ("warmup".into(), Json::U64(warmup)),
        ]);
        SnapshotKey {
            engine_version: ENGINE_VERSION,
            fingerprint,
            config_hash: config_hash(&doc),
        }
    }
}

/// Deep copy of every structure the functional warm path mutates — the
/// L1-I, TAGE, retire RAS, memory image and scheme — plus the stream
/// position warming stopped at. See the module docs for the exactness
/// argument.
pub struct WarmSnapshot {
    l1i: LineCache,
    tage: Tage,
    retire_ras: ReturnAddressStack,
    mem: MemSnapshot,
    scheme: EngineScheme,
    /// Instructions the warm phase consumed (block-aligned).
    warmed: u64,
}

impl<'p> Simulator<'p> {
    /// Captures the current warmed state. Call immediately after the
    /// initial functional warm of a sampled run, before any interval.
    /// Only cells with a private memory system warm functionally, so
    /// the memory image is always snapshottable here.
    pub(crate) fn capture_warm(&self) -> WarmSnapshot {
        let s = &self.state;
        WarmSnapshot {
            l1i: s.l1i.clone(),
            tage: s.tage.clone(),
            retire_ras: s.retire_ras.clone(),
            mem: s
                .mem
                .snapshot()
                .expect("functionally warmed cells own a private memory system"),
            scheme: s.scheme.clone(),
            warmed: s.retired_total,
        }
    }

    /// Restores a warmed state into a *fresh* simulator built over the
    /// same (program, trace, seed, machine, scheme): seeks the source
    /// past the warmed prefix (cheap decode-skip on a replayer) and
    /// installs deep copies of the warmed structures. The subsequent
    /// measured intervals are bit-identical to warming functionally.
    pub(crate) fn restore_warm(&mut self, snap: &WarmSnapshot) {
        let skipped = self.skip_functional(snap.warmed);
        debug_assert_eq!(
            skipped, snap.warmed,
            "snapshot warmed past the source's end — mismatched snapshot?"
        );
        let s = &mut self.state;
        s.l1i = snap.l1i.clone();
        s.tage = snap.tage.clone();
        s.retire_ras = snap.retire_ras.clone();
        s.mem = snap.mem.thaw();
        s.scheme = snap.scheme.clone();
    }
}

/// In-memory, process-lifetime store of [`WarmSnapshot`]s, bounded to
/// `capacity` entries with least-recently-used eviction — a hit
/// refreshes the entry's recency, so a snapshot in steady reuse is
/// never the one evicted by newly warmed cells. Thread-safe; entries
/// are shared out as [`Arc`]s so restores never copy the stored state
/// until installation.
pub struct SnapshotStore {
    entries: Mutex<Store>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct Store {
    map: FastMap<SnapshotKey, Arc<WarmSnapshot>>,
    /// Recency order, least recently used first.
    order: Vec<SnapshotKey>,
}

impl Store {
    /// Moves `key` to the most-recently-used end of the order.
    fn touch(&mut self, key: &SnapshotKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

impl SnapshotStore {
    /// Default capacity: ample for a (6 workloads × a dozen schemes)
    /// service working set while bounding memory (a snapshot is
    /// dominated by the LLC image — several MB at Table 3 sizing).
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A store with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A store holding at most `capacity` snapshots.
    pub fn with_capacity(capacity: usize) -> Self {
        SnapshotStore {
            entries: Mutex::new(Store::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a warmed state; a hit refreshes the entry's recency.
    pub fn get(&self, key: &SnapshotKey) -> Option<Arc<WarmSnapshot>> {
        let mut store = self.entries.lock().expect("snapshot-store mutex poisoned");
        let found = store.map.get(key).cloned();
        match &found {
            Some(_) => {
                store.touch(key);
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a warmed state, evicting the least recently used entry
    /// when full. Re-putting an existing key keeps the stored snapshot
    /// but refreshes its recency.
    pub fn put(&self, key: SnapshotKey, snapshot: WarmSnapshot) {
        let mut store = self.entries.lock().expect("snapshot-store mutex poisoned");
        if store.map.contains_key(&key) {
            store.touch(&key);
            return;
        }
        if store.order.len() >= self.capacity {
            let oldest = store.order.remove(0);
            store.map.remove(&oldest);
        }
        store.order.push(key);
        store.map.insert(key, Arc::new(snapshot));
    }

    /// Lookups that found a snapshot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("snapshot-store mutex poisoned")
            .map
            .len()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_cells, CellRun, CellSource, CellStats, RunLength};
    use crate::sampling::SamplingSpec;
    use fe_cfg::{workloads, Program};
    use fe_trace::Trace;

    const LEN: RunLength = RunLength {
        warmup: 60_000,
        measure: 300_000,
    };
    const SPEC: SamplingSpec = SamplingSpec {
        interval: 100_000,
        detail: 20_000,
        warmup: 20_000,
    };

    /// One sampled cell over `trace`, restoring from and capturing
    /// into `snapshots` when given.
    fn run(
        program: &Program,
        trace: &Trace,
        scheme: &SchemeSpec,
        snapshots: Option<&SnapshotStore>,
    ) -> CellStats {
        let run = CellRun {
            snapshots,
            ..CellRun::sampled(LEN, SPEC)
        };
        let machine = MachineConfig::table3();
        let source = CellSource::Trace(trace);
        run_cells(
            program,
            source,
            std::slice::from_ref(scheme),
            &machine,
            run,
            7,
        )
        .remove(0)
    }

    #[test]
    fn snapshot_runs_are_bit_identical_to_functional_warming() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, 7, LEN.trace_instrs(&machine));
        let store = SnapshotStore::new();
        for scheme in [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
            SchemeSpec::Confluence,
            SchemeSpec::Ideal,
        ] {
            let plain = run(&program, &trace, &scheme, None);
            let cold = run(&program, &trace, &scheme, Some(&store));
            let warm = run(&program, &trace, &scheme, Some(&store));
            assert_eq!(plain, cold, "first snapshot run ({})", scheme.label());
            assert_eq!(plain, warm, "restored snapshot run ({})", scheme.label());
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.hits(), 5, "second run of each scheme restores");
    }

    #[test]
    fn keys_separate_warmups_and_schemes() {
        let machine = MachineConfig::table3();
        let fp = ProgramFingerprint {
            blocks: 3,
            digest: 4,
        };
        let a = SnapshotKey::for_run(fp, &machine, &SchemeSpec::shotgun(), 7, 100);
        let b = SnapshotKey::for_run(fp, &machine, &SchemeSpec::shotgun(), 7, 200);
        let c = SnapshotKey::for_run(fp, &machine, &SchemeSpec::Fdip, 7, 100);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn store_capacity_evicts_oldest() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, 7, LEN.trace_instrs(&machine));
        let store = SnapshotStore::with_capacity(1);
        for scheme in [SchemeSpec::NoPrefetch, SchemeSpec::Fdip] {
            run(&program, &trace, &scheme, Some(&store));
        }
        assert_eq!(store.len(), 1, "older snapshot evicted");
    }

    #[test]
    fn hit_refreshes_recency_so_eviction_targets_the_stale_entry() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, 7, LEN.trace_instrs(&machine));
        let store = SnapshotStore::with_capacity(2);
        let warm = |scheme: &SchemeSpec| {
            run(&program, &trace, scheme, Some(&store));
        };
        // Fill: NoPrefetch is now the oldest insertion, Fdip the newest.
        warm(&SchemeSpec::NoPrefetch);
        warm(&SchemeSpec::Fdip);
        // Hit NoPrefetch: under stale insertion-order eviction it would
        // still be first in line; the hit must move it to the back.
        warm(&SchemeSpec::NoPrefetch);
        assert_eq!(store.hits(), 1);
        // Third distinct key: the eviction victim must be Fdip (least
        // recently used), not the just-hit NoPrefetch.
        warm(&SchemeSpec::boomerang());
        assert_eq!(store.len(), 2);
        warm(&SchemeSpec::NoPrefetch);
        assert_eq!(store.hits(), 2, "refreshed entry survived the eviction");
        warm(&SchemeSpec::Fdip);
        assert_eq!(store.hits(), 2, "stale entry was the one evicted");
        assert_eq!(store.misses(), 4, "cold runs plus the re-warmed Fdip");
    }
}

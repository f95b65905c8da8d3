//! Regression pin: pricing a checkpoint image must not allocate.
//!
//! Every periodic checkpoint, drain checkpoint, rollback read and
//! session seal is priced by a `CheckpointStore`, which evaluates the
//! FTI timing model as a function of the byte count — it used to build
//! an `Fti` engine with one phantom region, and a `MemoryManager`, per
//! price. This binary installs a counting allocator and asserts that a
//! second wave of checkpoints and a rollback on a warm store allocate
//! nothing at all.

mod common;

use common::{allocations, CountingAlloc};
use legato_core::units::{Bytes, Seconds};
use legato_fti::Strategy;
use legato_runtime::resilience::CheckpointStore;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A wave of checkpoints of growing images, the first one empty, with a
/// sealing surcharge on every other one, then the rollback that reads
/// the last image back. Returns when the restart completes.
fn wave(store: &mut CheckpointStore, from: Seconds) -> Seconds {
    let mut at = from;
    for i in 0..64u64 {
        let seal = Seconds(0.001 * (i % 2) as f64);
        let (start, finish) = store.write(at, Bytes::mib(i * 8), seal);
        at = finish.max(store.stall_after(start, finish));
    }
    store.read(at, Bytes::mib(63 * 8))
}

#[test]
fn pricing_a_checkpoint_allocates_nothing() {
    for strategy in [Strategy::Async, Strategy::Initial] {
        let mut store = CheckpointStore::new(strategy);
        let resumed = wave(&mut store, Seconds::ZERO);
        let before = allocations();
        let resumed_again = wave(&mut store, resumed);
        let after = allocations();
        assert!(resumed_again > resumed);
        assert_eq!(after - before, 0, "{strategy}: pricing allocated");
    }
}

//! Steady-state allocation bound of the columnar fleet engine.
//!
//! The shard slab pool reuses every column and outcome buffer across
//! shards, so a whole `run_fleet` on the 8,192-device reference config
//! must allocate well under half of what the per-shard-allocating engine
//! did (17,557 per run). A counting global allocator measures it; the
//! same config's report is also pinned bit for bit against the per-chip
//! reference path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dh_fleet::{run_fleet, run_fleet_reference, FleetConfig};

/// Counts every heap allocation (and reallocation) in the process.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a relaxed atomic with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counter is process-global, so the tests in this binary run one at
/// a time: a concurrent run would land in the other's count.
static SERIAL: Mutex<()> = Mutex::new(());

/// Allocation count of the engine before the slab pool.
const UNPOOLED_ALLOCS_PER_RUN: u64 = 17_557;

fn config() -> FleetConfig {
    FleetConfig {
        devices: 8_192,
        years: 0.5,
        shard_size: 512,
        ..FleetConfig::default()
    }
}

#[test]
fn columnar_run_allocates_under_half_the_unpooled_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = config();
    // Warm up once: one-time process state (calibration memo, thread
    // locals, worker threads) is not the per-run cost being bounded.
    run_fleet(&config).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run_fleet(&config).unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        allocs < UNPOOLED_ALLOCS_PER_RUN / 2,
        "columnar fleet run allocated {allocs} times; the slab pool must cut \
         the unpooled count ({UNPOOLED_ALLOCS_PER_RUN}) by well over half"
    );
}

#[test]
fn columnar_report_is_bit_identical_to_the_reference() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = config();
    let (reference, _) = run_fleet_reference(&config, None).unwrap();
    let columnar = run_fleet(&config).unwrap();
    // The fingerprint hashes every field's bits; `render` is compared too
    // because `PartialEq` fails on the empty TTF summary's NaN quantiles.
    assert_eq!(reference.fingerprint(), columnar.fingerprint());
    assert_eq!(reference.render(), columnar.render());
}

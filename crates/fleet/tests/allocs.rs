//! Steady-state allocation and memory bounds of the columnar fleet
//! engine.
//!
//! The shard slab pool reuses every column and outcome buffer across
//! shards, so a whole `run_fleet` on the 8,192-device reference config
//! must allocate well under half of what the per-shard-allocating engine
//! did (17,557 per run). Each slab keeps only four outcome columns per
//! shard chip plus one group-sized working store, so a multi-shard run's
//! peak live heap is bounded by the in-flight slab window, not by the
//! full per-chip state. A counting global allocator measures both; the
//! same config's report is also pinned bit for bit against the per-chip
//! reference path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dh_fleet::{run_fleet, run_fleet_reference, FleetConfig};

/// Counts every heap allocation (and reallocation) in the process, and
/// tracks the live and peak-live heap bytes.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: forwards every call to the system allocator unchanged; the
// counters are relaxed atomics with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            // Count the new block before freeing the old one: a moving
            // realloc holds both for a moment.
            grew(new_size);
            shrank(layout.size());
        }
        new
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

/// Bytes per shard chip a slab keeps after its group finished: the
/// guardband (f64) plus the failed-epoch, healed and epochs-run (u32)
/// result columns.
const OUTCOME_BYTES_PER_CHIP: u64 = 8 + 3 * 4;

/// Upper bound on a group working store's bytes per (lane-padded) chip:
/// 42 columns of at most 8 bytes.
const GROUP_STORE_BYTES_PER_CHIP: u64 = 42 * 8;

/// Room for everything else a run holds live at once: the run and its
/// accumulator, the reorder window and channel, worker-thread handles,
/// and the per-group scratch vectors.
const FIXED_SLACK_BYTES: u64 = 256 << 10;

#[test]
fn multi_shard_run_keeps_its_peak_heap_within_the_slab_window() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 8 shards of 4,096 chips, 2 epochs: a per-chip state of ~300 B
    // would hold ~1.2 MiB per slab; the outcome columns are 80 KiB.
    let config = FleetConfig {
        devices: 32_768,
        years: 0.02,
        shard_size: 4_096,
        ..FleetConfig::default()
    };
    run_fleet(&config).unwrap();
    // `par_map_fold` lets a worker start at most 2 x workers shards past
    // the fold cursor, and a slab is only created when the pool is empty.
    let workers = dh_exec::max_threads().max(1) as u64;
    let window = config.shard_count().min(2 * workers);
    let lanes = dh_simd::LANES as u64;
    let padded_group = config.group_size.div_ceil(lanes) * lanes;
    let per_slab =
        OUTCOME_BYTES_PER_CHIP * config.shard_size + GROUP_STORE_BYTES_PER_CHIP * padded_group;
    let bound = window * per_slab + FIXED_SLACK_BYTES;

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    run_fleet(&config).unwrap();
    let peak = PEAK_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        peak < bound,
        "run_fleet peaked at {peak} live heap bytes above its start; the bound for \
         {window} in-flight slabs of {per_slab} bytes is {bound}"
    );
    // The full per-chip state would overshoot the bound several times.
    let per_chip_state = window * 300 * config.shard_size;
    assert!(per_chip_state > 4 * bound, "{per_chip_state} vs {bound}");
}

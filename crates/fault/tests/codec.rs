//! Properties of the shared `DegradedReport` wire codec: every checkpoint
//! format embeds it, and every byte it reads comes from disk.

use dh_fault::wire::{put_u64, WireError};
use dh_fault::{
    CheckpointFallback, DegradedReport, DiskFaultKind, DiskIncident, SensorFaultKind,
    SensorIncident, ShardFailure,
};
use proptest::prelude::*;

fn text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("printable ASCII")
}

type Quarantine = Vec<(u64, u32, Vec<u8>)>;
type Sensors = Vec<(u64, u8, f64, u64)>;
type Fallbacks = Vec<(u64, Vec<u8>)>;
type Disks = Vec<(u8, u64)>;

fn report(
    counts: (u64, u64, u64),
    quarantined: Quarantine,
    sensors: Sensors,
    fallbacks: Fallbacks,
    disks: Disks,
) -> DegradedReport {
    DegradedReport {
        quarantined: quarantined
            .into_iter()
            .map(|(shard, attempts, error)| ShardFailure {
                shard,
                attempts,
                error: text(error),
            })
            .collect(),
        retries: counts.0,
        rejected_samples: counts.1,
        sensor_incidents: sensors
            .into_iter()
            .map(|(chip, kind, factor, epoch)| SensorIncident {
                chip,
                kind: match kind {
                    0 => SensorFaultKind::Stuck,
                    1 => SensorFaultKind::Dropped,
                    _ => SensorFaultKind::Noisy(factor),
                },
                epoch,
            })
            .collect(),
        checkpoint_fallbacks: fallbacks
            .into_iter()
            .map(|(generation, reason)| CheckpointFallback {
                generation,
                reason: text(reason),
            })
            .collect(),
        disk_incidents: disks
            .into_iter()
            .map(|(kind, write_index)| DiskIncident {
                kind: DiskFaultKind::from_wire(kind).expect("0..4"),
                write_index,
            })
            .collect(),
        retention_trims: counts.2,
    }
}

fn encode(r: &DegradedReport) -> Vec<u8> {
    let mut buf = Vec::new();
    r.encode(&mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_reports_round_trip(
        counts in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        quarantined in collection::vec((0u64..u64::MAX, 1u32..50, collection::vec(32u8..127, 0..24)), 0..4),
        sensors in collection::vec((0u64..u64::MAX, 0u8..3, 0.0f64..1e6, 0u64..u64::MAX), 0..4),
        fallbacks in collection::vec((0u64..64, collection::vec(32u8..127, 0..24)), 0..4),
        disks in collection::vec((0u8..4, 0u64..u64::MAX), 0..4)
    ) {
        let r = report(counts, quarantined, sensors, fallbacks, disks);
        let bytes = encode(&r);
        for disk_optional in [false, true] {
            let mut view = bytes.as_slice();
            let back = DegradedReport::decode(&mut view, disk_optional);
            prop_assert!(back.as_ref() == Ok(&r), "{back:?} != {r:?}");
            prop_assert!(view.is_empty());
        }
        // Every strict prefix is a typed error, never a panic.
        for cut in 0..bytes.len() {
            prop_assert!(DegradedReport::decode(&mut &bytes[..cut], false).is_err());
        }
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(
        bytes in collection::vec(0u16..256, 0..160),
        disk_optional in 0u8..2
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let mut view = bytes.as_slice();
        match DegradedReport::decode(&mut view, disk_optional == 1) {
            Ok(r) => prop_assert!(encode(&r).len() <= bytes.len()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn sections_that_end_before_the_disk_fields_decode_empty(
        counts in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..1),
        quarantined in collection::vec((0u64..1000, 1u32..9, collection::vec(32u8..127, 0..12)), 0..3),
        fallbacks in collection::vec((0u64..8, collection::vec(32u8..127, 0..12)), 0..3)
    ) {
        let r = report(counts, quarantined, Vec::new(), fallbacks, Vec::new());
        let mut bytes = encode(&r);
        // Drop the disk-incident count and the retention-trim count.
        bytes.truncate(bytes.len() - 16);
        let mut view = bytes.as_slice();
        let back = DegradedReport::decode(&mut view, true);
        prop_assert!(back.as_ref() == Ok(&r), "{back:?} != {r:?}");
        prop_assert!(view.is_empty());
        prop_assert!(matches!(
            DegradedReport::decode(&mut bytes.as_slice(), false),
            Err(WireError::Truncated { what: "degraded.disk.len", left: 0 })
        ));
    }
}

#[test]
fn huge_counts_with_short_bodies_fail_without_allocating_for_them() {
    // A forged u64::MAX count in each list position, followed by a body
    // far too short to hold even one element: each must fail on the
    // first missing element, not reserve space for u64::MAX of them.
    for position in 0..4 {
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1); // retries
        put_u64(&mut bytes, 2); // rejected samples
        for _ in 0..position {
            put_u64(&mut bytes, 0); // an empty earlier list
        }
        put_u64(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[7; 5]);
        let err = DegradedReport::decode(&mut bytes.as_slice(), false).unwrap_err();
        assert!(
            matches!(err, WireError::Truncated { left: 5, .. }),
            "list {position}: {err}"
        );
    }
    // A u64::MAX string length inside a quarantine record.
    let mut bytes = Vec::new();
    for v in [0, 0, 1, 4, 3, u64::MAX] {
        put_u64(&mut bytes, v);
    }
    bytes.extend_from_slice(b"short");
    let err = DegradedReport::decode(&mut bytes.as_slice(), false).unwrap_err();
    assert_eq!(
        err,
        WireError::StringTruncated {
            what: "degraded.quarantined.error",
            len: u64::MAX,
            left: 5
        }
    );
}

#[test]
fn unknown_discriminants_are_typed_errors() {
    let mut bytes = Vec::new();
    for v in [0, 0, 0, 0, 0, 1, 9, 0, 0] {
        put_u64(&mut bytes, v);
    }
    assert_eq!(
        DegradedReport::decode(&mut bytes.as_slice(), false).unwrap_err(),
        WireError::UnknownDiscriminant {
            kind: "disk-fault",
            value: 9
        }
    );
}

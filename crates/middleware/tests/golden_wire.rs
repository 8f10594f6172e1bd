//! Golden wire bytes for the three message types that cross the
//! robot/cloud link: `LaserScan`, `VelocityCmd` and the switcher's
//! `Envelope`. The expected encodings pin the wire format
//! byte-for-byte, so packet sizes, airtime and therefore every
//! scenario checksum stay fixed while the codec's implementation
//! changes underneath.

use lgv_middleware::{from_bytes, to_bytes, Envelope};
use lgv_types::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scan() -> LaserScan {
    LaserScan {
        stamp: SimTime::from_nanos(1_234_567_890),
        angle_min: -std::f64::consts::PI,
        angle_increment: std::f64::consts::TAU / 360.0,
        range_max: 3.5,
        ranges: (0..360).map(|i| 0.12 + (i % 37) as f64 * 0.09).collect(),
    }
}

fn cmd(source: VelocitySource) -> VelocityCmd {
    VelocityCmd {
        stamp: SimTime::from_nanos(42_000_000),
        twist: Twist::new(0.22, -0.75),
        source,
    }
}

fn data_envelope() -> Envelope {
    Envelope {
        topic: "/cmd_vel/navigation".to_string(),
        seq: 7,
        sent_at: SimTime::from_nanos(1_000_000_000),
        echo_stamp: None,
        proc_times: vec![],
        msg: 0x0102_0304_0506_0708,
        vehicle: 3,
        payload: vec![0xde, 0xad, 0xbe, 0xef],
    }
}

fn ack_envelope() -> Envelope {
    Envelope {
        topic: "/profiler/proc_time".to_string(),
        seq: 8,
        sent_at: SimTime::from_nanos(1_050_000_000),
        echo_stamp: Some(SimTime::from_nanos(1_000_000_000)),
        proc_times: vec![
            (NodeKind::Slam, Duration::from_micros(4_500)),
            (NodeKind::PathTracking, Duration::from_nanos(987_654)),
        ],
        msg: 0,
        vehicle: 0,
        payload: vec![],
    }
}

#[test]
fn laser_scan_bytes_are_pinned() {
    let s = scan();
    let wire = to_bytes(&s).unwrap();
    assert_eq!(wire.len(), 2920);
    assert_eq!(fnv1a(&wire), 5_606_403_423_051_507_910);
    assert_eq!(from_bytes::<LaserScan>(&wire).unwrap(), s);
}

#[test]
fn velocity_cmd_bytes_are_pinned() {
    let expected = [
        "80de800200000000295c8fc2f528cc3f000000000000e8bf00000000",
        "80de800200000000295c8fc2f528cc3f000000000000e8bf01000000",
        "80de800200000000295c8fc2f528cc3f000000000000e8bf02000000",
    ];
    let sources = [
        VelocitySource::Navigation,
        VelocitySource::Joystick,
        VelocitySource::SafetyController,
    ];
    for (source, want) in sources.into_iter().zip(expected) {
        let c = cmd(source);
        let wire = to_bytes(&c).unwrap();
        assert_eq!(hex(&wire), want, "{source:?}");
        assert_eq!(from_bytes::<VelocityCmd>(&wire).unwrap(), c);
    }
}

#[test]
fn data_envelope_bytes_are_pinned() {
    let e = data_envelope();
    let wire = to_bytes(&e).unwrap();
    assert_eq!(
        hex(&wire),
        concat!(
            "13000000000000002f636d645f76656c2f6e617669676174696f6e0700000000",
            "00000000ca9a3b00000000000000000000000000080706050403020103000000",
            "000000000400000000000000deadbeef",
        )
    );
    assert_eq!(from_bytes::<Envelope>(&wire).unwrap(), e);
}

#[test]
fn ack_envelope_bytes_are_pinned() {
    let e = ack_envelope();
    let wire = to_bytes(&e).unwrap();
    assert_eq!(
        hex(&wire),
        concat!(
            "13000000000000002f70726f66696c65722f70726f635f74696d650800000000",
            "00000080ba953e000000000100ca9a3b00000000020000000000000001000000",
            "20aa4400000000000500000006120f0000000000000000000000000000000000",
            "000000000000000000000000",
        )
    );
    assert_eq!(from_bytes::<Envelope>(&wire).unwrap(), e);
}

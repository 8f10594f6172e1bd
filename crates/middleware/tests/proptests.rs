//! Property-based tests for the middleware: codec roundtrips of the
//! wire types over arbitrary data, decoder robustness against
//! truncated and arbitrary bytes, and bus queue invariants.

use lgv_middleware::{from_bytes, to_bytes, Bus, Envelope, TopicName};
use lgv_types::prelude::*;
use proptest::prelude::*;

fn source(i: usize) -> VelocitySource {
    [
        VelocitySource::Navigation,
        VelocitySource::Joystick,
        VelocitySource::SafetyController,
    ][i]
}

fn cmd_strategy() -> impl Strategy<Value = VelocityCmd> {
    (any::<u64>(), any::<f64>(), any::<f64>(), 0usize..3).prop_map(|(t, v, w, s)| VelocityCmd {
        stamp: SimTime::from_nanos(t),
        twist: Twist::new(v, w),
        source: source(s),
    })
}

fn scan_strategy(max_beams: usize) -> impl Strategy<Value = LaserScan> {
    (
        any::<u64>(),
        proptest::collection::vec(0.0f64..3.5, 0..max_beams),
    )
        .prop_map(|(t, ranges)| LaserScan {
            stamp: SimTime::from_nanos(t),
            angle_min: 0.0,
            angle_increment: 0.0175,
            range_max: 3.5,
            ranges,
        })
}

fn envelope_strategy() -> impl Strategy<Value = Envelope> {
    (
        ".{0,24}",
        any::<u64>(),
        any::<u64>(),
        proptest::option::of(any::<u64>()),
        proptest::collection::vec((0usize..NodeKind::ALL.len(), any::<u64>()), 0..8),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(
            |(topic, seq, sent, echo, procs, msg, vehicle, payload)| Envelope {
                topic,
                seq,
                sent_at: SimTime::from_nanos(sent),
                echo_stamp: echo.map(SimTime::from_nanos),
                proc_times: procs
                    .into_iter()
                    .map(|(k, d)| (NodeKind::ALL[k], Duration::from_nanos(d)))
                    .collect(),
                msg,
                vehicle,
                payload,
            },
        )
}

proptest! {
    #[test]
    fn codec_roundtrips_envelope(env in envelope_strategy()) {
        let bytes = to_bytes(&env).unwrap();
        let back: Envelope = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, env);
    }

    #[test]
    fn codec_roundtrips_velocity_cmd(cmd in cmd_strategy()) {
        // Compared as bytes: arbitrary floats include NaN.
        let bytes = to_bytes(&cmd).unwrap();
        let back: VelocityCmd = from_bytes(&bytes).unwrap();
        prop_assert_eq!(to_bytes(&back).unwrap(), bytes);
    }

    #[test]
    fn codec_roundtrips_scan(scan in scan_strategy(400)) {
        let bytes = to_bytes(&scan).unwrap();
        let back: LaserScan = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, scan);
    }

    #[test]
    fn every_strict_prefix_of_an_envelope_errors(env in envelope_strategy()) {
        let bytes = to_bytes(&env).unwrap();
        for n in 0..bytes.len() {
            prop_assert!(from_bytes::<Envelope>(&bytes[..n]).is_err(), "prefix {}", n);
        }
    }

    #[test]
    fn every_strict_prefix_of_a_scan_errors(scan in scan_strategy(40)) {
        let bytes = to_bytes(&scan).unwrap();
        for n in 0..bytes.len() {
            prop_assert!(from_bytes::<LaserScan>(&bytes[..n]).is_err(), "prefix {}", n);
        }
    }

    #[test]
    fn every_strict_prefix_of_a_velocity_cmd_errors(cmd in cmd_strategy()) {
        let bytes = to_bytes(&cmd).unwrap();
        for n in 0..bytes.len() {
            prop_assert!(from_bytes::<VelocityCmd>(&bytes[..n]).is_err(), "prefix {}", n);
        }
    }

    #[test]
    fn codec_rejects_random_garbage_as_scan(junk in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Decoding random bytes must never panic — only `Err` or, for
        // the rare structurally-valid prefix, a full consume.
        let _ = from_bytes::<LaserScan>(&junk);
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = from_bytes::<Envelope>(&junk);
        let _ = from_bytes::<VelocityCmd>(&junk);
    }

    #[test]
    fn decoding_a_corrupted_envelope_never_panics(
        env in envelope_strategy(), at in any::<usize>(), byte in any::<u8>(),
    ) {
        // Random bytes rarely get past the topic length; one flipped
        // byte in a valid encoding reaches every later field.
        let mut bytes = to_bytes(&env).unwrap().to_vec();
        let i = at % bytes.len();
        bytes[i] = byte;
        let _ = from_bytes::<Envelope>(&bytes);
    }

    #[test]
    fn bounded_queue_keeps_newest(cap in 1usize..8, n in 1usize..32) {
        let bus = Bus::new();
        let sub = bus.subscribe(TopicName::SCAN, cap);
        for i in 0..n as u32 {
            bus.publish(TopicName::SCAN, &i).unwrap();
        }
        let kept = sub.len();
        prop_assert_eq!(kept, cap.min(n));
        // Queue holds exactly the newest `kept` messages in order.
        let mut expected = (n as u32 - kept as u32)..n as u32;
        while let Ok(Some(v)) = sub.recv::<u32>() {
            prop_assert_eq!(Some(v), expected.next());
        }
        prop_assert_eq!(sub.dropped(), (n - kept) as u64);
    }

    #[test]
    fn publish_count_is_exact(n in 0usize..64) {
        let bus = Bus::new();
        for i in 0..n as u64 {
            bus.publish(TopicName::ODOM, &i).unwrap();
        }
        prop_assert_eq!(bus.publish_count(TopicName::ODOM), n as u64);
        if n > 0 {
            prop_assert_eq!(bus.latest::<u64>(TopicName::ODOM), Some(n as u64 - 1));
        }
    }
}

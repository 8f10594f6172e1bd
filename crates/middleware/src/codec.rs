//! Compact binary codec for the messages that cross the link.
//!
//! The paper serializes ROS messages with protobuf for efficient
//! transmission (§VII); protobuf is outside our allowed dependency
//! set, so this module hand-writes an equivalent little-endian,
//! non-self-describing wire format through the [`Wire`] trait:
//!
//! * fixed-width little-endian integers and floats;
//! * `u64` length prefixes for strings and sequences;
//! * one tag byte for `Option`;
//! * `u32` declaration-order variant indices for enums;
//! * struct fields in declaration order, no field names on the wire.
//!
//! Because the format is non-self-describing, both ends must agree on
//! the message type — which the topic name guarantees, as in ROS.
//! [`Wire`] is implemented here, and only here, for the types that
//! travel: [`LaserScan`], [`VelocityCmd`] and the switcher's
//! [`Envelope`], the types they contain, and the primitives the bus
//! tests publish.

use crate::switcher::Envelope;
use bytes::{BufMut, Bytes, BytesMut};
use lgv_types::prelude::*;
use std::fmt;

/// Encoding/decoding failure.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// A type with a fixed binary wire encoding.
///
/// `decode` consumes exactly the bytes `encode` wrote and returns
/// `Err` — never panics — on short or malformed input.
pub trait Wire: Sized {
    /// Fewest bytes any encoding of `Self` occupies (at least 1).
    /// Sequence decoders check length prefixes against it before
    /// allocating.
    const MIN_WIDTH: usize;

    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut BytesMut);

    /// Decode one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Serialize a value into bytes.
///
/// ```
/// use lgv_middleware::{to_bytes, from_bytes};
/// use lgv_types::Twist;
///
/// let cmd = Twist::new(0.22, -0.8);
/// let wire = to_bytes(&cmd).unwrap();
/// let back: Twist = from_bytes(&wire).unwrap();
/// assert_eq!(back, cmd);
/// ```
pub fn to_bytes<T: Wire>(value: &T) -> Result<Bytes, CodecError> {
    let mut out = BytesMut::with_capacity(128);
    value.encode(&mut out);
    Ok(out.freeze())
}

/// Deserialize a value from bytes, requiring the buffer to be fully
/// consumed (trailing garbage indicates a framing bug).
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut input = bytes;
    let v = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(CodecError(format!("{} trailing bytes", input.len())));
    }
    Ok(v)
}

fn eof(need: usize, input: &[u8]) -> CodecError {
    CodecError(format!("unexpected EOF: need {need}, have {}", input.len()))
}

/// Split `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    let (head, rest) = input.split_at_checked(n).ok_or_else(|| eof(n, input))?;
    *input = rest;
    Ok(head)
}

/// Split a fixed-width array off the front of `input`.
fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = input.split_first_chunk().ok_or_else(|| eof(N, input))?;
    *input = rest;
    Ok(*head)
}

/// Read a `u64` length prefix counting elements of `min_width` bytes
/// each, rejecting any count the remaining input cannot hold.
fn take_len(input: &mut &[u8], min_width: usize) -> Result<usize, CodecError> {
    let n = u64::decode(input)?;
    if n > (input.len() / min_width) as u64 {
        return Err(CodecError(format!(
            "length {n} exceeds remaining input of {} bytes",
            input.len()
        )));
    }
    Ok(n as usize)
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_WIDTH: usize = std::mem::size_of::<$t>();
            fn encode(&self, out: &mut BytesMut) {
                out.put_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                take_array(input).map(<$t>::from_le_bytes)
            }
        }
    )*};
}

wire_le!(u8, u32, u64, f64);

impl Wire for String {
    const MIN_WIDTH: usize = 8;
    fn encode(&self, out: &mut BytesMut) {
        (self.len() as u64).encode(out);
        out.put_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_len(input, 1)?;
        let s = std::str::from_utf8(take(input, n)?)
            .map_err(|e| CodecError(format!("invalid utf8: {e}")))?;
        Ok(s.to_string())
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_WIDTH: usize = 8;
    fn encode(&self, out: &mut BytesMut) {
        (self.len() as u64).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let n = take_len(input, T::MIN_WIDTH)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::decode(input)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_WIDTH: usize = 1;
    fn encode(&self, out: &mut BytesMut) {
        match self {
            None => out.put_u8(0),
            Some(v) => {
                out.put_u8(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            b => Err(CodecError(format!("invalid option tag {b}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_WIDTH: usize = A::MIN_WIDTH + B::MIN_WIDTH;
    fn encode(&self, out: &mut BytesMut) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl Wire for SimTime {
    const MIN_WIDTH: usize = 8;
    fn encode(&self, out: &mut BytesMut) {
        self.as_nanos().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        u64::decode(input).map(SimTime::from_nanos)
    }
}

impl Wire for Duration {
    const MIN_WIDTH: usize = 8;
    fn encode(&self, out: &mut BytesMut) {
        self.as_nanos().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        u64::decode(input).map(Duration::from_nanos)
    }
}

/// Fieldless enums: the `u32` index of the variant in declaration
/// order. List every variant, in declaration order.
macro_rules! wire_enum {
    ($t:ident { $($v:ident),* $(,)? }) => {
        impl Wire for $t {
            const MIN_WIDTH: usize = 4;
            fn encode(&self, out: &mut BytesMut) {
                (*self as u32).encode(out);
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                const VARIANTS: &[$t] = &[$($t::$v),*];
                let i = u32::decode(input)?;
                VARIANTS.get(i as usize).copied().ok_or_else(|| {
                    CodecError(format!("invalid {} variant {i}", stringify!($t)))
                })
            }
        }
    };
}

wire_enum!(VelocitySource {
    Navigation,
    Joystick,
    SafetyController,
});
wire_enum!(NodeKind {
    Localization,
    Slam,
    CostmapGen,
    PathPlanning,
    Exploration,
    PathTracking,
    VelocityMux,
});

/// Structs: every field, in declaration order, with its type.
macro_rules! wire_struct {
    ($t:ident { $($f:ident: $ft:ty),* $(,)? }) => {
        impl Wire for $t {
            const MIN_WIDTH: usize = 0 $(+ <$ft as Wire>::MIN_WIDTH)*;
            fn encode(&self, out: &mut BytesMut) {
                $(self.$f.encode(out);)*
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok($t { $($f: <$ft as Wire>::decode(input)?),* })
            }
        }
    };
}

wire_struct!(Twist {
    linear: f64,
    angular: f64,
});
wire_struct!(LaserScan {
    stamp: SimTime,
    angle_min: f64,
    angle_increment: f64,
    range_max: f64,
    ranges: Vec<f64>,
});
wire_struct!(VelocityCmd {
    stamp: SimTime,
    twist: Twist,
    source: VelocitySource,
});
wire_struct!(Envelope {
    topic: String,
    seq: u64,
    sent_at: SimTime,
    echo_stamp: Option<SimTime>,
    proc_times: Vec<(NodeKind, Duration)>,
    msg: u64,
    vehicle: u64,
    payload: Vec<u8>,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: &T) {
        let b = to_bytes(v).expect("serialize");
        let back: T = from_bytes(&b).expect("deserialize");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&7u8);
        roundtrip(&123_456_789u32);
        roundtrip(&u64::MAX);
        roundtrip(&1.2345678f64);
        roundtrip(&"hello world".to_string());
        roundtrip(&Some(SimTime::from_nanos(42)));
        roundtrip(&Option::<SimTime>::None);
        roundtrip(&vec![0.5f64; 3]);
        roundtrip(&Vec::<u8>::new());
        roundtrip(&(NodeKind::Slam, Duration::from_millis(3)));
    }

    #[test]
    fn every_enum_variant_roundtrips() {
        for k in NodeKind::ALL {
            roundtrip(&k);
        }
        for s in [
            VelocitySource::Navigation,
            VelocitySource::Joystick,
            VelocitySource::SafetyController,
        ] {
            roundtrip(&s);
        }
    }

    #[test]
    fn message_types_roundtrip() {
        roundtrip(&Twist::new(0.22, -1.1));
        roundtrip(&LaserScan {
            stamp: SimTime::from_nanos(123456),
            angle_min: 0.0,
            angle_increment: 0.0175,
            range_max: 3.5,
            ranges: (0..360).map(|i| i as f64 * 0.01).collect(),
        });
        roundtrip(&VelocityCmd {
            stamp: SimTime::from_nanos(99),
            twist: Twist::new(0.1, 0.2),
            source: VelocitySource::SafetyController,
        });
    }

    #[test]
    fn min_widths_match_the_smallest_encodings() {
        assert_eq!(Twist::MIN_WIDTH, to_bytes(&Twist::STOP).unwrap().len());
        let empty = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.0,
            range_max: 0.0,
            ranges: vec![],
        };
        assert_eq!(LaserScan::MIN_WIDTH, to_bytes(&empty).unwrap().len());
        let cmd = VelocityCmd {
            stamp: SimTime::EPOCH,
            twist: Twist::STOP,
            source: VelocitySource::Navigation,
        };
        assert_eq!(VelocityCmd::MIN_WIDTH, to_bytes(&cmd).unwrap().len());
        let env = Envelope {
            topic: String::new(),
            seq: 0,
            sent_at: SimTime::EPOCH,
            echo_stamp: None,
            proc_times: vec![],
            msg: 0,
            vehicle: 0,
            payload: vec![],
        };
        assert_eq!(Envelope::MIN_WIDTH, to_bytes(&env).unwrap().len());
    }

    #[test]
    fn scan_wire_size_is_compact() {
        let scan = LaserScan {
            stamp: SimTime::EPOCH,
            angle_min: 0.0,
            angle_increment: 0.0175,
            range_max: 3.5,
            ranges: vec![1.0; 360],
        };
        let b = to_bytes(&scan).unwrap();
        // stamp + 3 floats + len + 360 doubles ≈ 2.9 KB: matches the
        // paper's 2.94 KB laser-scan transmission size.
        assert!(b.len() < 3000, "wire size {}", b.len());
        assert!(b.len() > 2880);
    }

    #[test]
    fn truncated_input_errors() {
        let b = to_bytes(&12345u64).unwrap();
        let r: Result<u64, _> = from_bytes(&b[..4]);
        assert!(r.is_err());
    }

    #[test]
    fn trailing_garbage_errors() {
        let mut b = to_bytes(&1u32).unwrap().to_vec();
        b.push(0xFF);
        let r: Result<u32, _> = from_bytes(&b);
        assert!(r.is_err());
    }

    #[test]
    fn corrupt_tags_error() {
        let r: Result<Option<SimTime>, _> = from_bytes(&[7]);
        assert!(r.is_err());
        let r: Result<VelocitySource, _> = from_bytes(&3u32.to_le_bytes());
        assert!(r.is_err());
    }

    #[test]
    fn oversized_length_prefix_errors() {
        // Claims a 10^12-byte string in a 9-byte buffer.
        let mut b = vec![];
        b.extend_from_slice(&(1_000_000_000_000u64).to_le_bytes());
        b.push(b'x');
        let r: Result<String, _> = from_bytes(&b);
        assert!(r.is_err());
    }

    #[test]
    fn length_prefix_is_checked_against_element_width() {
        // 3 f64s claimed, 16 bytes present: enough for 16 `u8`s but
        // not for 3 × 8 bytes.
        let mut b = vec![];
        b.extend_from_slice(&3u64.to_le_bytes());
        b.extend_from_slice(&[0; 16]);
        let r: Result<Vec<f64>, _> = from_bytes(&b);
        assert!(r.unwrap_err().0.contains("exceeds remaining input"));
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut b = vec![];
        b.extend_from_slice(&2u64.to_le_bytes());
        b.extend_from_slice(&[0xFF, 0xFE]);
        let r: Result<String, _> = from_bytes(&b);
        assert!(r.is_err());
    }
}

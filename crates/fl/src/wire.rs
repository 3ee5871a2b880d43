//! The leaf shapes of the wire grammar, and the macros that spell a
//! message as a list of them.
//!
//! How an integer, a `usize`, a fixed array, a string, an optional, a
//! counted list, a run of floats and a varint are laid out — and bounded
//! on decode — is decided here, once. Every message in
//! [`crate::message`], [`crate::codec`], [`crate::faults`] and
//! [`crate::adversary`] is then a field list
//! ([`wire_struct!`]), a tag plus field lists ([`wire_enum!`]) or a
//! counted list behind a constructor ([`wire_list!`]) over these leaves;
//! the grammar table in [`crate::message`] is the reader's summary.
//! Only the hot loops (`Tensor`, `EncodedTensor`) and the frame formats
//! (`Envelope`, `tiop::Frame`) are still written out by hand.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::message::{limits, Wire};
use crate::{FlError, Result};

pub(crate) fn need(buf: &Bytes, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(FlError::BadConfig {
            reason: format!("truncated message: need {n} bytes for {what}"),
        });
    }
    Ok(())
}

fn too_large(what: &str, n: u64) -> FlError {
    FlError::BadConfig {
        reason: format!("{what} {n} exceeds protocol maximum"),
    }
}

/// A byte or element count no larger than [`limits::MAX_FIELD_BYTES`].
pub(crate) fn decode_len(buf: &mut Bytes, what: &str) -> Result<usize> {
    decode_count(buf, limits::MAX_FIELD_BYTES, what)
}

/// A `u64` count no larger than `cap`.
pub(crate) fn decode_count(buf: &mut Bytes, cap: usize, what: &str) -> Result<usize> {
    need(buf, 8, what)?;
    // Bound the raw u64 *before* narrowing: on 32-bit targets a cast
    // would truncate, letting a hostile 2^32+k prefix slip past the
    // guard as k.
    let n = buf.get_u64_le();
    match usize::try_from(n) {
        Ok(n) if n <= cap => Ok(n),
        _ => Err(too_large(what, n)),
    }
}

/// The next `n` bytes, once the buffer is known to hold them.
pub(crate) fn take_bytes(buf: &mut Bytes, n: usize, what: &str) -> Result<Vec<u8>> {
    need(buf, n, what)?;
    let mut bytes = vec![0u8; n];
    buf.copy_to_slice(&mut bytes);
    Ok(bytes)
}

/// Floats converted per [`put_f32s`] block: 1 KiB of stack, wide enough
/// that the conversion vectorises and the buffer is appended to once a
/// block rather than once a float.
pub(crate) const F32_BLOCK: usize = 256;

/// `values` as little-endian `f32`s, no count in front: the payload run
/// of a [`Tensor`](gradsec_tensor::Tensor), a dense body or a sparse
/// body's values.
///
/// Nothing is reserved for the run: the buffer becomes an envelope's
/// payload, capacity and all, and a reservation per run compounds with
/// the buffer's own doubling — a 355 KB LeNet-5 download ended in a
/// 709 KB buffer, against 546 KB grown block by block.
pub(crate) fn put_f32s(buf: &mut BytesMut, values: &[f32]) {
    let mut block = [0u8; 4 * F32_BLOCK];
    for run in values.chunks(F32_BLOCK) {
        let bytes = &mut block[..4 * run.len()];
        for (dst, x) in bytes.chunks_exact_mut(4).zip(run) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
        buf.put_slice(bytes);
    }
}

/// The next `n` little-endian `f32`s, bit for bit (NaN payloads and
/// signed zeros survive). `n` is bounded by the caller
/// ([`limits::MAX_FIELD_BYTES`]); nothing is allocated until the buffer
/// is known to hold all `4 * n` bytes.
pub(crate) fn get_f32s(buf: &mut Bytes, n: usize, what: &str) -> Result<Vec<f32>> {
    need(buf, 4 * n, what)?;
    let values = buf.chunk()[..4 * n]
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    buf.advance(4 * n);
    Ok(values)
}

/// Most bytes a `u32` takes as a varint.
const MAX_VARINT_BYTES: usize = 5;

/// Bytes [`put_varint`] writes for `v`.
pub(crate) fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// `v` as an LEB128 varint: seven bits a byte, low group first, the high
/// bit set on every byte but the last. Always the shortest form.
pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u32) {
    let mut bytes = [0u8; MAX_VARINT_BYTES];
    let mut len = 0;
    while v >= 0x80 {
        bytes[len] = v as u8 | 0x80;
        v >>= 7;
        len += 1;
    }
    bytes[len] = v as u8;
    buf.put_slice(&bytes[..=len]);
}

/// One LEB128 varint, accepted only in the form [`put_varint`] writes —
/// so a value has exactly one encoding and an accepted message
/// re-encodes to the bytes it arrived as.
///
/// # Errors
///
/// Returns [`FlError::BadConfig`] when the buffer ends inside the
/// varint, when it runs past five bytes or carries bits beyond `u32`,
/// and when it is overlong (a zero final group after a continuation).
pub(crate) fn get_varint(buf: &mut Bytes, what: &str) -> Result<u32> {
    let bad = |problem: &str| FlError::BadConfig {
        reason: format!("{problem} for {what}"),
    };
    let mut v = 0u32;
    for (i, &b) in buf.chunk().iter().take(MAX_VARINT_BYTES).enumerate() {
        let group = u32::from(b & 0x7F);
        // The fifth byte holds bits 28..32: four of them.
        if i == MAX_VARINT_BYTES - 1 && group > 0x0F {
            return Err(bad("varint overflows u32"));
        }
        v |= group << (7 * i);
        if b & 0x80 == 0 {
            if group == 0 && i > 0 {
                return Err(bad("overlong varint"));
            }
            buf.advance(i + 1);
            return Ok(v);
        }
    }
    Err(if buf.remaining() < MAX_VARINT_BYTES {
        bad("truncated message: varint cut short")
    } else {
        bad("varint longer than 5 bytes")
    })
}

macro_rules! wire_num {
    ($($ty:ty, $put:ident, $get:ident;)*) => {$(
        impl Wire for $ty {
            fn encode_into(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }

            fn decode_from(buf: &mut Bytes) -> Result<Self> {
                need(buf, size_of::<$ty>(), stringify!($ty))?;
                Ok(buf.$get())
            }
        }
    )*};
}

wire_num! {
    u8, put_u8, get_u8;
    u16, put_u16_le, get_u16_le;
    u64, put_u64_le, get_u64_le;
    f32, put_f32_le, get_f32_le;
    f64, put_f64_le, get_f64_le;
}

/// Carried as a `u64` whatever the sender's pointer width; a value this
/// target cannot index is refused, never truncated.
impl Wire for usize {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = u64::decode_from(buf)?;
        usize::try_from(n).map_err(|_| too_large("usize value", n))
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_slice(self);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        need(buf, N, "byte array")?;
        let mut bytes = [0u8; N];
        buf.copy_to_slice(&mut bytes);
        Ok(bytes)
    }
}

impl Wire for String {
    fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.len() as u64);
        buf.put_slice(self.as_bytes());
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        let n = decode_len(buf, "string length")?;
        String::from_utf8(take_bytes(buf, n, "string bytes")?).map_err(|_| FlError::Protocol {
            reason: "string is not valid UTF-8".to_owned(),
        })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Some(v) => {
                buf.put_u8(1);
                v.encode_into(buf);
            }
            None => buf.put_u8(0),
        }
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        match u8::decode_from(buf)? {
            0 => Ok(None),
            1 => T::decode_from(buf).map(Some),
            other => Err(FlError::BadConfig {
                reason: format!("bad presence flag {other}"),
            }),
        }
    }
}

/// A list item with a key or tag in front: a map entry, a slotted term.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_into(&self, buf: &mut BytesMut) {
        self.0.encode_into(buf);
        self.1.encode_into(buf);
    }

    fn decode_from(buf: &mut Bytes) -> Result<Self> {
        Ok((A::decode_from(buf)?, B::decode_from(buf)?))
    }
}

/// What a collection hands [`encode_list`]: `&T` from a slice, `(&K, &V)`
/// from a map (encoded exactly like the `(K, V)` it decodes as).
pub(crate) trait ListItem {
    fn put(self, buf: &mut BytesMut);
}

impl<T: Wire> ListItem for &T {
    fn put(self, buf: &mut BytesMut) {
        self.encode_into(buf);
    }
}

impl<K: Wire, V: Wire> ListItem for (&K, &V) {
    fn put(self, buf: &mut BytesMut) {
        self.0.encode_into(buf);
        self.1.encode_into(buf);
    }
}

/// The one counted-list encoder: a `u64` count, then each item.
pub(crate) fn encode_list<I: ListItem>(
    len: usize,
    items: impl Iterator<Item = I>,
    buf: &mut BytesMut,
) {
    buf.put_u64_le(len as u64);
    items.for_each(|item| item.put(buf));
}

/// The one counted-list decoder, into a `Vec` or a map.
///
/// # Errors
///
/// Returns [`FlError::BadConfig`] when the count exceeds `cap` (one of
/// [`limits`]), when the buffer cannot hold that many items, or when an
/// item fails to decode.
pub(crate) fn decode_list<T: Wire, C: FromIterator<T>>(
    buf: &mut Bytes,
    cap: usize,
    what: &str,
) -> Result<C> {
    let n = decode_count(buf, cap, what)?;
    // Every item is at least one byte, so a count the remaining bytes
    // cannot hold is refused here — before anything is reserved or
    // decoded on the word of an 8-byte prefix. Collecting through
    // `Result` then grows the collection only as items really arrive.
    need(buf, n, what)?;
    (0..n).map(|_| T::decode_from(buf)).collect()
}

/// `Wire` for a struct, from its field list in wire order.
///
/// A plain field uses its type's own `Wire`; `field: list(CAP)` is a
/// counted list (a `Vec` or a map) bounded by `CAP`; tuple structs name
/// their field `0`. `validate = f` runs `f(&decoded)?` before the value
/// is handed out.
macro_rules! wire_struct {
    (@put $buf:ident, $v:expr) => {
        $crate::message::Wire::encode_into(&$v, $buf)
    };
    (@put $buf:ident, $v:expr, $cap:expr) => {
        $crate::wire::encode_list($v.len(), $v.iter(), $buf)
    };
    (@get $buf:ident, $field:tt) => {
        $crate::message::Wire::decode_from($buf)?
    };
    (@get $buf:ident, $field:tt, $cap:expr) => {
        $crate::wire::decode_list($buf, $cap, stringify!($field))?
    };
    ($ty:ty { $($field:tt $(: list($cap:expr))?),+ $(,)? } $(, validate = $check:expr)?) => {
        impl $crate::message::Wire for $ty {
            fn encode_into(&self, buf: &mut ::bytes::BytesMut) {
                $($crate::wire::wire_struct!(@put buf, self.$field $(, $cap)?);)+
            }

            fn decode_from(buf: &mut ::bytes::Bytes) -> $crate::Result<Self> {
                let v = Self {
                    $($field: $crate::wire::wire_struct!(@get buf, $field $(, $cap)?),)+
                };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };
}
pub(crate) use wire_struct;

/// `Wire` for a tagged enum: a `u8` tag, then the variant's field list.
///
/// Unit variants are written `Variant {}`; a tuple variant names its
/// field and a binding, `Variant { 0: x }`. `validate` as in
/// [`wire_struct!`].
macro_rules! wire_enum {
    (@bind $field:tt $bind:ident) => {
        $bind
    };
    (@bind $field:ident) => {
        $field
    };
    (
        $ty:ty, $what:literal {
            $($tag:literal => $variant:ident { $($field:tt $(: $bind:ident)?),* }),+ $(,)?
        } $(, validate = $check:expr)?
    ) => {
        impl $crate::message::Wire for $ty {
            fn encode_into(&self, buf: &mut ::bytes::BytesMut) {
                match self {
                    $(Self::$variant { $($field $(: $bind)?),* } => {
                        ::bytes::BufMut::put_u8(buf, $tag);
                        $($crate::message::Wire::encode_into(
                            $crate::wire::wire_enum!(@bind $field $($bind)?),
                            buf,
                        );)*
                    })+
                }
            }

            fn decode_from(buf: &mut ::bytes::Bytes) -> $crate::Result<Self> {
                let v = match <u8 as $crate::message::Wire>::decode_from(buf)? {
                    $($tag => Self::$variant {
                        $($field: $crate::message::Wire::decode_from(buf)?,)*
                    },)+
                    other => {
                        return Err($crate::FlError::BadConfig {
                            reason: format!("unknown {} tag {other}", $what),
                        })
                    }
                };
                $($check(&v)?;)?
                Ok(v)
            }
        }
    };
}
pub(crate) use wire_enum;

/// `Wire` for a foreign type that is a counted list behind accessors:
/// `|v| (len, iter)` views it for encoding, `build` rebuilds it from the
/// decoded `Vec`.
macro_rules! wire_list {
    ($ty:ty, $cap:expr, $what:literal, |$v:ident| ($len:expr, $iter:expr), $build:expr) => {
        impl $crate::message::Wire for $ty {
            fn encode_into(&self, buf: &mut ::bytes::BytesMut) {
                let $v = self;
                $crate::wire::encode_list($len, $iter, buf);
            }

            fn decode_from(buf: &mut ::bytes::Bytes) -> $crate::Result<Self> {
                $crate::wire::decode_list(buf, $cap, $what).map($build)
            }
        }
    };
}
pub(crate) use wire_list;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{decode, encode, ShardRoundReply, ShardScreen, ShardScreenReply};

    fn refusal<T: Wire + std::fmt::Debug>(bytes: &[u8]) -> String {
        decode::<T>(bytes).unwrap_err().to_string()
    }

    #[test]
    fn a_count_the_body_cannot_hold_is_refused_before_any_item() {
        // 8 bytes claiming a million items and nothing behind them: the
        // list itself reports the truncation (naming the full count),
        // not the first item's decoder after a million-slot reservation.
        let hostile = encode(&limits::MAX_LIST_ITEMS);
        for text in [
            refusal::<ShardScreen>(&hostile),
            refusal::<ShardScreenReply>(&hostile),
        ] {
            assert!(
                text.contains(&format!("need {} bytes", limits::MAX_LIST_ITEMS)),
                "{text}"
            );
        }
        // `others` sits behind an (empty) partial aggregate.
        let mut reply = encode(&0u64);
        reply.extend_from_slice(&hostile);
        let text = refusal::<ShardRoundReply>(&reply);
        assert!(text.contains("for others"), "{text}");
        // One past the cap is refused by the cap, whatever follows.
        let mut over = encode(&(limits::MAX_LIST_ITEMS + 1));
        over.resize(64, 0);
        let text = refusal::<ShardScreen>(&over);
        assert!(text.contains("exceeds protocol maximum"), "{text}");
    }

    #[test]
    fn a_usize_this_target_cannot_hold_is_refused_not_truncated() {
        assert_eq!(decode::<usize>(&encode(&77usize)).unwrap(), 77);
        if usize::BITS < u64::BITS {
            let text = refusal::<usize>(&encode(&(u64::from(u32::MAX) + 5)));
            assert!(text.contains("exceeds protocol maximum"), "{text}");
        }
    }

    #[test]
    fn float_runs_round_trip_bit_for_bit_at_every_block_edge() {
        // Values whose bits a float comparison would blur: both zeros, a
        // quiet and a signalling NaN with payloads, infinities, a subnormal.
        let odd = [
            0x0000_0000u32,
            0x8000_0000,
            0x7FC0_1234,
            0xFFA0_0001,
            0x7F80_0000,
            0xFF80_0000,
            0x0000_0001,
        ];
        for n in [0, 1, F32_BLOCK - 1, F32_BLOCK, F32_BLOCK + 1, 3 * F32_BLOCK] {
            let values: Vec<f32> = (0..n)
                .map(|i| match odd.get(i % 11) {
                    Some(&bits) => f32::from_bits(bits),
                    None => i as f32 * -0.37,
                })
                .collect();
            let mut buf = BytesMut::new();
            buf.put_u8(0xEE);
            put_f32s(&mut buf, &values);
            // The layout is the per-float one, whatever the blocking.
            let mut one_by_one = BytesMut::new();
            one_by_one.put_u8(0xEE);
            values.iter().for_each(|&x| one_by_one.put_f32_le(x));
            assert_eq!(buf, one_by_one, "n = {n}");
            let mut bytes = buf.freeze();
            assert_eq!(bytes.get_u8(), 0xEE);
            let back = get_f32s(&mut bytes, n, "floats").unwrap();
            assert!(!bytes.has_remaining());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&values), "n = {n}");
        }
        // One byte short: refused whole, the cursor where it was.
        let mut short = Bytes::copy_from_slice(&[0u8; 11]);
        let text = get_f32s(&mut short, 3, "floats").unwrap_err().to_string();
        assert!(text.contains("need 12 bytes for floats"), "{text}");
        assert_eq!(short.remaining(), 11);
    }

    fn varint(bytes: &[u8]) -> Result<(u32, usize)> {
        let mut buf = Bytes::copy_from_slice(bytes);
        let v = get_varint(&mut buf, "gap")?;
        Ok((v, bytes.len() - buf.remaining()))
    }

    #[test]
    fn varints_round_trip_in_the_length_they_claim() {
        let edges = [
            (0u32, 1),
            (0x7F, 1),
            (0x80, 2),
            (0x3FFF, 2),
            (0x4000, 3),
            (0x1F_FFFF, 3),
            (0x20_0000, 4),
            (0xFFF_FFFF, 4),
            (0x1000_0000, 5),
            (u32::MAX, 5),
        ];
        for (v, len) in edges {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), len, "{v:#x}");
            assert_eq!(varint_len(v), len, "{v:#x}");
            // Trailing bytes are left for the next field.
            buf.put_slice(&[0xFF; 6]);
            assert_eq!(varint(buf.as_slice()).unwrap(), (v, len), "{v:#x}");
        }
    }

    #[test]
    fn a_varint_has_one_accepted_form() {
        let refused = |bytes: &[u8]| varint(bytes).unwrap_err().to_string();
        for cut in [&[][..], &[0x80], &[0xFF, 0xFF, 0xFF, 0xFF]] {
            let text = refused(cut);
            assert!(text.contains("varint cut short for gap"), "{text}");
        }
        let six = refused(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
        assert!(six.contains("longer than 5 bytes"), "{six}");
        let ends_on_a_continuation = refused(&[0xFF, 0xFF, 0xFF, 0xFF, 0x8F]);
        assert!(
            ends_on_a_continuation.contains("longer than 5 bytes"),
            "{ends_on_a_continuation}"
        );
        // 0x1F in the fifth byte would be bit 32.
        for fifth in [0x10, 0x1F, 0x7F, 0x90] {
            let text = refused(&[0xFF, 0xFF, 0xFF, 0xFF, fifth]);
            assert!(text.contains("overflows u32"), "{fifth:#x}: {text}");
        }
        // A zero final group after a continuation: 0, 127 and 1 again,
        // each a byte or more longer than `put_varint` writes it.
        for overlong in [
            &[0x80, 0x00][..],
            &[0xFF, 0x80, 0x00],
            &[0x81, 0x80, 0x80, 0x80, 0x00],
        ] {
            let text = refused(overlong);
            assert!(text.contains("overlong varint"), "{overlong:?}: {text}");
        }
        // Zero itself is one byte, not overlong.
        assert_eq!(varint(&[0x00]).unwrap(), (0, 1));
    }

    #[test]
    fn leaves_round_trip_and_reject_bad_flags() {
        let entry = (7u64, Some("naïve".to_owned()));
        assert_eq!(
            decode::<(u64, Option<String>)>(&encode(&entry)).unwrap(),
            entry
        );
        assert_eq!(
            decode::<[u8; 4]>(&encode(&[1u8, 2, 3, 4])).unwrap(),
            [1, 2, 3, 4]
        );
        assert!(refusal::<Option<u8>>(&[2, 0]).contains("presence flag 2"));
        assert!(refusal::<String>(&[1, 0, 0, 0, 0, 0, 0, 0, 0xFF]).contains("UTF-8"));
        assert!(refusal::<u16>(&[1]).contains("need 2 bytes for u16"));
    }
}

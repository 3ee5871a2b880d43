//! The leaf shapes of the wire grammar, and the macros that spell a
//! message as a list of them.
//!
//! How an integer, a `usize`, a fixed array, a string, an optional and a
//! counted list are laid out — and bounded on decode — is decided here,
//! once. Every message in [`crate::message`], [`crate::codec`],
//! [`crate::faults`] and [`crate::adversary`] is then a field list
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

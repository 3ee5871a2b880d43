//! The exact FedAvg fold: Σ nᵢ·wᵢ held as an integer, so adding terms
//! is associative and commutative in bits.
//!
//! For a finite f32 `x` and a sample count `n < 2⁶⁴`, the product `n·x`
//! is an integer multiple of 2⁻¹⁴⁹ (the least f32 subnormal) below 2¹⁹²
//! in magnitude. Two stores hold the sum, and a product goes to one of
//! them by its value alone:
//!
//! * **The window.** Per coordinate, an `i128` in units of 2⁻⁸⁰. A
//!   product whose bits all lie in [2⁻⁸⁰, 2³⁰) lands here — any |x| in
//!   about [2⁻⁵⁷, 2¹³) with `n ≤ 2¹⁶`, which is every honest update — so
//!   a window coordinate is below 2¹¹⁰ units a product, and 2¹⁷ products
//!   fit in one. Before a term would pass that headroom, every window
//!   coordinate is flushed into the overflow and the window restarts.
//! * **The overflow.** Any other product — a subnormal, a hostile
//!   ±`f32::MAX`, a huge `n` — goes to a sparse map from coordinate to a
//!   [`Wide`]: a superaccumulator in the sense of Neal's "Fast exact
//!   summation using small and large superaccumulators" (arXiv:1505.05571),
//!   here six 64-bit two's-complement limbs in units of 2⁻¹⁴⁹.
//!
//! The finish reads the exact Σ of a coordinate, however it is split
//! between the two, and writes Σ / N rounded once to the nearest f32
//! (ties to even). A zero sum finishes as `+0.0`.
//!
//! A sparse delta term checked against view `v` stands for
//! `wⱼ = f32(vⱼ + δⱼ)` at its kept coordinates and `vⱼ` everywhere else.
//! It adds `nᵢ·wⱼ − nᵢ·vⱼ` at its kept coordinates only, and `nᵢ` to a
//! count kept per (view, tensor); the finish adds each count times its
//! view once. So a sparse term costs its kept coefficients, not the
//! model. Where `f32(wⱼ − vⱼ)` is `wⱼ − vⱼ` exactly — its TwoSum residual
//! is zero, which holds whenever |δⱼ| ≤ |vⱼ| — the difference is one
//! product, `nᵢ·f32(wⱼ − vⱼ)`; otherwise it is the two.

use std::collections::BTreeMap;
use std::sync::Arc;

use gradsec_nn::model::ModelWeights;
use gradsec_tensor::Tensor;

use crate::codec::{flat_tensor, flatten, layers};
#[cfg(test)]
use crate::message::probe;
use crate::message::ArrivedWeights;
use crate::{FlError, Result};

/// Coordinates of one tensor [`Fold`] reads from a dense or int8 term at
/// a time: the fold holds one term at most, so its chunk can be long
/// enough to make a reader's per-call cost vanish.
const FOLD_CHUNK: usize = 1024;

/// A window product is below 2^`WINDOW_BITS` units of 2⁻⁸⁰, that is
/// below 2³⁰.
const WINDOW_BITS: u32 = 110;

/// Products a window coordinate takes between flushes:
/// 2¹⁷ · 2¹¹⁰ < 2¹²⁷.
const HEADROOM: usize = 1 << 17;

/// From the window's unit, 2⁻⁸⁰, to the overflow's, 2⁻¹⁴⁹.
const WINDOW_TO_WIDE: u32 = 69;

/// The one FedAvg fold, exact. Terms are added in any order; the finish
/// divides by N = Σ nᵢ once. Each term is read through its
/// [`TensorReader`](crate::codec::TensorReader)s, a chunk of one tensor
/// at a time, or walked over its kept coefficients if it is a sparse
/// delta, so a wire-form term is never expanded.
pub(super) struct Fold {
    /// Per flattened tensor: the dims every term must have, taken from
    /// the reference model or else from the first term.
    dims: Vec<Vec<usize>>,
    /// Per flattened tensor, each coordinate's window sum, in units of
    /// 2⁻⁸⁰. Empty until the first term.
    window: Vec<Vec<i128>>,
    /// Products any one window coordinate took since the last flush, at
    /// most.
    window_terms: usize,
    /// Sums outside the window, by (tensor, coordinate).
    overflow: BTreeMap<(usize, usize), Wide>,
    /// Each view a sparse term was checked against, matched by
    /// `Arc::ptr_eq`, with Σ nᵢ of those terms per tensor.
    views: Vec<(Arc<ModelWeights>, Vec<u64>)>,
    /// One chunk of a term's coefficients.
    chunk: Vec<f32>,
}

impl Fold {
    /// An empty fold whose terms must have `shape`'s tensor dims; with no
    /// shape, the first term's.
    pub(super) fn new(shape: Option<&ModelWeights>) -> Self {
        let dims = shape.map_or_else(Vec::new, |w| {
            flatten(w).iter().map(|t| t.dims().to_vec()).collect()
        });
        Fold {
            dims,
            window: Vec::new(),
            window_terms: 0,
            overflow: BTreeMap::new(),
            views: Vec::new(),
            chunk: Vec::new(),
        }
    }

    /// Adds `samples` times the coefficients of `client`'s term.
    pub(super) fn add(
        &mut self,
        client: u64,
        samples: usize,
        weights: &ArrivedWeights,
    ) -> Result<()> {
        let count = weights.tensors();
        if self.dims.is_empty() {
            self.dims = (0..count).map(|i| weights.dims(i).to_vec()).collect();
        }
        let disagree = |what: &str| FlError::BadAggregation {
            reason: format!("update from client {client} disagrees on layer {what}"),
        };
        if count != self.dims.len() {
            return Err(disagree("count"));
        }
        if (0..count).any(|i| weights.dims(i) != self.dims[i]) {
            return Err(disagree("shapes"));
        }
        if self.window.is_empty() {
            let len = |dims: &Vec<usize>| dims.iter().product::<usize>();
            self.window = self.dims.iter().map(|d| vec![0; len(d)]).collect();
            self.chunk = vec![0.0; FOLD_CHUNK];
        }
        // A sparse tensor adds at most two products at a kept coordinate.
        let sparse = (0..count).any(|i| weights.delta(i).is_some());
        self.reserve(if sparse { 2 } else { 1 });
        let n = Scale::new(samples as u64);
        for i in 0..count {
            match weights.delta(i) {
                Some((view, entries)) => {
                    let base = flat_tensor(view, i).data();
                    let at = match self.views.iter().position(|(v, _)| Arc::ptr_eq(v, view)) {
                        Some(at) => at,
                        None => {
                            self.views.push((view.clone(), vec![0; count]));
                            self.views.len() - 1
                        }
                    };
                    let c = &mut self.views[at].1[i];
                    *c = c.wrapping_add(n.n);
                    let window = &mut self.window[i];
                    for (j, d) in entries {
                        let j = j as usize;
                        let v = base[j];
                        // What the term stands for here, as `rebuild` adds it.
                        let w = v + d;
                        let acc = &mut window[j];
                        let e = w - v;
                        if two_sum_residual(w, -v, e) == 0.0 {
                            // `e` is `w − v` exactly: n·e is n·w − n·v.
                            add(acc, &mut self.overflow, client, (i, j), n, e)?;
                        } else {
                            add(acc, &mut self.overflow, client, (i, j), n, w)?;
                            add(acc, &mut self.overflow, client, (i, j), n, -v)?;
                        }
                    }
                }
                None => {
                    let mut reader = weights.reader(i);
                    let len = self.window[i].len();
                    for start in (0..len).step_by(FOLD_CHUNK) {
                        let xs = &mut self.chunk[..FOLD_CHUNK.min(len - start)];
                        reader.fill(xs);
                        let window = &mut self.window[i][start..start + xs.len()];
                        for (j, (acc, &x)) in window.iter_mut().zip(xs.iter()).enumerate() {
                            add(acc, &mut self.overflow, client, (i, start + j), n, x)?;
                        }
                    }
                }
            }
        }
        #[cfg(test)]
        probe::note(probe::Event::Folded(client));
        Ok(())
    }

    /// Makes room in the window for `products` more a coordinate,
    /// flushing it into the overflow if they would pass its headroom.
    fn reserve(&mut self, products: usize) {
        if self.window_terms + products > HEADROOM {
            for (i, window) in self.window.iter_mut().enumerate() {
                for (j, u) in window.iter_mut().enumerate().filter(|(_, u)| **u != 0) {
                    let wide = self.overflow.entry((i, j)).or_default();
                    wide.add(u.unsigned_abs(), WINDOW_TO_WIDE, *u < 0);
                    *u = 0;
                }
            }
            self.window_terms = 0;
        }
        self.window_terms += products;
    }

    /// The exact sum at coordinate `j` of tensor `i`, in units of 2⁻¹⁴⁹.
    fn sum(&self, i: usize, j: usize) -> Wide {
        let mut sum = Wide::default();
        let u = self.window[i][j];
        sum.add(u.unsigned_abs(), WINDOW_TO_WIDE, u < 0);
        if let Some(o) = self.overflow.get(&(i, j)) {
            sum.add_wide(o);
        }
        sum
    }

    /// Adds each sparse term's view times the terms' Σ nᵢ, so the sums
    /// stand for every term in full.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadAggregation`] if a view holds a non-finite
    /// coefficient.
    fn fold_views(&mut self) -> Result<()> {
        for (view, counts) in std::mem::take(&mut self.views) {
            for (i, &c) in counts.iter().enumerate().filter(|(_, c)| **c != 0) {
                self.reserve(1);
                let c = Scale::new(c);
                let window = self.window[i].iter_mut();
                for (j, (acc, &v)) in window.zip(flat_tensor(&view, i).data()).enumerate() {
                    add(acc, &mut self.overflow, 0, (i, j), c, v).map_err(|_| {
                        FlError::BadAggregation {
                            reason: format!(
                                "delta view holds non-finite coefficient {v} in tensor {i}"
                            ),
                        }
                    })?;
                }
            }
        }
        Ok(())
    }

    /// The average: each coordinate's exact Σ divided by `total` and
    /// rounded to the nearest f32 once.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::BadAggregation`] if a sparse term's view holds a
    /// non-finite coefficient, which no update can average to.
    pub(super) fn finish(mut self, total: usize) -> Result<ModelWeights> {
        self.fold_views()?;
        let n = total as u64;
        let mut overflow = self.overflow.keys().copied().peekable();
        let tensors = self
            .dims
            .iter()
            .zip(&self.window)
            .enumerate()
            .map(|(i, (dims, window))| {
                let data = (window.iter().enumerate())
                    .map(|(j, &u)| match overflow.next_if_eq(&(i, j)) {
                        Some(_) => self.sum(i, j).mean(n),
                        None => window_mean(u, n),
                    })
                    .collect();
                Tensor::from_vec(data, dims).expect("the average mirrors a term's shape")
            });
        Ok(layers(tensors))
    }
}

/// What `s = f32(a + b)` misses of `a + b`: Knuth's TwoSum error term.
/// It is exact when no step overflows, and not finite when one does or
/// an operand is infinite or NaN, so it is zero only when `s` is `a + b`
/// exactly.
#[inline]
fn two_sum_residual(a: f32, b: f32, s: f32) -> f32 {
    let b_part = s - a;
    (a - (s - b_part)) + (b - b_part)
}

/// `|x| = m · 2^(e − 149)`: the sign, the integer significand `m` and the
/// exponent `e` of finite `x`, in units of 2⁻¹⁴⁹. Infinities and NaNs
/// have `e = 254`.
#[inline]
fn parts(x: f32) -> (bool, u32, u32) {
    let bits = x.to_bits();
    let exp = (bits >> 23) & 0xff;
    let frac = bits & 0x7f_ffff;
    let m = if exp == 0 { frac } else { frac | 0x80_0000 };
    (bits >> 31 == 1, m, exp.max(1) - 1)
}

/// `n·x` in the window's units of 2⁻⁸⁰, if its bits all lie in
/// [2⁻⁸⁰, 2³⁰) — a function of the product's value alone.
#[inline]
fn window_units(n: u64, x: f32) -> Option<i128> {
    let (negative, m, e) = parts(x);
    if e == 254 {
        return None;
    }
    // n·x = p · 2^(e − 149) = p · 2^(e − 69) units.
    let p = u128::from(n) * u128::from(m);
    let units = if e >= WINDOW_TO_WIDE {
        let up = e - WINDOW_TO_WIDE;
        if up >= WINDOW_BITS || p >> (WINDOW_BITS - up) != 0 {
            return None;
        }
        p << up
    } else {
        let down = WINDOW_TO_WIDE - e;
        if p.trailing_zeros() < down || p >> down >> WINDOW_BITS != 0 {
            return None;
        }
        p >> down
    };
    let units = units as i128;
    Some(if negative { -units } else { units })
}

/// A term's sample count, with the bound of its fast window test.
#[derive(Debug, Clone, Copy)]
struct Scale {
    n: u64,
    /// Products `n·x` with `x`'s biased exponent below `70 + bound` and
    /// at least 70 land in the window: `x`'s last bit is at least 2⁻⁸⁰,
    /// and `n·m < 2⁶⁴` shifted by the exponent stays below 2¹¹⁰. Zero
    /// when `n ≥ 2⁴⁰`, whose products always take the full test.
    bound: u32,
}

impl Scale {
    fn new(n: u64) -> Self {
        let len = 64 - n.leading_zeros();
        let bound = if len <= 40 {
            WINDOW_BITS - 24 - len + 1
        } else {
            0
        };
        Scale { n, bound }
    }
}

/// Adds `n·x` at coordinate `at` to its window sum `acc` if it fits the
/// window — by the fast test if it can, else by [`window_units`] — and to
/// the overflow otherwise.
///
/// # Errors
///
/// Returns [`FlError::BadAggregation`] naming `client` for a non-finite
/// `x`, which has no exact sum.
#[inline]
fn add(
    acc: &mut i128,
    overflow: &mut BTreeMap<(usize, usize), Wide>,
    client: u64,
    at: (usize, usize),
    n: Scale,
    x: f32,
) -> Result<()> {
    let bits = x.to_bits();
    let up = ((bits >> 23) & 0xff).wrapping_sub(70);
    if up < n.bound {
        let p = n.n * u64::from((bits & 0x7f_ffff) | 0x80_0000);
        let units = i128::from(p) << up;
        let sign = i128::from((bits as i32) >> 31);
        *acc += (units ^ sign) - sign;
        return Ok(());
    }
    add_slow(acc, overflow, client, at, n.n, x)
}

/// [`add`] past its fast test.
#[cold]
#[inline(never)]
fn add_slow(
    acc: &mut i128,
    overflow: &mut BTreeMap<(usize, usize), Wide>,
    client: u64,
    at: (usize, usize),
    n: u64,
    x: f32,
) -> Result<()> {
    if let Some(u) = window_units(n, x) {
        *acc += u;
        return Ok(());
    }
    if !x.is_finite() {
        return Err(non_finite(client, at.0, at.1, x));
    }
    let (negative, m, e) = parts(x);
    let p = u128::from(n) * u128::from(m);
    if p != 0 {
        overflow.entry(at).or_default().add(p, e, negative);
    }
    Ok(())
}

/// The one refusal of a non-finite coefficient in an update the fold or
/// a coordinate-wise rule reads.
pub(super) fn non_finite(client: u64, i: usize, j: usize, x: f32) -> FlError {
    FlError::BadAggregation {
        reason: format!("update from client {client} holds non-finite coefficient {x} in tensor {i} at index {j}"),
    }
}

/// `u · 2⁻⁸⁰ / n` rounded to the nearest f32.
fn window_mean(u: i128, n: u64) -> f32 {
    let a = u.unsigned_abs();
    let q = a / u128::from(n);
    if q >> 25 == 0 {
        // Fewer than 26 quotient bits in the window's unit: the rounding
        // needs bits below it.
        let mut wide = Wide::default();
        wide.add(a, WINDOW_TO_WIDE, u < 0);
        return wide.mean(n);
    }
    let sticky_r = !a.is_multiple_of(u128::from(n));
    let shift = 128 - q.leading_zeros() - 24;
    let mant = (q >> shift) as u32;
    let round = q >> (shift - 1) & 1 == 1;
    let sticky = sticky_r || q & ((1 << (shift - 1)) - 1) != 0;
    rounded(u < 0, shift + WINDOW_TO_WIDE, mant, round, sticky)
}

/// The f32 of sign `negative` nearest to `mant · 2^(shift − 149)` plus
/// what was cut below it: `round` is the first bit cut, `sticky` whether
/// any later one is set. `mant` is below 2²⁴, and at least 2²³ unless
/// `shift` is 0.
fn rounded(negative: bool, shift: u32, mant: u32, round: bool, sticky: bool) -> f32 {
    let up = round && (sticky || mant & 1 == 1);
    // mant · 2^(shift − 149) with mant in [2²³, 2²⁴) has biased exponent
    // shift + 1 and fraction mant − 2²³; below 2²³ (shift 0) it is the
    // subnormal mant; and a rounding up to 2²⁴ carries into the exponent.
    let bits = (shift << 23) + mant + u32::from(up);
    debug_assert!(bits < 0x7f80_0000, "a mean of finite values is finite");
    f32::from_bits(bits | u32::from(negative) << 31)
}

/// Limbs of a [`Wide`]: 384 bits hold any Σ nᵢ·xᵢ whose N fits 64 bits.
const LIMBS: usize = 6;

/// A signed integer in units of 2⁻¹⁴⁹, two's complement over [`LIMBS`]
/// little-endian 64-bit limbs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Wide([u64; LIMBS]);

impl Wide {
    /// Adds `magnitude · 2^shift`, negated if `negative`, where the
    /// shifted magnitude is below 2³⁸².
    fn add(&mut self, magnitude: u128, shift: u32, negative: bool) {
        let mut term = [0u64; LIMBS];
        let (limb, bit) = ((shift / 64) as usize, shift % 64);
        let (lo, hi) = (magnitude as u64, (magnitude >> 64) as u64);
        let parts = match bit {
            0 => [lo, hi, 0],
            b => [lo << b, hi << b | lo >> (64 - b), hi >> (64 - b)],
        };
        for (k, part) in parts.into_iter().enumerate() {
            if let Some(t) = term.get_mut(limb + k) {
                *t = part;
            } else {
                debug_assert_eq!(part, 0, "the shifted magnitude fits");
            }
        }
        let mut term = Wide(term);
        if negative {
            term = term.negated();
        }
        self.add_wide(&term);
    }

    /// Adds `other`, wrapping at 2³⁸⁴.
    fn add_wide(&mut self, other: &Wide) {
        let mut carry = false;
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            let (s, c1) = a.overflowing_add(b);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            *a = s;
            carry = c1 || c2;
        }
    }

    fn negated(self) -> Wide {
        let mut out = Wide(self.0.map(|l| !l));
        out.add_wide(&Wide([1, 0, 0, 0, 0, 0]));
        out
    }

    fn is_negative(&self) -> bool {
        self.0[LIMBS - 1] >> 63 == 1
    }

    /// The magnitude divided by `n`, and the remainder.
    fn div_rem(&self, n: u64) -> (Wide, u64) {
        let (mut q, mut r) = ([0u64; LIMBS], 0u64);
        for k in (0..LIMBS).rev() {
            let cur = u128::from(r) << 64 | u128::from(self.0[k]);
            q[k] = (cur / u128::from(n)) as u64;
            r = (cur % u128::from(n)) as u64;
        }
        (Wide(q), r)
    }

    /// How many bits the (non-negative) value spans.
    fn bit_len(&self) -> u32 {
        (0..LIMBS)
            .rev()
            .find(|&k| self.0[k] != 0)
            .map_or(0, |k| 64 * k as u32 + 64 - self.0[k].leading_zeros())
    }

    /// The 24 bits from bit `lo` up.
    fn bits24(&self, lo: u32) -> u32 {
        let (k, b) = ((lo / 64) as usize, lo % 64);
        let next = self.0.get(k + 1).copied().unwrap_or(0);
        let two = u128::from(self.0[k]) | u128::from(next) << 64;
        (two >> b) as u32 & 0xff_ffff
    }

    fn bit(&self, at: u32) -> bool {
        self.0[(at / 64) as usize] >> (at % 64) & 1 == 1
    }

    /// Whether any bit below `at` is set.
    fn any_below(&self, at: u32) -> bool {
        let (k, b) = ((at / 64) as usize, at % 64);
        self.0[..k].iter().any(|&l| l != 0) || self.0[k] & ((1 << b) - 1) != 0
    }

    /// This sum divided by `n` and rounded to the nearest f32.
    fn mean(&self, n: u64) -> f32 {
        let negative = self.is_negative();
        let magnitude = if negative { self.negated() } else { *self };
        let (q, r) = magnitude.div_rem(n);
        let len = q.bit_len();
        if len <= 24 {
            // The unit is the f32 quantum here: round on r / n against ½.
            let twice = 2 * u128::from(r);
            let half = u128::from(n);
            return rounded(negative, 0, q.0[0] as u32, twice >= half, twice > half);
        }
        let shift = len - 24;
        let round = q.bit(shift - 1);
        let sticky = r != 0 || q.any_below(shift - 1);
        rounded(negative, shift, q.bits24(shift), round, sticky)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ArrivedWeights;
    use gradsec_nn::model::LayerWeights;

    /// A test-only signed big integer: a sign and little-endian 32-bit
    /// digits of the magnitude, with no leading zero digit.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Big {
        negative: bool,
        digits: Vec<u32>,
    }

    impl Big {
        fn zero() -> Big {
            Big {
                negative: false,
                digits: Vec::new(),
            }
        }

        /// `m · 2^shift`, negated if `negative`.
        fn shifted(negative: bool, m: u128, shift: u32) -> Big {
            let mut digits = vec![0u32; (shift / 32) as usize];
            let mut rest = m;
            let mut carry_in = 0u64;
            let b = shift % 32;
            while rest != 0 || carry_in != 0 {
                let d = (rest & 0xffff_ffff) as u64;
                rest >>= 32;
                let v = d << b | carry_in;
                digits.push(v as u32);
                carry_in = v >> 32;
            }
            Big { negative, digits }.trimmed()
        }

        fn trimmed(mut self) -> Big {
            while self.digits.last() == Some(&0) {
                self.digits.pop();
            }
            if self.digits.is_empty() {
                self.negative = false;
            }
            self
        }

        fn cmp_magnitude(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
            a.len()
                .cmp(&b.len())
                .then_with(|| a.iter().rev().cmp(b.iter().rev()))
        }

        fn add(&self, other: &Big) -> Big {
            if self.negative == other.negative {
                let mut digits = Vec::new();
                let mut carry = 0u64;
                for k in 0..self.digits.len().max(other.digits.len()) {
                    let s = u64::from(*self.digits.get(k).unwrap_or(&0))
                        + u64::from(*other.digits.get(k).unwrap_or(&0))
                        + carry;
                    digits.push(s as u32);
                    carry = s >> 32;
                }
                digits.push(carry as u32);
                return Big {
                    negative: self.negative,
                    digits,
                }
                .trimmed();
            }
            let (big, small) = match Big::cmp_magnitude(&self.digits, &other.digits) {
                std::cmp::Ordering::Less => (other, self),
                _ => (self, other),
            };
            let mut digits = Vec::new();
            let mut borrow = 0i64;
            for k in 0..big.digits.len() {
                let mut d = i64::from(big.digits[k])
                    - i64::from(*small.digits.get(k).unwrap_or(&0))
                    - borrow;
                borrow = i64::from(d < 0);
                if d < 0 {
                    d += 1 << 32;
                }
                digits.push(d as u32);
            }
            Big {
                negative: big.negative,
                digits,
            }
            .trimmed()
        }

        fn mul_small(&self, n: u64) -> Big {
            let mut out = Big::zero();
            for (k, &d) in self.digits.iter().enumerate() {
                let part = Big::shifted(false, u128::from(d) * u128::from(n), 32 * k as u32);
                out = out.add(&part);
            }
            out.negative = self.negative && !out.digits.is_empty();
            out
        }

        /// `n·x` in units of 2⁻¹⁴⁹, from the float's bits.
        fn product(n: u64, x: f32) -> Big {
            let (negative, m, e) = parts(x);
            Big::shifted(negative, u128::from(n) * u128::from(m), e)
        }

        /// A finite `f` in units of 2⁻¹⁴⁹.
        fn of_f32(f: f32) -> Big {
            Big::product(1, f)
        }

        fn of_wide(w: &Wide) -> Big {
            let negative = w.is_negative();
            let magnitude = if negative { w.negated() } else { *w };
            let digits = magnitude
                .0
                .iter()
                .flat_map(|&l| [l as u32, (l >> 32) as u32])
                .collect();
            Big { negative, digits }.trimmed()
        }
    }

    /// `s / n` rounded to the nearest f32, ties to even, found by a binary
    /// search over the f32 bit patterns and exact comparisons — no
    /// shifting, no division.
    fn oracle_mean(s: &Big, n: u64) -> f32 {
        // Non-negative f32 bit patterns order like their values.
        let scaled = |bits: u32| Big::of_f32(f32::from_bits(bits)).mul_small(n);
        let magnitude = Big {
            negative: false,
            digits: s.digits.clone(),
        };
        let below = |bits: u32| Big::cmp_magnitude(&scaled(bits).digits, &magnitude.digits).is_le();
        // The largest finite pattern whose value times n is at most |s|.
        let (mut lo, mut hi) = (0u32, 0x7f7f_ffff);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if below(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let pick = if lo == 0x7f7f_ffff {
            lo
        } else {
            // Against the midpoint: 2|s| vs (f + f⁺)·n.
            let twice = magnitude.add(&magnitude);
            let mid = scaled(lo).add(&scaled(lo + 1));
            match Big::cmp_magnitude(&twice.digits, &mid.digits) {
                std::cmp::Ordering::Less => lo,
                std::cmp::Ordering::Greater => lo + 1,
                std::cmp::Ordering::Equal => lo + (lo & 1),
            }
        };
        f32::from_bits(pick | u32::from(s.negative) << 31)
    }

    /// A one-tensor-pair model whose weight tensor holds `xs`.
    fn model(xs: &[f32]) -> ModelWeights {
        ModelWeights::new(vec![LayerWeights {
            w: Tensor::from_vec(xs.to_vec(), &[xs.len()]).unwrap(),
            b: Tensor::from_vec(vec![0.0], &[1]).unwrap(),
        }])
    }

    /// [`model`]`(xs)` as a dense term.
    fn term(xs: &[f32]) -> ArrivedWeights {
        ArrivedWeights::Dense(model(xs))
    }

    /// A term of the oracle property: dense coefficients, or a sparse
    /// delta against the fold's one view, holding per coordinate the kept
    /// delta or `None` where the view stands.
    #[derive(Debug, Clone)]
    enum Term {
        Dense(Vec<f32>),
        Delta(Vec<Option<f32>>),
    }

    impl Term {
        /// What the term stands for at coordinate `j`: for a delta, the
        /// view's coefficient plus the kept delta in f32, as `rebuild`
        /// adds it.
        fn at(&self, view: &[f32], j: usize) -> f32 {
            match self {
                Term::Dense(xs) => xs[j],
                Term::Delta(ds) => ds[j].map_or(view[j], |d| view[j] + d),
            }
        }

        /// The term as it reaches the fold: dense, or a delta in wire
        /// form, checked against `view`.
        fn arrived(&self, view: &Arc<ModelWeights>) -> ArrivedWeights {
            use crate::codec::{CheckedWeights, CodecKind, EncodedBody, EncodedTensor};
            use crate::codec::{EncodedWeights, SparseDelta};
            let ds = match self {
                Term::Dense(xs) => return term(xs),
                Term::Delta(ds) => ds,
            };
            let kept = (ds.iter().enumerate()).filter_map(|(j, d)| d.map(|d| (j as u32, d)));
            let tensor = |dims: Vec<usize>, body| EncodedTensor { dims, body };
            let enc = EncodedWeights {
                codec: CodecKind::DeltaTopK,
                epoch: 1,
                base_epoch: Some(0),
                tensors: vec![
                    tensor(
                        vec![ds.len()],
                        EncodedBody::TopK(SparseDelta::from_entries(kept)),
                    ),
                    tensor(vec![1], EncodedBody::Dense(vec![0.0])),
                ],
            };
            let checked = CheckedWeights::new(enc, Some(view.clone()));
            ArrivedWeights::Wire(Box::new(checked.expect("every kept sum is finite")))
        }
    }

    /// Every fold of dense `terms`, `(nᵢ, coefficients)`, in `order` sums
    /// to the oracle's exact Σ at each coordinate and finishes to its
    /// correctly rounded Σ / N.
    fn check(terms: &[(u64, Vec<f32>)], order: &[usize]) -> std::result::Result<(), String> {
        let view = vec![0.0; terms[0].1.len()];
        let terms: Vec<_> = (terms.iter())
            .map(|(n, xs)| (*n, Term::Dense(xs.clone())))
            .collect();
        check_terms(&view, &terms, order)
    }

    /// [`check`] over dense and delta `terms`, the deltas against `view`:
    /// once the fold has added the view for its delta terms, each
    /// coordinate's sum is the oracle's Σ nᵢ·(what term i stands for).
    fn check_terms(
        view: &[f32],
        terms: &[(u64, Term)],
        order: &[usize],
    ) -> std::result::Result<(), String> {
        let shared = Arc::new(model(view));
        let mut fold = Fold::new(None);
        for &t in order {
            let (n, term) = &terms[t];
            fold.add(t as u64, *n as usize, &term.arrived(&shared))
                .map_err(|e| e.to_string())?;
        }
        fold.fold_views().map_err(|e| e.to_string())?;
        let total: u64 = terms.iter().map(|(n, _)| n).sum();
        let sums: Vec<Wide> = (0..view.len()).map(|j| fold.sum(0, j)).collect();
        let got = fold.finish(total as usize).unwrap();
        for (j, wide) in sums.iter().enumerate() {
            let want = terms.iter().fold(Big::zero(), |acc, (n, term)| {
                acc.add(&Big::product(*n, term.at(view, j)))
            });
            if Big::of_wide(wide) != want {
                return Err(format!("coordinate {j}: sum {wide:?}, oracle {want:?}"));
            }
            let mean = got.layer(0).unwrap().w.data()[j];
            let want = oracle_mean(&want, total);
            if mean.to_bits() != want.to_bits() {
                return Err(format!("coordinate {j}: mean {mean:e}, oracle {want:e}"));
            }
        }
        Ok(())
    }

    /// The values the oracle property draws from: zero, subnormals, the
    /// extremes, the window's edges and their neighbours, and ordinary
    /// weights.
    fn special(pick: u8, ordinary: f32) -> f32 {
        let edge = |e: i32| 2f32.powi(e);
        let x = match pick % 16 {
            0 => 0.0,
            1 => f32::from_bits(1),
            2 => f32::from_bits(0x007f_ffff),
            3 => f32::MIN_POSITIVE,
            4 => f32::MAX,
            5 => edge(-57),
            6 => edge(-57).next_down(),
            7 => edge(-57).next_up(),
            8 => edge(13),
            9 => edge(13).next_down(),
            10 => edge(13).next_up(),
            11 => edge(-80),
            12 => edge(30).next_down(),
            _ => ordinary,
        };
        if pick & 16 == 0 {
            x
        } else {
            -x
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// The exact fold is the exact sum, in any order. Over subnormals,
        /// ±`f32::MAX`, the window's edges (2⁻⁵⁷, 2¹³ and their
        /// neighbours), exactly cancelling pairs and sample counts up to
        /// `u32::MAX`, every permutation of the terms sums to the
        /// big-integer oracle's Σ nᵢ·xᵢ at every coordinate, and finishes
        /// to Σ / N rounded to the nearest f32. Any term may be a sparse
        /// delta against a view drawn from the same values, whose kept
        /// coefficient takes one product where `f32(v + d) − v` is exact
        /// and two where it is not (|d| ≫ |v|).
        #[test]
        fn the_exact_fold_is_the_oracle_sum_in_any_order(
            picks in proptest::collection::vec((proptest::any::<u8>(), -4.0f32..4.0), 3..25),
            counts in proptest::collection::vec((0u8..3, proptest::any::<u32>()), 8..9),
            cancel in proptest::any::<bool>(),
            keys in proptest::collection::vec(proptest::any::<u32>(), 16..17),
            view in proptest::collection::vec((proptest::any::<u8>(), -4.0f32..4.0), 3..4),
            deltas in proptest::any::<u8>(),
        ) {
            // Small counts, u32::MAX, and anything up to it.
            let counts: Vec<u64> = counts
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 1 + u64::from(x % 19),
                    1 => u64::from(u32::MAX),
                    _ => u64::from(x.max(1)),
                })
                .collect();
            let view: Vec<f32> = view.iter().map(|&(p, o)| special(p, o)).collect();
            // Up to eight terms over three coordinates; term t is a delta
            // if bit t of `deltas` is set, keeping the coordinates whose
            // pick has bit 6 clear (a sum that would not be finite is
            // dropped, as the arrival check refuses it).
            let per = 3;
            let mut terms: Vec<(u64, Term)> = picks
                .chunks_exact(per)
                .zip(&counts)
                .enumerate()
                .map(|(t, (xs, &n))| {
                    let xs = xs.iter().map(|&(p, o)| (p, special(p, o)));
                    let term = if deltas >> t & 1 == 0 {
                        Term::Dense(xs.map(|(_, x)| x).collect())
                    } else {
                        let kept = |(j, (p, d)): (usize, (u8, f32))| {
                            (p & 64 == 0 && (view[j] + d).is_finite()).then_some(d)
                        };
                        Term::Delta(xs.enumerate().map(kept).collect())
                    };
                    (n, term)
                })
                .collect();
            if terms.is_empty() {
                terms.push((1, Term::Dense(vec![1.0; per])));
            }
            if cancel {
                // What every term stands for, negated, under the same
                // count: the sum is zero, whatever the magnitudes.
                let negated: Vec<_> = (terms.iter())
                    .map(|(n, term)| (*n, Term::Dense((0..per).map(|j| -term.at(&view, j)).collect())))
                    .collect();
                terms.extend(negated);
            }
            let mut order: Vec<usize> = (0..terms.len()).collect();
            order.sort_by_key(|&t| keys[t % keys.len()].rotate_left(t as u32));
            let forward: Vec<usize> = (0..terms.len()).collect();
            proptest::prop_assert_eq!(check_terms(&view, &terms, &forward), Ok(()));
            proptest::prop_assert_eq!(check_terms(&view, &terms, &order), Ok(()));
        }
    }

    /// A sparse term's kept coefficient folds to the exact sum wherever
    /// its view stands: on the window's edges (2⁻⁵⁷, 2¹³ and their
    /// neighbours), among subnormals and at ±`f32::MAX`, under deltas far
    /// smaller, about as large and far larger than the view — the last
    /// making `f32(v + d) − v` inexact — and `f32::MAX` of either sign.
    #[test]
    fn a_sparse_term_folds_exactly_at_every_edge_of_its_view() {
        let edge = |e: i32| 2f32.powi(e);
        let mut views = vec![
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
        ];
        for e in [-57, 13] {
            views.extend([edge(e).next_down(), edge(e), edge(e).next_up()]);
        }
        views.extend([f32::MAX, 0.3]);
        let views: Vec<f32> = views.iter().flat_map(|&v| [v, -v]).collect();
        let mut inexact = 0;
        for &v in &views {
            let scaled = [2f32.powi(-30), 0.7, 2f32.powi(30)].map(|s| s * v.abs().max(1e-30));
            for d in scaled.into_iter().chain([1.5, 2f32.powi(-100), f32::MAX]) {
                for d in [d, -d] {
                    if !(v + d).is_finite() {
                        continue;
                    }
                    let e = (v + d) - v;
                    inexact += usize::from(two_sum_residual(v + d, -v, e) != 0.0);
                    let terms = [
                        (3, Term::Delta(vec![Some(d), None])),
                        (u64::from(u32::MAX), Term::Delta(vec![Some(d), Some(d)])),
                        (5, Term::Dense(vec![v, 1.0])),
                    ];
                    for order in [[0, 1, 2], [2, 1, 0]] {
                        assert_eq!(
                            check_terms(&[v, v], &terms, &order),
                            Ok(()),
                            "v {v:e}, d {d:e}"
                        );
                    }
                }
            }
        }
        assert!(inexact > 20, "only {inexact} inexact differences drawn");
    }

    /// Past the window's 2¹⁷-product headroom: 2¹⁷ + 40 terms of nearly
    /// 2³⁰ each on one coordinate overflow an `i128` of 2⁻⁸⁰ units unless
    /// the window is flushed, and the sum and mean still equal the
    /// oracle's, forwards and backwards, with huge, tiny and cancelling
    /// terms mixed in.
    #[test]
    fn a_cohort_past_the_window_headroom_folds_exactly() {
        let big = 2f32.powi(13) - 2f32.powi(-11);
        let mut terms: Vec<(u64, Vec<f32>)> = (0..HEADROOM + 40)
            .map(|_| ((1 << 17) - 1, vec![big]))
            .collect();
        terms[7] = (3, vec![f32::MAX]);
        terms[8] = (3, vec![-f32::MAX]);
        terms[9] = (u64::from(u32::MAX), vec![f32::from_bits(3)]);
        terms[HEADROOM] = (5, vec![-big]);
        let forward: Vec<usize> = (0..terms.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        assert_eq!(check(&terms, &forward), Ok(()));
        assert_eq!(check(&terms, &backward), Ok(()));
    }

    /// A mean exactly half-way between two floats rounds to the even one:
    /// in the window, among subnormals, at the window's edges and at the
    /// top of the range, whichever order the two terms come in.
    #[test]
    fn a_mean_half_way_between_two_floats_rounds_to_even() {
        let xs = [
            1.0,
            1.0f32.next_up(),
            -3.5,
            f32::from_bits(1),
            f32::from_bits(2),
            f32::MIN_POSITIVE.next_down(),
            2f32.powi(-57),
            2f32.powi(13).next_down(),
            f32::MAX.next_down(),
        ];
        for x in xs {
            let terms = vec![(1, vec![x]), (1, vec![x.next_up()])];
            assert_eq!(check(&terms, &[0, 1]), Ok(()), "{x:e}");
            assert_eq!(check(&terms, &[1, 0]), Ok(()), "{x:e}");
            let mean = {
                let mut fold = Fold::new(None);
                for (t, (n, xs)) in terms.iter().enumerate() {
                    fold.add(t as u64, *n as usize, &term(xs)).unwrap();
                }
                fold.finish(2).unwrap().layer(0).unwrap().w.data()[0]
            };
            let even = if x.to_bits() & 1 == 0 { x } else { x.next_up() };
            assert_eq!(mean.to_bits(), even.to_bits(), "{x:e}");
        }
    }

    /// A non-finite coefficient reaching the fold is refused naming its
    /// client.
    #[test]
    fn the_fold_refuses_a_non_finite_coefficient_by_client() {
        let mut fold = Fold::new(None);
        let err = fold.add(7, 2, &term(&[1.0, f32::INFINITY])).unwrap_err();
        assert!(
            err.to_string().contains("client 7 holds non-finite"),
            "{err}"
        );
    }
}

//! The CSV bodies' float fields, byte for byte what `core::fmt` writes
//! for them: [`push_exp`] is `{:e}`, the shortest digits that read back as
//! the same float (Ryū), and [`push_fixed6`] is `{:.6}`, six decimals
//! rounded half to even from the exact value. Both write `{:e}`/`{:.6}`
//! through `core::fmt` outside the range their integer arithmetic covers.

use std::fmt::Write as _;

/// Bits of an `f64`'s stored significand.
const MANTISSA_BITS: u32 = 52;

/// The exponent bias plus the significand bits: a normal float is
/// `m · 2^(biased − EXPONENT_OFFSET)`.
const EXPONENT_OFFSET: i32 = 1023 + MANTISSA_BITS as i32;

/// The width every [`POW5`] entry is scaled to (Ryū's
/// `DOUBLE_POW5_BITCOUNT`).
const POW5_BITS: i32 = 125;

/// `5^i` scaled to exactly [`POW5_BITS`] bits — shifted up when shorter,
/// cut to its leading bits when longer — for every `i` the shortest
/// search of a float below `2^54` reads (Ryū's `DOUBLE_POW5_SPLIT`).
/// Built from the exact powers in 64-bit limbs (`5^325 < 2^755`).
static POW5: [u128; 326] = {
    let mut table = [0u128; 326];
    let mut limbs = [0u64; 14];
    limbs[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let mut top = limbs.len() - 1;
        while limbs[top] == 0 {
            top -= 1;
        }
        let bits = 64 * top as i32 + 64 - limbs[top].leading_zeros() as i32;
        table[i] = if bits <= POW5_BITS {
            ((limbs[1] as u128) << 64 | limbs[0] as u128) << (POW5_BITS - bits)
        } else {
            let shift = (bits - POW5_BITS) as usize;
            let (w, b) = (shift / 64, shift % 64);
            let low = (limbs[w + 1] as u128) << 64 | limbs[w] as u128;
            if b == 0 {
                low
            } else {
                low >> b | (limbs[w + 2] as u128) << (128 - b)
            }
        };
        let mut carry = 0u64;
        let mut j = 0;
        while j < limbs.len() {
            let product = limbs[j] as u128 * 5 + carry as u128;
            limbs[j] = product as u64;
            carry = (product >> 64) as u64;
            j += 1;
        }
        i += 1;
    }
    table
};

/// `⌊log10 5^e⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> i32 {
    (e * 732_923) >> 20
}

/// Bit length of `5^e` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `⌊m · mul / 2^j⌋` for `m < 2^55`, `mul < 2^125`, `64 ≤ j < 192`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `(m, e)` with `|x| = m · 2^e` and `m < 2^53` for the float with these
/// bits; an infinity or a NaN comes out with `e = 972`.
fn decompose(bits: u64) -> (u64, i32) {
    let stored = bits & ((1 << MANTISSA_BITS) - 1);
    let biased = ((bits >> MANTISSA_BITS) & 0x7FF) as i32;
    if biased == 0 {
        (stored, 1 - EXPONENT_OFFSET)
    } else {
        (stored | 1 << MANTISSA_BITS, biased - EXPONENT_OFFSET)
    }
}

/// The shortest `digits · 10^exp` that reads back as the nonzero float
/// `m · 2^e`, and of those the closest to it, ties rounded up as
/// `core::fmt` rounds them: Ryū's `d2d` for its `e2 < 0` half (`e2 = e − 2`
/// counts the interval's quarter steps), that is every float below
/// `2^54`. `None` from `2^54` up, infinities and NaNs included.
fn shortest(m2: u64, e: i32) -> Option<(u64, i32)> {
    let e2 = e - 2;
    if e2 >= 0 {
        return None;
    }
    let even = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap to the float below is half as wide at a power of two
    // (m2 = 2^52), except at the smallest normal.
    let mm_shift = u64::from(m2 != 1 << MANTISSA_BITS || e == 1 - EXPONENT_OFFSET);

    let q = log10_pow5(-e2) - i32::from(-e2 > 1);
    let e10 = q + e2;
    let i = -e2 - q;
    let j = q - (pow5_bits(i) - POW5_BITS);
    let mul = POW5[i as usize];
    let mut vr = mul_shift(mv, mul, j);
    let mut vp = mul_shift(mv + 2, mul, j);
    let mut vm = mul_shift(mv - 1 - mm_shift, mul, j);
    let mut vm_trailing_zeros = false;
    if q <= 1 {
        if even {
            vm_trailing_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    let mut removed = 0;
    let mut last_removed = 0;
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm.is_multiple_of(10);
        last_removed = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_trailing_zeros {
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Exactly halfway rounds up, as `core::fmt` does (Ryū rounds to even).
    let round_up = (vr == vm && (!even || !vm_trailing_zeros)) || last_removed >= 5;
    Some((vr + u64::from(round_up), e10 + removed))
}

/// `"00"` to `"99"`.
static DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Write `n`'s decimal digits to end at `buf[end]` (exclusive); returns
/// where they start. Two digits a step; a number of nine digits or more
/// as its low eight, zero-padded, and the rest, so the two chains of
/// divisions are independent.
fn put_digits(buf: &mut [u8], mut end: usize, mut n: u64) -> usize {
    if n >= 100_000_000 {
        let mut low = n % 100_000_000;
        for _ in 0..4 {
            end -= 2;
            buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[(low % 100) as usize]);
            low /= 100;
        }
        return put_digits(buf, end, n / 100_000_000);
    }
    while n >= 100 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[(n % 100) as usize]);
        n /= 100;
    }
    if n >= 10 {
        end -= 2;
        buf[end..end + 2].copy_from_slice(&DIGIT_PAIRS[n as usize]);
    } else {
        end -= 1;
        buf[end] = b'0' + n as u8;
    }
    end
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("digits, signs and points are ASCII"));
}

/// Append `x` as `{:e}` writes it: `[-]d[.ddd]e[-]x` with the shortest
/// significand that reads back as `x`, or `[-]0e0`. From `2^54` up, and
/// for infinities and NaNs, through `core::fmt`.
pub fn push_exp(out: &mut String, x: f64) {
    let (m, e) = decompose(x.to_bits());
    let (digits, exp) = if m == 0 {
        (0, 0)
    } else {
        match shortest(m, e) {
            Some(d) => d,
            None => {
                let _ = write!(out, "{x:e}");
                return;
            }
        }
    };
    // `-d.dddddddddddddddde-ddd`: the significand's (at most 17) digits
    // end at byte 20, and its first digit moves left past the point.
    let mut buf = [0u8; 26];
    let mut start = put_digits(&mut buf, 20, digits);
    let len = 20 - start;
    if len > 1 {
        buf[start - 1] = buf[start];
        buf[start] = b'.';
        start -= 1;
    }
    if x.is_sign_negative() {
        start -= 1;
        buf[start] = b'-';
    }
    buf[20] = b'e';
    let mut end = 21;
    let exp = exp + len as i32 - 1;
    if exp < 0 {
        buf[end] = b'-';
        end += 1;
    }
    let exp = exp.unsigned_abs();
    end += 1 + usize::from(exp >= 10) + usize::from(exp >= 100);
    put_digits(&mut buf, end, u64::from(exp));
    push_ascii(out, &buf[start..end]);
}

/// Append `x` as `{:.6}` writes it: `[-]int.dddddd`, the exact value
/// rounded to six decimals, half to even. Computed as `m · 10^6 / 2^s`
/// in integers for `|x| < 2^64 / 10^6`; larger values, infinities and
/// NaNs go through `core::fmt`.
pub fn push_fixed6(out: &mut String, x: f64) {
    let (m, e) = decompose(x.to_bits());
    let micros = if e > 0 {
        None
    } else {
        // x·10^6 = m·10^6 / 2^s with m·10^6 < 2^73: below 2^(s−1), that
        // is for s > 73, it rounds to 0.
        let scaled = u128::from(m) * 1_000_000;
        let s = -e;
        let rounded = match s {
            0 => scaled,
            1..=73 => {
                let (q, r, half) = (scaled >> s, scaled & ((1 << s) - 1), 1 << (s - 1));
                q + u128::from(r > half || (r == half && q & 1 == 1))
            }
            _ => 0,
        };
        u64::try_from(rounded).ok()
    };
    let Some(micros) = micros else {
        let _ = write!(out, "{x:.6}");
        return;
    };
    // Sign, 14 integer digits, point and 6 decimals fit in 24 bytes.
    let mut buf = [b'0'; 24];
    let end = buf.len();
    put_digits(&mut buf, end, micros % 1_000_000);
    buf[end - 7] = b'.';
    let mut start = put_digits(&mut buf, end - 7, micros / 1_000_000);
    if x.is_sign_negative() {
        start -= 1;
        buf[start] = b'-';
    }
    push_ascii(out, &buf[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed6(x: f64) -> String {
        let mut out = String::new();
        push_fixed6(&mut out, x);
        out
    }

    #[test]
    fn pow5_entries_are_the_leading_125_bits() {
        // 5^0..=5^53 are exact in u128: the entry is the power shifted up.
        let mut p = 1u128;
        for (i, &entry) in POW5.iter().enumerate().take(54) {
            let bits = 128 - p.leading_zeros() as i32;
            assert_eq!(entry, p << (POW5_BITS - bits), "5^{i}");
            p *= 5;
        }
        for (i, &entry) in POW5.iter().enumerate() {
            assert_eq!(128 - entry.leading_zeros(), 125, "5^{i} is 125 bits");
        }
    }

    #[test]
    fn the_integer_paths_end_where_they_say() {
        // 2^54 is the first float Ryū's other half would print.
        let x = 2f64.powi(54);
        let (m, e) = decompose(x.to_bits());
        assert!(shortest(m, e).is_none());
        let (m, e) = decompose(x.next_down().to_bits());
        assert!(shortest(m, e).is_some());
        // The last six-decimal value that fits in u64 micros.
        let edge = (u64::MAX / 1_000_000) as f64;
        assert_eq!(fixed6(edge), format!("{edge:.6}"));
        assert_eq!(fixed6(edge * 2.0), format!("{:.6}", edge * 2.0));
    }
}

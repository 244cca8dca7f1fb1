//! Eight-bytes-at-a-time search for the end of a run of bytes, shared by
//! the netlist tokenizer and the JSON string parser.

const ONES: u64 = u64::from_le_bytes([0x01; 8]);
const HIGH: u64 = u64::from_le_bytes([0x80; 8]);

/// Sets the high bit of each byte of the little-endian word `w` that is
/// below `n` (`n ≤ 0x80`), and possibly of bytes above such a byte.
pub(crate) const fn below(w: u64, n: u8) -> u64 {
    w.wrapping_sub(ONES * n as u64) & !w & HIGH
}

/// Sets the high bit of each byte of `w` equal to `b`, and possibly of
/// bytes above such a byte.
pub(crate) const fn equal(w: u64, b: u8) -> u64 {
    let x = w ^ (ONES * b as u64);
    x.wrapping_sub(ONES) & !x & HIGH
}

/// The first index at or after `i` whose byte fails `keeps`, or
/// `bytes.len()` when there is none (`i` itself when `i` is past the
/// end).
///
/// `flags(w)` must set the high bit of every byte of the little-endian
/// word `w` that fails `keeps`. It may flag more: a flagged byte that
/// `keeps` accepts is stepped over. With [`below`] and [`equal`] the
/// lowest flag of a word always marks a byte the test really matched (a
/// borrow only spreads upward from such a byte), so every byte before it
/// continues the run.
#[inline]
pub(crate) fn run_end(
    bytes: &[u8],
    mut i: usize,
    flags: impl Fn(u64) -> u64,
    keeps: impl Fn(u8) -> bool,
) -> usize {
    while let Some(word) = bytes.get(i..i + 8) {
        let mut w = [0; 8];
        w.copy_from_slice(word);
        let flags = flags(u64::from_le_bytes(w)) & HIGH;
        if flags == 0 {
            i += 8;
            continue;
        }
        i += (flags.trailing_zeros() / 8) as usize;
        if !keeps(bytes[i]) {
            return i;
        }
        i += 1;
    }
    while i < bytes.len() && keeps(bytes[i]) {
        i += 1;
    }
    i
}

/// Checks `end(bytes, start)` against the plain byte-by-byte loop over
/// `keeps`: for every byte value, and every pair of `edges` bytes (a
/// borrow out of the first must not hide the second), at every offset of
/// the eight-byte words, from every start before it.
#[cfg(test)]
pub(crate) fn assert_matches_byte_rule(
    end: impl Fn(&[u8], usize) -> usize,
    keeps: impl Fn(u8) -> bool,
    edges: &[u8],
) {
    let plain = |bytes: &[u8], mut i: usize| {
        while i < bytes.len() && keeps(bytes[i]) {
            i += 1;
        }
        i
    };
    let pairs = edges
        .iter()
        .flat_map(|&a| edges.iter().map(move |&b| [a, b]));
    let singles = (0..=255u8).map(|b| [b, b'a']);
    for pair in singles.chain(pairs) {
        for at in 0..19 {
            let mut bytes = [b'x'; 20];
            bytes[at..at + 2].copy_from_slice(&pair);
            for start in 0..=at {
                assert_eq!(
                    end(&bytes, start),
                    plain(&bytes, start),
                    "{pair:?} at {at} from {start}"
                );
            }
        }
    }
    assert_eq!(end(b"abc", 5), 5);
}

//! Seed-loop fuzz of the journal frame reader, in the style of the
//! serve wire-decoder fuzz: valid multi-record journals are damaged
//! (multi-byte flips, insertions, truncations and rewritten length
//! fields) and random buffers are thrown in beside them. For every
//! input, [`FrameReader`] must not panic and must account for every
//! byte (`consumed() + truncated() == buf.len()`); on a damaged journal
//! it must yield exactly the original records that end before the
//! first damaged byte — no fewer, no more, none altered.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oov_proto::{frame_record, FrameReader, FRAME_HEADER_BYTES};

const SEEDS: [u64; 6] = [
    0x9e37_79b9_7f4a_7c15,
    0xdead_beef_cafe_f00d,
    1,
    2,
    42,
    123_456_789,
];

/// SplitMix64 — the workspace's dependency-free PRNG.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: usize) -> usize {
    (splitmix(state) % n as u64) as usize
}

fn bytes(state: &mut u64, n: usize) -> Vec<u8> {
    (0..n).map(|_| splitmix(state) as u8).collect()
}

/// One to four flips (runs of up to 4 bytes), insertions, truncations
/// or length-field rewrites (off by a little, or anything) of the
/// journal `buf` whose records end at `ends`.
fn damage(buf: &[u8], ends: &[usize], state: &mut u64) -> Vec<u8> {
    let mut out = buf.to_vec();
    for _ in 0..=below(state, 4) {
        let at = below(state, out.len() + 1);
        match below(state, 4) {
            0 => {
                for b in out.iter_mut().skip(at).take(1 + below(state, 4)) {
                    *b ^= (splitmix(state) as u8) | 1;
                }
            }
            1 => out.insert(at, splitmix(state) as u8),
            2 => out.truncate(at),
            _ => {
                let record = below(state, ends.len());
                let start = [0].iter().chain(ends).nth(record).copied().unwrap();
                if start + 4 <= out.len() {
                    let old = u32::from_le_bytes(out[start..start + 4].try_into().unwrap());
                    let new = match splitmix(state) & 1 {
                        0 => old.wrapping_add(below(state, 17) as u32).wrapping_sub(8),
                        _ => splitmix(state) as u32,
                    };
                    out[start..start + 4].copy_from_slice(&new.to_le_bytes());
                }
            }
        }
    }
    out
}

/// Every payload the reader yields, plus its final `consumed()`,
/// checking the byte accounting on the way. Panics are caught and
/// reported as failures.
fn read_all(buf: &[u8]) -> (Vec<Vec<u8>>, usize) {
    catch_unwind(AssertUnwindSafe(|| {
        let mut reader = FrameReader::new(buf);
        let mut got = Vec::new();
        let mut tiled = 0;
        while let Some(p) = reader.next_record() {
            tiled += FRAME_HEADER_BYTES + p.len();
            got.push(p.to_vec());
        }
        assert_eq!(reader.next_record(), None, "the reader stops for good");
        assert_eq!(reader.consumed() + reader.truncated(), buf.len());
        assert_eq!(reader.consumed(), tiled, "yielded records tile the prefix");
        (got, reader.consumed())
    }))
    .unwrap_or_else(|_| panic!("reader failed on {buf:?}"))
}

#[test]
fn damaged_journals_yield_exactly_the_records_before_the_damage() {
    for seed in SEEDS {
        let mut state = seed;
        for _ in 0..50 {
            // 1–8 records of 0–120 payload bytes.
            let (mut buf, mut payloads, mut ends) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..=below(&mut state, 8) {
                let len = below(&mut state, 121);
                payloads.push(bytes(&mut state, len));
                frame_record(payloads.last().unwrap(), &mut buf).unwrap();
                ends.push(buf.len());
            }
            assert_eq!(read_all(&buf), (payloads.clone(), buf.len()));
            for _ in 0..400 {
                let bad = damage(&buf, &ends, &mut state);
                let first_diff = buf.iter().zip(&bad).position(|(a, b)| a != b);
                let first_diff = first_diff.unwrap_or(buf.len().min(bad.len()));
                let intact = ends.iter().filter(|&&e| e <= first_diff).count();
                let (got, consumed) = read_all(&bad);
                assert_eq!(
                    got,
                    payloads[..intact],
                    "seed {seed:#x}, damage at {first_diff}"
                );
                assert_eq!(
                    consumed,
                    [0].iter().chain(&ends).nth(intact).copied().unwrap()
                );
            }
        }
    }
}

#[test]
fn random_buffers_never_panic() {
    for seed in SEEDS {
        let mut state = seed;
        for _ in 0..3000 {
            let len = below(&mut state, 64);
            let mut buf = bytes(&mut state, len);
            // Half the time a plausible length up front, so the reader
            // reaches its checksum path too.
            if len >= 4 && splitmix(&mut state) & 1 == 0 {
                let claimed = below(&mut state, len) as u32;
                buf[..4].copy_from_slice(&claimed.to_le_bytes());
            }
            read_all(&buf);
        }
    }
}

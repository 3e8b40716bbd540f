//! A fixed piece of work of the benchmark's own, timed beside each set-up
//! repetition to follow the host's speed (README.md, "Host speed").
//!
//! The kernel does what set-up does, on made-up data: it formats and
//! splits small JSON-like records, hashes them, groups them in a
//! string-keyed map and sorts the hashes. None of the simulator's code
//! runs here, so a change to the simulator cannot move its time.

use std::collections::HashMap;
use std::fmt::Write;

/// Records per call: about 0.6 ms on the development box, as long as one
/// set-up repetition of `smt_predictors`.
const RECORDS: u64 = 2_000;

/// Runs the kernel once; the result only keeps the work from being
/// optimised away.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut groups: HashMap<String, Vec<u64>> = HashMap::new();
    let mut text = String::new();
    for i in 0..RECORDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        text.clear();
        write!(
            text,
            "{{\"entry\":\"cell{}\",\"seed\":{x},\"rep\":{i}}}",
            x % 97
        )
        .expect("writing to a String cannot fail");
        let key = text.split('"').nth(3).unwrap_or_default().to_string();
        let hash = text.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
        groups.entry(key).or_default().push(hash);
    }
    let mut hashes: Vec<u64> = groups.into_values().flatten().collect();
    hashes.sort_unstable();
    hashes[hashes.len() / 2]
}

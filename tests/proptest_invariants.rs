//! Property-based tests over the public API: encoding bijectivity, index
//! scrambling, table storage, trace format, counter arithmetic, and
//! never-panic parsing of every untrusted text input.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;

use secure_bp::campaign::Manifest;
use secure_bp::sweep::{json, RawResult, RawRun, SweepStore};

use secure_bp::predictors::{counter, Ras};
use secure_bp::trace::format::{decode_trace, encode_trace};
use secure_bp::trace::TraceEvent;
use secure_bp::types::{
    BranchKind, BranchRecord, Codec, KeyCtx, KeyPair, PackedTable, Pc, Privilege, ThreadId,
};

fn any_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![
        Just(Codec::Xor),
        Just(Codec::ShiftScramble),
        Just(Codec::Lut)
    ]
}

fn any_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::Conditional),
        Just(BranchKind::DirectJump),
        Just(BranchKind::IndirectJump),
        Just(BranchKind::Call),
        Just(BranchKind::IndirectCall),
        Just(BranchKind::Return),
    ]
}

fn any_event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (
            any::<u64>(),
            any_kind(),
            any::<bool>(),
            any::<u64>(),
            any::<u32>()
        )
            .prop_map(|(pc, kind, taken, target, gap)| {
                TraceEvent::Branch(BranchRecord {
                    pc: Pc::new(pc),
                    kind,
                    taken,
                    target: Pc::new(target),
                    gap,
                })
            }),
        any::<bool>().prop_map(|k| TraceEvent::PrivilegeSwitch(if k {
            Privilege::Kernel
        } else {
            Privilege::User
        })),
    ]
}

/// A valid manifest using every key the parser knows.
const MANIFEST: &str = r#"{"entries":["smoke_single","fig01"],"workers":2,"seeds":3,
"scale":0.05,"sampling":true,"gap_mode":"functional","window_threads":3,
"telemetry":true,"out_dir":"/tmp/sbp-proptest","retries":1}"#;

/// A valid document exercising the rest of the JSON grammar.
const DOCUMENT: &str = r#"{"a":[1,2.5,-3e2,{"b":null,"c":[[],{}]}],"s":"x\"\n\u00e9/é","t":false}"#;

fn store_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sbp_proptest_{}_{name}.jsonl", std::process::id()))
}

/// The lines a store writes for one sampled sim result and one attack
/// result.
fn store_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(write_store_text)
}

fn write_store_text() -> String {
    let path = store_path("valid");
    let _ = std::fs::remove_file(&path);
    let mut store = SweepStore::open(&path).expect("open");
    let stats = secure_bp::types::PredictionStats {
        instructions: 123_456,
        cond_mispredicts: 789,
        cycles: 654_321,
        ..Default::default()
    };
    let sim = RawResult::Sim(RawRun {
        cycles: 123_456.789,
        stats,
        per_thread: vec![stats, stats],
        stderr: Some(431.0625),
    });
    let attack = RawResult::Attack(secure_bp::attack::AttackOutcome {
        success_rate: 0.965,
        chance: 0.005,
        trials: 1500,
    });
    store.append(0x0123_4567_89ab_cdef, &sim).expect("append");
    store
        .append(0xffff_0000_ffff_0000, &attack)
        .expect("append");
    let text = std::fs::read_to_string(&path).expect("read");
    std::fs::remove_file(&path).expect("cleanup");
    text
}

/// Feeds `text` to every untrusted-text parser: the JSON reader, the
/// manifest parser and the store loader (as the file's content). Each
/// may fail; none may panic.
fn parse_everywhere(text: &str, path: &Path) {
    let _ = json::parse(text);
    let _ = Manifest::parse(text);
    std::fs::write(path, text).expect("write store");
    let _ = SweepStore::open(path);
    let _ = std::fs::remove_file(path);
}

/// The mutation and truncation properties start from inputs that parse.
#[test]
fn valid_text_inputs_parse() {
    assert!(Manifest::parse(MANIFEST).is_ok());
    assert!(json::parse(DOCUMENT).is_ok());
    let path = store_path("valid_reload");
    std::fs::write(&path, store_text()).expect("write store");
    assert_eq!(SweepStore::open(&path).expect("store loads").len(), 2);
    std::fs::remove_file(&path).expect("cleanup");
}

/// One of the valid inputs, by index.
fn valid_input(i: usize) -> String {
    match i % 3 {
        0 => MANIFEST.to_string(),
        1 => DOCUMENT.to_string(),
        _ => store_text().to_string(),
    }
}

proptest! {
    /// Every codec is a bijection on the width-bit space for any key.
    #[test]
    fn codec_round_trips(codec in any_codec(), word in any::<u64>(), key in any::<u64>(), width in 1u32..=64) {
        let w = word & secure_bp::types::ids::mask_u64(width);
        let enc = codec.encode(w, key, width);
        prop_assert!(enc <= secure_bp::types::ids::mask_u64(width));
        prop_assert_eq!(codec.decode(enc, key, width), w);
    }

    /// Two distinct codewords never collide (injectivity spot check).
    #[test]
    fn codec_is_injective(codec in any_codec(), a in any::<u64>(), b in any::<u64>(), key in any::<u64>(), width in 1u32..=16) {
        let m = secure_bp::types::ids::mask_u64(width);
        let (a, b) = (a & m, b & m);
        prop_assume!(a != b);
        prop_assert_ne!(codec.encode(a, key, width), codec.encode(b, key, width));
    }

    /// Index scrambling is an involution that stays within range.
    #[test]
    fn scramble_is_involution(content in any::<u64>(), index_key in any::<u64>(), bits in 1u32..=16, idx in any::<u64>()) {
        let ctx = KeyCtx::noisy_xor(ThreadId::new(0), KeyPair::new(content, index_key));
        let idx = (idx & secure_bp::types::ids::mask_u64(bits)) as usize;
        let s = ctx.scramble_index(idx, bits);
        prop_assert!(s < (1usize << bits));
        prop_assert_eq!(ctx.scramble_index(s, bits), idx);
    }

    /// A keyed table read returns exactly what the same context wrote.
    #[test]
    fn packed_table_roundtrip(seed in any::<u64>(), log_len in 2u32..=10, width in 1u32..=32, writes in prop::collection::vec((any::<u64>(), any::<u64>()), 1..50)) {
        let mut table = PackedTable::new(1 << log_len, width, 0);
        let ctx = KeyCtx::noisy_xor(ThreadId::new(0), KeyPair::from_random(seed));
        let m = secure_bp::types::ids::mask_u64(width);
        let mut model = std::collections::HashMap::new();
        for (idx, val) in writes {
            let idx = (idx % (1 << log_len)) as usize;
            let val = val & m;
            table.set(idx, val, &ctx);
            model.insert(idx, val);
        }
        for (idx, val) in model {
            prop_assert_eq!(table.get(idx, &ctx), val);
        }
    }

    /// The binary trace format is lossless for arbitrary event sequences.
    #[test]
    fn trace_format_roundtrip(events in prop::collection::vec(any_event(), 0..200)) {
        let bytes = encode_trace(&events);
        prop_assert_eq!(decode_trace(&bytes).unwrap(), events);
    }

    /// Arbitrary single-byte corruption of a valid trace must decode to
    /// *something* or error — never panic, and never allocate from a
    /// lying header (the capacity hint is bounded by the body size).
    #[test]
    fn trace_format_mutations_never_panic(
        events in prop::collection::vec(any_event(), 1..60),
        offset in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = encode_trace(&events).to_vec();
        let at = offset % bytes.len();
        bytes[at] = byte;
        if let Ok(decoded) = decode_trace(&bytes) {
            // A surviving decode must account for every event the
            // (possibly corrupted) header declares.
            prop_assert!(decoded.len() <= events.len());
        }
    }

    /// Arbitrary truncations of a valid trace error or decode — never
    /// panic on a half-delivered event.
    #[test]
    fn trace_format_truncations_never_panic(
        events in prop::collection::vec(any_event(), 1..60),
        cut in any::<usize>(),
    ) {
        let bytes = encode_trace(&events);
        let cut = cut % (bytes.len() + 1);
        let _ = decode_trace(&bytes[..cut]);
    }

    /// A single corrupted byte of a valid manifest, JSON document or
    /// store file makes its parser fail or succeed — never panic.
    #[test]
    fn text_parser_mutations_never_panic(
        input in any::<usize>(),
        offset in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = valid_input(input).into_bytes();
        let at = offset % bytes.len();
        bytes[at] = byte;
        parse_everywhere(&String::from_utf8_lossy(&bytes), &store_path("mutated"));
    }

    /// Any prefix of a valid manifest, JSON document or store file (a
    /// half-written file) parses or errors — never panics.
    #[test]
    fn text_parser_truncations_never_panic(input in any::<usize>(), cut in any::<usize>()) {
        let bytes = valid_input(input).into_bytes();
        let cut = cut % (bytes.len() + 1);
        parse_everywhere(&String::from_utf8_lossy(&bytes[..cut]), &store_path("truncated"));
    }

    /// Unsigned saturating counters stay in range and are monotone.
    #[test]
    fn saturating_counter_invariants(width in 1u32..=8, ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let max = secure_bp::types::ids::mask_u64(width);
        let mut value = 0u64;
        for taken in ops {
            let next = counter::sat_update(value, width, taken);
            prop_assert!(next <= max);
            if taken {
                prop_assert!(next >= value);
            } else {
                prop_assert!(next <= value);
            }
            value = next;
        }
    }

    /// Signed counter round trip and saturation bounds.
    #[test]
    fn signed_counter_invariants(width in 2u32..=8, ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let min = -(1i64 << (width - 1));
        let max = (1i64 << (width - 1)) - 1;
        let mut value = counter::from_signed(0, width);
        for taken in ops {
            value = counter::signed_update(value, width, taken);
            let v = counter::to_signed(value, width);
            prop_assert!((min..=max).contains(&v));
        }
    }

    /// The RAS behaves like an unbounded stack truncated to its depth.
    #[test]
    fn ras_matches_model_stack(depth in 1usize..=32, ops in prop::collection::vec(any::<Option<u32>>(), 1..200)) {
        let mut ras = Ras::new(depth, 1);
        let mut model: Vec<u64> = Vec::new();
        let t = ThreadId::new(0);
        for op in ops {
            match op {
                Some(addr) => {
                    ras.push(t, Pc::new(addr as u64));
                    model.push(addr as u64);
                    if model.len() > depth {
                        let keep = model.len() - depth;
                        model.drain(..keep);
                    }
                }
                None => {
                    let got = ras.pop(t);
                    let want = model.pop().map(Pc::new);
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    /// Cross-key reads never equal a write made under a different content
    /// key for wide words (probability 2^-32 of false positive).
    #[test]
    fn wide_words_do_not_leak_across_keys(a in any::<u64>(), b in any::<u64>(), val in any::<u64>()) {
        prop_assume!(a != b);
        let ka = KeyCtx::xor(ThreadId::new(0), KeyPair::from_random(a));
        let kb = KeyCtx::xor(ThreadId::new(1), KeyPair::from_random(b));
        let mut table = PackedTable::new(16, 32, 0);
        let val = val & 0xffff_ffff;
        table.set(3, val, &ka);
        // The foreign read is decorrelated; equality would require a
        // 32-bit key-slice collision.
        if table.get(3, &kb) == val {
            // Astronomically unlikely; treat as a real failure.
            prop_assert!(false, "cross-key read matched the plaintext");
        }
    }
}

//! Decoder robustness: `GmonData::decode`, `Stream::decode` against a
//! stream's newest snapshot, and the flat-profile parser must never
//! panic, whatever bytes arrive — the collector's files can be truncated
//! by crashes or corrupted in transit, and a delta push is read against
//! the snapshot its session already holds. A mutated delta must also be
//! refused, or read as the grammar's second reader reads it.

use incprof_profile::gmon::{GmonData, Stream};
use incprof_profile::report::parse_flat_profile;
use incprof_profile::{ArcStats, FlatProfile, FunctionId, FunctionStats, FunctionTable};
use proptest::prelude::*;
use reference::reference;

mod reference;

/// A stream's current table: three functions, one with a location.
fn stream_table() -> FunctionTable {
    let mut table = FunctionTable::new();
    table.register("alpha");
    table.register_info(incprof_profile::FunctionInfo::with_location(
        "beta", "b.c", 7,
    ));
    table.register("gamma");
    table
}

/// A stream over [`stream_table`] whose newest snapshot is `base`.
fn stream_at(base: &GmonData) -> Stream {
    let mut stream = Stream::new();
    stream.advance(base.clone());
    stream
}

/// A delta base and the snapshot after it: every row and the arc move,
/// and some counters by more than one varint byte holds.
fn delta_pair() -> (GmonData, GmonData) {
    let mut base = GmonData {
        sample_index: 4,
        timestamp_ns: 40,
        functions: stream_table(),
        ..Default::default()
    };
    for f in 0..3 {
        let stats = FunctionStats {
            self_time: 5_000 * (f + 1),
            calls: f,
            child_time: 0,
        };
        base.flat.set(FunctionId(f as u32), stats);
    }
    base.callgraph.set(
        FunctionId(0),
        FunctionId(2),
        ArcStats {
            count: 3,
            child_time: 9,
        },
    );
    let mut next = base.clone();
    next.sample_index = 5;
    next.timestamp_ns = 50;
    for f in 0..3 {
        let s = next.flat.get(FunctionId(f));
        let stats = FunctionStats {
            self_time: s.self_time + 300_000,
            calls: s.calls + 1,
            child_time: 7,
        };
        next.flat.set(FunctionId(f), stats);
    }
    next.callgraph.set(
        FunctionId(0),
        FunctionId(2),
        ArcStats {
            count: 4,
            child_time: 1_000,
        },
    );
    (base, next)
}

#[test]
fn every_byte_of_a_delta_at_every_value_is_refused_or_read_as_the_reference_reads_it() {
    let (base, next) = delta_pair();
    let stream = stream_at(&base);
    let delta = stream.encode(&next).to_vec();
    for at in 0..delta.len() {
        for value in 0..=u8::MAX {
            let mut bytes = delta.clone();
            bytes[at] = value;
            assert_eq!(
                stream.decode(&bytes).ok(),
                reference(&bytes, Some(&base)),
                "byte {at} = {value:#04x}"
            );
        }
    }
    for len in 0..delta.len() {
        assert!(stream.decode(&delta[..len]).is_err(), "truncated to {len}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_never_panics_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any outcome is fine except a panic.
        let _ = GmonData::decode(&bytes);
        let _ = stream_at(&delta_pair().0).decode(&bytes);
    }

    #[test]
    fn decode_never_panics_on_mutated_valid_streams(
        flip_at in 0usize..256,
        new_byte in any::<u8>(),
        truncate_to in 0usize..400,
    ) {
        let mut table = FunctionTable::new();
        let a = table.register("alpha");
        let b = table.register("beta(int, const char*)");
        let mut flat = FlatProfile::new();
        flat.set(a, FunctionStats { self_time: 123, calls: 4, child_time: 5 });
        flat.set(b, FunctionStats { self_time: 999, calls: 0, child_time: 0 });
        let gmon = GmonData {
            sample_index: 1,
            timestamp_ns: 2,
            functions: table,
            flat,
            callgraph: Default::default(),
        };
        let current = stream_at(&GmonData { functions: gmon.functions.clone(), ..Default::default() });
        for payload in [gmon.encode(), gmon.encode_counters()] {
            let mut bytes = payload.to_vec();
            let i = flip_at % bytes.len();
            bytes[i] = new_byte;
            let _ = GmonData::decode(&bytes);
            let _ = current.decode(&bytes);
            bytes.truncate(truncate_to.min(bytes.len()));
            let _ = GmonData::decode(&bytes);
            let _ = current.decode(&bytes);
        }
    }

    #[test]
    fn a_mutated_delta_is_refused_or_read_as_the_reference_reads_it(
        flip_at in 0usize..256,
        new_byte in any::<u8>(),
        truncate_to in 0usize..80,
    ) {
        let (base, next) = delta_pair();
        let stream = stream_at(&base);
        let mut bytes = stream.encode(&next).to_vec();
        prop_assert!(!incprof_profile::gmon::carries_table(&bytes));
        prop_assert_eq!(stream.decode(&bytes).ok(), Some(next));
        let i = flip_at % bytes.len();
        bytes[i] = new_byte;
        for _ in 0..2 {
            prop_assert_eq!(stream.decode(&bytes).ok(), reference(&bytes, Some(&base)));
            prop_assert_eq!(GmonData::decode(&bytes).ok(), reference(&bytes, None));
            bytes.truncate(truncate_to.min(bytes.len()));
        }
    }

    #[test]
    fn report_parsers_never_panic_on_text(text in "\\PC{0,400}") {
        let _ = parse_flat_profile(&text);
    }

    #[test]
    fn report_parsers_never_panic_on_table_shaped_noise(
        rows in proptest::collection::vec("[ -~]{0,60}", 0..12),
    ) {
        let mut text = String::from(
            " time   seconds   seconds    calls  ms/call  ms/call  name\n",
        );
        for r in &rows {
            text.push_str(r);
            text.push('\n');
        }
        let _ = parse_flat_profile(&text);
        let _ = FunctionId(0);
    }
}

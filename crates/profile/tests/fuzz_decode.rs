//! Decoder robustness: `GmonData::decode`, `GmonData::decode_in` against a
//! stream's non-empty table, and the flat-profile parser must never
//! panic, whatever bytes arrive — the collector's files can be truncated
//! by crashes or corrupted in transit, and a counters-only push is read
//! against the table its session already holds.

use incprof_profile::gmon::GmonData;
use incprof_profile::report::parse_flat_profile;
use incprof_profile::{FlatProfile, FunctionId, FunctionStats, FunctionTable};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_never_panics_on_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any outcome is fine except a panic.
        let _ = GmonData::decode(&bytes);
        let _ = GmonData::decode_in(&bytes, &stream_table());
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
        let current = gmon.functions.clone();
        for payload in [gmon.encode(), gmon.encode_counters()] {
            let mut bytes = payload.to_vec();
            let i = flip_at % bytes.len();
            bytes[i] = new_byte;
            let _ = GmonData::decode(&bytes);
            let _ = GmonData::decode_in(&bytes, &current);
            bytes.truncate(truncate_to.min(bytes.len()));
            let _ = GmonData::decode(&bytes);
            let _ = GmonData::decode_in(&bytes, &current);
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

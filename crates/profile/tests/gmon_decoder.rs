//! Differential oracle for [`GmonDecoder`]: over every stream below, the
//! stream decoder's answer to each payload must equal a fresh
//! [`GmonData::decode`] of that payload — equal data, or an equal typed
//! error — and must never panic. The streams cover what a remembered
//! function table could get wrong: a table that stays, one that grows,
//! one renamed at equal length, payloads with several function sections,
//! and every single-byte flip and truncation of a payload decoded right
//! after a cache hit.

use incprof_profile::{
    ArcStats, FunctionInfo, FunctionStats, FunctionTable, GmonData, GmonDecoder, ProfileError,
};

/// Byte offset of the function section's tag in an encoded payload:
/// magic (4), version (4), header tag (1) and header (16).
const FUNCTIONS_TAG_AT: usize = 25;
/// Bytes after the function section of a payload with no flat and no
/// arc records: flat tag + count, arc tag + count, end tag.
const EMPTY_TAIL: usize = 11;

fn table(names: &[&str]) -> FunctionTable {
    let mut t = FunctionTable::new();
    for (i, name) in names.iter().enumerate() {
        if i % 2 == 0 {
            t.register_info(FunctionInfo::with_location(*name, "app.c", 10 + i as u32));
        } else {
            t.register(*name);
        }
    }
    t
}

/// Snapshot `i` of a stream over `functions`: counters grow with `i`.
fn snapshot(i: u64, functions: &FunctionTable) -> GmonData {
    let mut g = GmonData {
        sample_index: i,
        timestamp_ns: 1_000 * i,
        functions: functions.clone(),
        ..Default::default()
    };
    let ids: Vec<_> = functions.iter().map(|(id, _)| id).collect();
    for (j, &id) in ids.iter().enumerate() {
        let j = j as u64;
        g.flat.set(
            id,
            FunctionStats {
                self_time: 100 * i * (j + 1),
                calls: i + j,
                child_time: 7 * i,
            },
        );
    }
    for pair in ids.windows(2) {
        g.callgraph.set(
            pair[0],
            pair[1],
            ArcStats {
                count: i,
                child_time: 3 * i,
            },
        );
    }
    g
}

/// The encoded function section (count and records, no tag) of `t`.
fn section(t: &FunctionTable) -> Vec<u8> {
    let bytes = GmonData {
        functions: t.clone(),
        ..Default::default()
    }
    .encode();
    bytes[FUNCTIONS_TAG_AT + 1..bytes.len() - EMPTY_TAIL].to_vec()
}

/// `g`'s payload with its function section replaced by one section per
/// table of `tables`, in order.
fn with_sections(g: &GmonData, tables: &[&FunctionTable]) -> Vec<u8> {
    let bytes = g.encode();
    let own_end = FUNCTIONS_TAG_AT + 1 + section(&g.functions).len();
    let mut out = bytes[..FUNCTIONS_TAG_AT].to_vec();
    for t in tables {
        out.push(bytes[FUNCTIONS_TAG_AT]);
        out.extend_from_slice(&section(t));
    }
    out.extend_from_slice(&bytes[own_end..]);
    out
}

fn same(a: &Result<GmonData, ProfileError>, b: &Result<GmonData, ProfileError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(x), Err(y)) => format!("{x:?}") == format!("{y:?}"),
        _ => false,
    }
}

/// Decode `payloads` in order through one decoder, checking each answer
/// against a fresh decode; returns the decoder's answers.
fn check_stream(payloads: &[Vec<u8>]) -> Vec<Result<GmonData, ProfileError>> {
    let mut decoder = GmonDecoder::new();
    payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let got = decoder.decode(p);
            let want = GmonData::decode(p);
            assert!(
                same(&got, &want),
                "payload {i}: stream decoder {got:?}, fresh decode {want:?}"
            );
            got
        })
        .collect()
}

#[test]
fn an_unchanged_table_is_parsed_once_and_shared() {
    let t = table(&["main", "cg_solve", "waxpby", "matvec", "dot"]);
    let payloads: Vec<Vec<u8>> = (0..8).map(|i| snapshot(i, &t).encode().to_vec()).collect();
    let out = check_stream(&payloads);
    let first = &out[0].as_ref().unwrap().functions;
    for g in &out[1..] {
        assert!(
            g.as_ref().unwrap().functions.shares_contents_with(first),
            "a repeated function section must come back shared, not parsed again"
        );
    }
}

#[test]
fn a_table_that_grows_mid_stream() {
    let small = table(&["main", "setup"]);
    let mut grown = small.clone();
    grown.register("solve");
    let mut located = grown.clone();
    located.register_info(FunctionInfo::with_location("setup", "setup.c", 3));
    let tables = [&small, &small, &grown, &grown, &located, &located, &small];
    let payloads: Vec<Vec<u8>> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| snapshot(i as u64, t).encode().to_vec())
        .collect();
    let out = check_stream(&payloads);
    let tables: Vec<&FunctionTable> = out.iter().map(|g| &g.as_ref().unwrap().functions).collect();
    assert!(tables[1].shares_contents_with(tables[0]));
    assert!(!tables[2].shares_contents_with(tables[1]));
    assert!(tables[3].shares_contents_with(tables[2]));
    assert_eq!(
        tables[4]
            .info(tables[4].id_of("setup").unwrap())
            .unwrap()
            .line,
        Some(3)
    );
    assert!(tables[5].shares_contents_with(tables[4]));
}

#[test]
fn a_same_length_rename_is_parsed_again() {
    let before = table(&["main", "kernel_a", "exit"]);
    let after = table(&["main", "kernel_b", "exit"]);
    let payloads: Vec<Vec<u8>> = [&before, &before, &after, &after, &before]
        .iter()
        .enumerate()
        .map(|(i, t)| snapshot(i as u64, t).encode().to_vec())
        .collect();
    assert_eq!(payloads[1].len(), payloads[2].len());
    let out = check_stream(&payloads);
    let names = |g: &Result<GmonData, ProfileError>| -> Vec<String> {
        let t = &g.as_ref().unwrap().functions;
        t.iter().map(|(_, info)| info.name.clone()).collect()
    };
    assert_eq!(names(&out[2]), ["main", "kernel_b", "exit"]);
    assert_eq!(names(&out[4]), ["main", "kernel_a", "exit"]);
}

#[test]
fn payloads_with_several_function_sections() {
    let base = table(&["main", "cg_solve"]);
    let extra = table(&["waxpby", "dot", "main"]);
    let g = snapshot(1, &base);
    let only_extra = snapshot(2, &extra).encode().to_vec();
    let payloads = vec![
        g.encode().to_vec(),
        // The second section parses into a non-empty table, so what it
        // gives is not what its bytes alone give: it must not be
        // remembered as such.
        with_sections(&g, &[&base, &extra]),
        only_extra.clone(),
        only_extra,
        // A remembered first section, then one more on top of it: the
        // shared table must be copied, not written through.
        with_sections(&g, &[&extra, &base]),
        // The remembered section again after another one: it must add
        // to the table built so far, not replace it.
        with_sections(&g, &[&base, &extra, &base]),
        g.encode().to_vec(),
    ];
    let out = check_stream(&payloads);
    let tables: Vec<&FunctionTable> = out.iter().map(|g| &g.as_ref().unwrap().functions).collect();
    assert_eq!(
        tables.iter().map(|t| t.len()).collect::<Vec<_>>(),
        [2, 4, 3, 3, 4, 4, 2]
    );
    assert!(tables[3].shares_contents_with(tables[2]));
    assert_eq!(
        tables[3].len(),
        3,
        "the remembered table was written through"
    );
}

#[test]
fn every_flip_and_truncation_after_a_cache_hit() {
    let t = table(&["main", "cg_solve", "waxpby"]);
    let payload = snapshot(3, &t).encode().to_vec();
    let primed = || {
        let mut decoder = GmonDecoder::new();
        for _ in 0..2 {
            decoder.decode(&payload).expect("own payload decodes");
        }
        decoder
    };
    let check = |mutant: &[u8], what: &str| {
        let mut decoder = primed();
        let got = decoder.decode(mutant);
        let want = GmonData::decode(mutant);
        assert!(
            same(&got, &want),
            "{what}: stream decoder {got:?}, fresh decode {want:?}"
        );
        // Whatever the mutant left remembered, the clean payload still
        // decodes as it always does.
        let again = decoder.decode(&payload);
        assert!(
            same(&again, &GmonData::decode(&payload)),
            "{what}: the clean payload after it decoded as {again:?}"
        );
    };
    for at in 0..payload.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut mutant = payload.clone();
            mutant[at] ^= mask;
            check(&mutant, &format!("byte {at} ^ {mask:#04x}"));
        }
    }
    for len in 0..payload.len() {
        check(&payload[..len], &format!("truncated to {len} bytes"));
    }
}

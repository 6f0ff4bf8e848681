//! Differential oracle for [`GmonData::decode_in`], the stream rule: a
//! payload without a function section means the stream's current table,
//! and a payload with one replaces it. Over every stream below, each
//! payload decoded against the table its predecessor left must equal a
//! plain [`GmonData::decode`] of the same payload with that table's
//! section spliced in after its headers (a payload that already carries
//! one is decoded as it is) — equal data, or an equal typed error — and
//! must never panic. The streams send the table once, repeat it in every
//! payload, grow it, replace it at equal length, and stack several
//! sections in one payload; every single-byte flip and truncation of a
//! counters-only payload and of a full one is checked the same way.

use incprof_profile::gmon::carries_table;
use incprof_profile::{ArcStats, FunctionInfo, FunctionStats, FunctionTable, GmonData};
use incprof_profile::{FunctionId, ProfileError};

/// Byte offset of the function section's tag in an encoded payload:
/// magic (4), version (4), header tag (1) and header (16).
const FUNCTIONS_TAG_AT: usize = 25;
const HEADER_TAG: u8 = 0x01;
const FUNCTIONS_TAG: u8 = 0x02;

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
    let ids: Vec<FunctionId> = functions.iter().map(|(id, _)| id).collect();
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

/// The encoded function section of `t`, its tag included.
fn section(t: &FunctionTable) -> Vec<u8> {
    let g = GmonData {
        functions: t.clone(),
        ..Default::default()
    };
    let (full, counters) = (g.encode(), g.encode_counters());
    full[FUNCTIONS_TAG_AT..FUNCTIONS_TAG_AT + full.len() - counters.len()].to_vec()
}

/// The oracle's input: `payload` made self-contained by splicing
/// `table`'s section in after its magic, version and header records,
/// unless a function section already stands there.
fn spliced(payload: &[u8], table: &FunctionTable) -> Vec<u8> {
    if payload.len() < 8 {
        return payload.to_vec();
    }
    let mut at = 8;
    while payload.get(at) == Some(&HEADER_TAG) && at + 17 <= payload.len() {
        at += 17;
    }
    if payload.get(at) == Some(&FUNCTIONS_TAG) {
        return payload.to_vec();
    }
    assert!(!carries_table(payload), "carries_table disagrees at {at}");
    [&payload[..at], &section(table), &payload[at..]].concat()
}

/// `g`'s payload with one function section per table of `tables`, in
/// order, where its own would be.
fn with_sections(g: &GmonData, tables: &[&FunctionTable]) -> Vec<u8> {
    let counters = g.encode_counters();
    let mut out = counters[..FUNCTIONS_TAG_AT].to_vec();
    for t in tables {
        out.extend_from_slice(&section(t));
    }
    out.extend_from_slice(&counters[FUNCTIONS_TAG_AT..]);
    out
}

fn same(a: &Result<GmonData, ProfileError>, b: &Result<GmonData, ProfileError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(x), Err(y)) => format!("{x:?}") == format!("{y:?}"),
        _ => false,
    }
}

/// Decode `payload` against `table` and check it against the oracle.
fn check(payload: &[u8], table: &FunctionTable, what: &str) -> Result<GmonData, ProfileError> {
    let got = GmonData::decode_in(payload, table);
    let want = GmonData::decode(&spliced(payload, table));
    assert!(
        same(&got, &want),
        "{what}: decode_in {got:?}, spliced decode {want:?}"
    );
    got
}

/// Read `payloads` as one stream, each against the table the last good
/// one left; returns the answers.
fn check_stream(payloads: &[Vec<u8>]) -> Vec<Result<GmonData, ProfileError>> {
    let mut current = FunctionTable::new();
    payloads
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let got = check(p, &current, &format!("payload {i}"));
            if let Ok(g) = &got {
                current = g.functions.clone();
            }
            got
        })
        .collect()
}

/// The stream a table-once writer sends for `tables`: a payload carries
/// its table when it differs from its predecessor's.
fn table_once(tables: &[&FunctionTable]) -> Vec<Vec<u8>> {
    let mut previous: Option<&FunctionTable> = None;
    tables
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let g = snapshot(i as u64, t);
            let bytes = match previous.replace(t) {
                Some(p) if p == t => g.encode_counters(),
                _ => g.encode(),
            };
            bytes.to_vec()
        })
        .collect()
}

fn tables_of(out: &[Result<GmonData, ProfileError>]) -> Vec<&FunctionTable> {
    out.iter().map(|g| &g.as_ref().unwrap().functions).collect()
}

#[test]
fn a_table_sent_once_is_shared_by_every_counters_payload() {
    let t = table(&["main", "cg_solve", "waxpby", "matvec", "dot"]);
    let payloads = table_once(&[&t; 8]);
    assert!(carries_table(&payloads[0]));
    assert!(payloads[1..].iter().all(|p| !carries_table(p)));
    let out = check_stream(&payloads);
    for (i, g) in out.iter().enumerate() {
        assert_eq!(g.as_ref().unwrap(), &snapshot(i as u64, &t));
    }
    let tables = tables_of(&out);
    for later in &tables[1..] {
        assert!(later.shares_contents_with(tables[0]));
    }
}

#[test]
fn a_table_repeated_in_every_payload_decodes_as_alone() {
    // The form every record of a log written before the stream rule has.
    let t = table(&["main", "setup", "solve"]);
    let payloads: Vec<Vec<u8>> = (0..5).map(|i| snapshot(i, &t).encode().to_vec()).collect();
    let out = check_stream(&payloads);
    for (p, g) in payloads.iter().zip(&out) {
        assert!(same(g, &GmonData::decode(p)));
    }
}

#[test]
fn a_table_that_grows_mid_stream() {
    let small = table(&["main", "setup"]);
    let mut grown = small.clone();
    grown.register("solve");
    let mut located = grown.clone();
    located.register_info(FunctionInfo::with_location("setup", "setup.c", 3));
    let sequence = [&small, &small, &grown, &grown, &located, &located, &located];
    let payloads = table_once(&sequence);
    let carried: Vec<bool> = payloads.iter().map(|p| carries_table(p)).collect();
    assert_eq!(carried, [true, false, true, false, true, false, false]);
    let out = check_stream(&payloads);
    for (i, (g, t)) in out.iter().zip(sequence).enumerate() {
        assert_eq!(g.as_ref().unwrap(), &snapshot(i as u64, t));
    }
    let tables = tables_of(&out);
    assert!(tables[3].shares_contents_with(tables[2]));
    assert_eq!(tables[5].info(FunctionId(1)).unwrap().line, Some(3));
    assert!(tables[6].shares_contents_with(tables[4]));
}

#[test]
fn a_table_replaced_at_equal_length() {
    let before = table(&["main", "kernel_a", "exit"]);
    let after = table(&["main", "kernel_b", "exit"]);
    let payloads = table_once(&[&before, &before, &after, &after, &before, &before]);
    assert_eq!(payloads[1].len(), payloads[3].len());
    let out = check_stream(&payloads);
    let names = |g: &Result<GmonData, ProfileError>| -> Vec<String> {
        let t = &g.as_ref().unwrap().functions;
        t.iter().map(|(_, info)| info.name.clone()).collect()
    };
    assert_eq!(names(&out[3]), ["main", "kernel_b", "exit"]);
    assert_eq!(names(&out[5]), ["main", "kernel_a", "exit"]);
}

#[test]
fn counters_before_any_table_name_unknown_functions() {
    // What a daemon answers BadPayload to: a table-less push to a
    // session that has no table yet. The reader keeps its table.
    let t = table(&["main", "solve"]);
    let payloads = vec![
        snapshot(0, &t).encode_counters().to_vec(),
        snapshot(1, &t).encode().to_vec(),
        snapshot(2, &t).encode_counters().to_vec(),
    ];
    let out = check_stream(&payloads);
    assert!(matches!(
        out[0],
        Err(ProfileError::UnknownFunction { id: 0 })
    ));
    assert_eq!(out[2].as_ref().unwrap(), &snapshot(2, &t));
}

#[test]
fn payloads_with_several_function_sections() {
    let base = table(&["main", "cg_solve"]);
    let extra = table(&["waxpby", "dot", "main"]);
    let g = snapshot(1, &base);
    // Counters first, then a section: the stream's table, added to.
    let counters = g.encode_counters();
    let end = counters.len() - 1;
    let late = [
        &counters[..end],
        &section(&table(&["late"])),
        &counters[end..],
    ]
    .concat();
    let payloads = vec![
        g.encode().to_vec(),
        // The first section replaces the stream's table, the second adds
        // to it.
        with_sections(&g, &[&base, &extra]),
        g.encode_counters().to_vec(),
        with_sections(&g, &[&extra, &base]),
        late,
        with_sections(&g, &[&base, &extra, &base]),
        g.encode().to_vec(),
    ];
    let out = check_stream(&payloads);
    let tables = tables_of(&out);
    assert_eq!(
        tables.iter().map(|t| t.len()).collect::<Vec<_>>(),
        [2, 4, 4, 4, 5, 4, 2]
    );
    assert!(tables[2].shares_contents_with(tables[1]));
    assert_eq!(tables[4].name(FunctionId(4)), "late");
    assert_eq!(
        tables[3].id_of("late"),
        None,
        "the stream's table was written through"
    );
}

#[test]
fn every_flip_and_truncation_against_a_stream_table() {
    let t = table(&["main", "cg_solve", "waxpby"]);
    let mut other = table(&["main", "cg_solve"]);
    other.register("matvec");
    let g = snapshot(3, &t);
    for payload in [g.encode_counters().to_vec(), g.encode().to_vec()] {
        for current in [&t, &other, &FunctionTable::new()] {
            for at in 0..payload.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut mutant = payload.clone();
                    mutant[at] ^= mask;
                    let _ = check(&mutant, current, &format!("byte {at} ^ {mask:#04x}"));
                }
            }
            for len in 0..payload.len() {
                let _ = check(&payload[..len], current, &format!("truncated to {len}"));
            }
        }
    }
}

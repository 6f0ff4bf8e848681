//! Differential oracles for [`Stream::decode`], the stream rule.
//!
//! * **The table.** A payload without a function section means the
//!   stream's current table, and a payload with one replaces it. Over
//!   every stream below, each payload decoded against the table its
//!   predecessor left must equal a plain [`GmonData::decode`] of the same
//!   payload with that table's section spliced in after its headers (a
//!   payload that already carries one is decoded as it is) — equal data,
//!   or an equal typed error — and must never panic. The streams send the
//!   table once, repeat it in every payload, grow it, replace it at equal
//!   length, and stack several sections in one payload; every single-byte
//!   flip and truncation of a counters-only payload and of a full one is
//!   checked the same way.
//! * **The counters.** A delta record reads the counters of the snapshot
//!   it names as its base, which no splice can give. Read against its
//!   base, a delta must equal the decoded self-contained payload of the
//!   same snapshot; and every payload that holds one is also held to
//!   [`reference`], a second reader of the payload grammar written apart
//!   from the codec: both accept it with equal data, or both refuse it.
//!   Every single-byte flip and truncation of a delta is checked so,
//!   against its base, another base and no base.

use incprof_profile::gmon::{carries_table, Stream};
use incprof_profile::{ArcStats, FunctionInfo, FunctionStats, FunctionTable, GmonData};
use incprof_profile::{FunctionId, ProfileError};
use reference::reference;

mod reference;

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

/// A stream whose newest snapshot is `g`.
fn stream_at(g: &GmonData) -> Stream {
    let mut stream = Stream::new();
    stream.advance(g.clone());
    stream
}

/// Decode `payload` against a stream that holds `table` and no counters,
/// and check it against the oracle: the spliced decode, or, for a payload
/// whose delta record the spliced one cannot read, [`reference`].
fn check(payload: &[u8], table: &FunctionTable, what: &str) -> Result<GmonData, ProfileError> {
    let tail = GmonData {
        functions: table.clone(),
        ..Default::default()
    };
    let got = stream_at(&tail).decode(payload);
    let want = GmonData::decode(&spliced(payload, table));
    if matches!(want, Err(ProfileError::WrongBase { .. })) {
        let _ = agrees(payload, Some(&tail), what);
    } else {
        assert!(
            same(&got, &want),
            "{what}: stream decode {got:?}, spliced decode {want:?}"
        );
    }
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

/// Decode `payload` against a stream whose newest snapshot is `tail` and
/// hold the answer to [`reference`]'s: both accept it with equal data, or
/// both refuse it.
fn agrees(payload: &[u8], tail: Option<&GmonData>, what: &str) -> Result<GmonData, ProfileError> {
    let got = match tail {
        Some(t) => stream_at(t).decode(payload),
        None => GmonData::decode(payload),
    };
    let want = reference(payload, tail);
    assert_eq!(
        got.as_ref().ok(),
        want.as_ref(),
        "{what}: stream decode {got:?}, reference {want:?}"
    );
    got
}

/// A stream of `n` snapshots over a 12-function table where, at each
/// step, only the phase's third of the functions move, a function first
/// appears at step 2, arcs appear at step 3, and counters grow by more
/// than one varint byte holds.
fn sparse_stream(n: u64) -> Vec<GmonData> {
    let t = table(&[
        "main", "setup", "exchange", "solve", "pack", "unpack", "dot", "axpy", "matvec", "halo",
        "reduce", "exit",
    ]);
    let mut g = GmonData {
        functions: t.clone(),
        ..Default::default()
    };
    let mut out = Vec::new();
    for i in 0..n {
        g.sample_index = i;
        g.timestamp_ns = 10_000_000 * (i + 1);
        for f in 0..12u32 {
            let id = FunctionId(f);
            if f % 3 == (i % 3) as u32 && (f != 11 || i >= 2) {
                let s = g.flat.get(id);
                let stats = FunctionStats {
                    self_time: s.self_time + 1_000_003 * u64::from(f + 1),
                    calls: s.calls + 1 + u64::from(f),
                    child_time: s.child_time + 77 * i,
                };
                g.flat.set(id, stats);
            }
        }
        if i >= 3 {
            let a = g.callgraph.get(FunctionId(0), FunctionId(3));
            let arc = ArcStats {
                count: a.count + 2,
                child_time: a.child_time + 300 * i,
            };
            g.callgraph.set(FunctionId(0), FunctionId(3), arc);
        }
        out.push(g.clone());
    }
    out
}

#[test]
fn a_delta_read_against_its_base_equals_the_whole_snapshot() {
    let sparse = sparse_stream(9);
    let t = table(&["main", "cg_solve", "waxpby"]);
    let dense: Vec<GmonData> = (0..6).map(|i| snapshot(i, &t)).collect();
    // A counter lowered at step 2: that snapshot goes whole, and the
    // stream carries on in deltas after it.
    let mut lowered = dense.clone();
    lowered[2].flat.set(FunctionId(1), FunctionStats::default());
    for (name, stream) in [
        ("sparse", &sparse),
        ("dense", &dense),
        ("lowered", &lowered),
    ] {
        let mut writer = Stream::new();
        let mut forms = Vec::new();
        for (i, g) in stream.iter().enumerate() {
            let payload = writer.encode(g);
            forms.push(carries_table(&payload));
            let whole = GmonData::decode(&g.encode()).unwrap();
            let read = agrees(&payload, writer.tail(), &format!("{name} {i}")).unwrap();
            assert_eq!(read, whole, "{name} {i}: the delta is not the snapshot");
            writer.advance(read);
        }
        let mut want = vec![false; stream.len()];
        want[0] = true;
        if name == "lowered" {
            want[2] = true;
        }
        assert_eq!(forms, want, "{name}: which payloads went whole");
    }
}

#[test]
fn a_delta_against_any_other_base_is_refused() {
    let s = sparse_stream(5);
    let delta = stream_at(&s[2]).encode(&s[3]);
    assert!(!carries_table(&delta));
    for (tail, at) in [(Some(&s[1]), Some(1)), (Some(&s[3]), Some(3)), (None, None)] {
        let got = agrees(&delta, tail, "another base");
        assert!(
            matches!(got, Err(ProfileError::WrongBase { base: 2, tail }) if tail == at),
            "{got:?}"
        );
    }
    // A snapshot with the base's index but other counters is not told
    // apart by the index alone; the reader trusts the stream it holds.
    let mut impostor = s[2].clone();
    impostor.flat = s[0].flat.clone();
    let read = agrees(&delta, Some(&impostor), "impostor base").unwrap();
    assert_ne!(read, s[3]);
}

#[test]
fn every_flip_and_truncation_of_a_delta() {
    let s = sparse_stream(6);
    let delta = stream_at(&s[4]).encode(&s[5]).to_vec();
    assert!(delta.len() > 40, "the delta holds rows and an arc");
    let mut other = s[4].clone();
    other.sample_index = 9;
    for tail in [Some(&s[4]), Some(&s[3]), Some(&other), None] {
        let at_base = tail.is_some_and(|t| t.sample_index == 4);
        for at in 0..delta.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut mutant = delta.clone();
                mutant[at] ^= mask;
                let _ = agrees(&mutant, tail, &format!("byte {at} ^ {mask:#04x}"));
            }
        }
        for len in 0..delta.len() {
            let got = agrees(&delta[..len], tail, &format!("truncated to {len}"));
            assert!(got.is_err(), "a truncated delta decoded");
        }
        assert_eq!(agrees(&delta, tail, "whole").is_ok(), at_base);
    }
}

#[test]
fn a_count_past_the_bytes_left_is_refused_before_its_records() {
    let t = table(&["main", "solve"]);
    let g = snapshot(1, &t);
    let head = &g.encode()[..25];
    let truncated = |context| Err::<GmonData, _>(ProfileError::Truncated { context });
    // Absolute sections: a u32 count, then a few bytes of one record.
    for (tag, context) in [
        (0x02u8, "function records"),
        (0x03, "flat records"),
        (0x04, "arc records"),
    ] {
        for count in [2u32, 1 << 20, u32::MAX] {
            let payload = [head, &[tag], &count.to_le_bytes(), &[0u8; 20], &[0xFF]].concat();
            let got = GmonData::decode(&payload);
            assert!(
                same(&got, &truncated(context)),
                "{tag:#x} x{count}: {got:?}"
            );
        }
    }
    // Delta sections: a varint count, then fewer than four bytes a row.
    let huge = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
    let base = stream_at(&g);
    for (payload, context) in [
        (
            [head, &[0x05, 1], &huge, &[1, 2, 3, 0xFF]].concat(),
            "delta rows",
        ),
        (
            [head, &[0x05, 1, 0], &huge, &[1, 2, 0xFF]].concat(),
            "delta arcs",
        ),
        (
            [head, &[0x05, 1, 4], &[0; 11], &[0xFF]].concat(),
            "delta rows",
        ),
    ] {
        let got = base.decode(&payload);
        assert!(same(&got, &truncated(context)), "{context}: {got:?}");
        assert!(reference(&payload, Some(&g)).is_none());
    }
}

//! A `gmon.out`-style binary snapshot format.
//!
//! Real gprof data files start with a `gmon` magic and carry tagged records
//! (histogram, call-graph arcs, basic-block counts). IncProf's collector
//! thread repeatedly invokes glibc's hidden write function to emit one such
//! file per interval, renaming each to a unique sample name (paper §IV,
//! Fig. 1).
//!
//! We keep the same outer structure — magic, version, tagged records — but
//! define our own record payloads, since our runtime records function-keyed
//! counters rather than PC histograms:
//!
//! | tag | record |
//! |-----|--------|
//! | 0x01 | header: sample index (u64), timestamp ns (u64) |
//! | 0x02 | function table (only in a self-contained payload): count, then per function id/address/name/file?/line? |
//! | 0x03 | flat records: count, then per function id/self_ns/calls/child_ns |
//! | 0x04 | arc records: count, then per arc from/to/count/child_ns |
//! | 0x05 | delta (only in a stream payload): base sample index, the changed flat rows (count, then per row id/self_ns/calls/child_ns) and the changed arcs (count, then per arc from/to/count/child_ns), counters as increases over the base |
//! | 0xFF | end of stream |
//!
//! Integers are little-endian, except in the delta record, where every
//! field is an LEB128 varint. Strings are u32 length + UTF-8 bytes.
//!
//! **Streams.** A payload is either self-contained, written by
//! [`GmonData::encode`] with the function section as its first record
//! after the headers, or one payload of a [`Stream`], read against the
//! stream's newest snapshot: it takes that snapshot's function table,
//! and a delta record takes that snapshot's counters too, which must be
//! the snapshot the record names as its base. Like a real gmon dump,
//! which holds counters while gprof resolves names once from the binary,
//! a stream sends its table only when it changes; and since every
//! consumer subtracts consecutive snapshots anyway (§IV), it sends only
//! the rows that moved. [`Stream`] alone decides which form a snapshot
//! takes. Its decoder half also reads a payload of absolute counters
//! without a table ([`GmonData::encode_counters`]), the form logs written
//! before deltas hold. The daemon's wire and its snapshot log are
//! streams; sample files stay self-contained ([`GmonData::decode`]).

use crate::callgraph::{ArcStats, CallGraphProfile};
use crate::error::ProfileError;
use crate::flat::{FlatProfile, FunctionStats};
use crate::function::{FunctionId, FunctionInfo, FunctionTable};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Magic bytes at the start of every gmon stream (same as real gprof).
pub const MAGIC: &[u8; 4] = b"gmon";
/// Format version this crate writes and understands.
pub const VERSION: u32 = 1;

const TAG_HEADER: u8 = 0x01;
const TAG_FUNCTIONS: u8 = 0x02;
const TAG_FLAT: u8 = 0x03;
const TAG_ARCS: u8 = 0x04;
const TAG_DELTA: u8 = 0x05;
const TAG_END: u8 = 0xFF;

/// One cumulative profile snapshot: the profile state of a process at a
/// single collection instant, with the function table its ids refer to —
/// the in-memory form of each renamed `gmon.out.N` file in the paper's
/// Fig. 1 collection loop, and what a gmon payload decodes to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GmonData {
    /// Monotone sample index assigned by the collector (0, 1, 2, ...).
    pub sample_index: u64,
    /// Timestamp of the snapshot in nanoseconds (wall or virtual clock).
    pub timestamp_ns: u64,
    /// Function table as known at snapshot time.
    pub functions: FunctionTable,
    /// Cumulative flat profile.
    pub flat: FlatProfile,
    /// Cumulative call-graph profile.
    pub callgraph: CallGraphProfile,
}

/// The former name of [`GmonData`]. It exists only because
/// `perfbench/benches/perf/gen.rs` imports it, and goes when perfbench
/// reaches the product through its public seam (ROADMAP item 11).
pub type ProfileSnapshot = GmonData;

impl GmonData {
    /// A clone of `gmon`. It exists only because
    /// `perfbench/benches/perf/gen.rs` calls it as
    /// `ProfileSnapshot::from_gmon`, and goes with [`ProfileSnapshot`]
    /// (ROADMAP item 11).
    pub fn from_gmon(gmon: &GmonData) -> GmonData {
        gmon.clone()
    }

    /// Serialize to one self-contained payload, function table
    /// included.
    pub fn encode(&self) -> Bytes {
        self.encode_with(true)
    }

    /// The same payload without its function section: absolute counters
    /// that a [`Stream`] reads against its newest snapshot's table. No
    /// stream writes this form any more; logs written before deltas hold
    /// it, and [`Stream::decode`] still reads it.
    pub fn encode_counters(&self) -> Bytes {
        self.encode_with(false)
    }

    /// The magic, the version and the header record, in a buffer of
    /// `capacity` bytes.
    fn start(&self, capacity: usize) -> BytesMut {
        let mut buf = BytesMut::with_capacity(capacity);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u8(TAG_HEADER);
        buf.put_u64_le(self.sample_index);
        buf.put_u64_le(self.timestamp_ns);
        buf
    }

    fn encode_with(&self, table: bool) -> Bytes {
        let functions = if table { self.functions.len() } else { 0 };
        let mut buf =
            self.start(64 + functions * 48 + self.flat.len() * 28 + self.callgraph.len() * 24);

        if table {
            buf.put_u8(TAG_FUNCTIONS);
            buf.put_u32_le(self.functions.len() as u32);
            for (id, info) in self.functions.iter() {
                buf.put_u32_le(id.0);
                buf.put_u64_le(info.address);
                put_string(&mut buf, &info.name);
                match (&info.source_file, info.line) {
                    (Some(file), line) => {
                        buf.put_u8(1);
                        put_string(&mut buf, file);
                        buf.put_u32_le(line.unwrap_or(0));
                    }
                    (None, _) => buf.put_u8(0),
                }
            }
        }

        buf.put_u8(TAG_FLAT);
        buf.put_u32_le(self.flat.len() as u32);
        for (id, s) in self.flat.iter() {
            buf.put_u32_le(id.0);
            buf.put_u64_le(s.self_time);
            buf.put_u64_le(s.calls);
            buf.put_u64_le(s.child_time);
        }

        buf.put_u8(TAG_ARCS);
        buf.put_u32_le(self.callgraph.len() as u32);
        for ((from, to), s) in self.callgraph.iter() {
            buf.put_u32_le(from.0);
            buf.put_u32_le(to.0);
            buf.put_u64_le(s.count);
            buf.put_u64_le(s.child_time);
        }

        buf.put_u8(TAG_END);
        buf.freeze()
    }

    /// This snapshot as a delta record against `base`: the rows and arcs
    /// that are new or moved, each as its increase. `None` when this
    /// snapshot lacks a row or an arc of `base`, or lowers a counter.
    fn encode_delta(&self, base: &GmonData) -> Option<Bytes> {
        let rows = changed(base.flat.iter(), self.flat.iter(), |now, was| {
            Some([
                now.self_time.checked_sub(was.self_time)?,
                now.calls.checked_sub(was.calls)?,
                now.child_time.checked_sub(was.child_time)?,
            ])
        })?;
        let arcs = changed(base.callgraph.iter(), self.callgraph.iter(), |now, was| {
            Some([
                now.count.checked_sub(was.count)?,
                now.child_time.checked_sub(was.child_time)?,
            ])
        })?;
        let mut buf = self.start(40 + rows.len() * 16 + arcs.len() * 16);
        buf.put_u8(TAG_DELTA);
        put_varint(&mut buf, base.sample_index);
        put_varint(&mut buf, rows.len() as u64);
        for (id, increase) in rows {
            put_varint(&mut buf, u64::from(id.0));
            increase.iter().for_each(|&v| put_varint(&mut buf, v));
        }
        put_varint(&mut buf, arcs.len() as u64);
        for ((from, to), increase) in arcs {
            put_varint(&mut buf, u64::from(from.0));
            put_varint(&mut buf, u64::from(to.0));
            increase.iter().for_each(|&v| put_varint(&mut buf, v));
        }
        buf.put_u8(TAG_END);
        Some(buf.freeze())
    }

    /// Deserialize one self-contained payload: what a fresh
    /// [`Stream`] reads, so a payload without a function section gets an
    /// empty table and a delta record has no base.
    pub fn decode(data: &[u8]) -> Result<GmonData, ProfileError> {
        decode_after(data, None)
    }
}

/// One gmon stream: the newest snapshot that the next payload is written
/// or read against, and the one owner of what a payload may leave out.
///
/// The writer and the reader each hold a `Stream` and advance it past
/// every snapshot that both of them hold: a client after an ack, a
/// daemon after it accepts a push, a log after it writes or reads a
/// record. A writer that cannot know what its reader holds (after a
/// lost reply, say) starts a fresh stream, whose first payload is
/// self-contained.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    tail: Option<GmonData>,
}

impl Stream {
    /// An empty stream: its first payload is self-contained.
    pub fn new() -> Stream {
        Stream::default()
    }

    /// The snapshot the next payload is written or read against.
    pub fn tail(&self) -> Option<&GmonData> {
        self.tail.as_ref()
    }

    /// The encoder half: `g` as a delta record against the stream's
    /// newest snapshot when that snapshot has an equal table and `g`
    /// keeps every one of its rows and arcs without lowering a counter;
    /// otherwise (the first snapshot, a new table, a dropped row, a
    /// lowered counter) `g` self-contained, exactly
    /// [`GmonData::encode`].
    pub fn encode(&self, g: &GmonData) -> Bytes {
        self.tail
            .as_ref()
            .filter(|base| base.functions == g.functions)
            .and_then(|base| g.encode_delta(base))
            .unwrap_or_else(|| g.encode())
    }

    /// The decoder half: read one payload. A self-contained payload (a
    /// function section as its first record after the headers) is read
    /// alone. Any other payload takes the newest snapshot's table, shared,
    /// and its delta records take that snapshot's counters plus their
    /// increases; a delta whose base index is not the newest snapshot's
    /// is a [`ProfileError::WrongBase`]. Flat and arc records set rows
    /// outright, a delta record sets the counters to its base's plus its
    /// increases, and a later function section adds to the table.
    pub fn decode(&self, payload: &[u8]) -> Result<GmonData, ProfileError> {
        decode_after(payload, self.tail.as_ref())
    }

    /// Make `g` the stream's newest snapshot; returns the one it
    /// replaces.
    pub fn advance(&mut self, g: GmonData) -> Option<GmonData> {
        self.tail.replace(g)
    }
}

/// Read one payload against `stream`, the newest snapshot of the stream
/// it belongs to, by the rules of [`Stream::decode`]: what a reader that
/// keeps its newest snapshot elsewhere than in a [`Stream`] calls.
pub fn decode_after(mut data: &[u8], stream: Option<&GmonData>) -> Result<GmonData, ProfileError> {
    if data.remaining() < 4 {
        return Err(ProfileError::Truncated { context: "magic" });
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(ProfileError::BadMagic { found: magic });
    }
    if data.remaining() < 4 {
        return Err(ProfileError::Truncated { context: "version" });
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(ProfileError::UnsupportedVersion { found: version });
    }

    let mut out = GmonData::default();
    // Undecided until the first record that is not a header: a function
    // section there makes the payload self-contained, and it reads
    // nothing from the stream.
    let mut functions: Option<FunctionTable> = None;
    let mut base = stream;
    let table_of = |base: Option<&GmonData>| base.map(|b| b.functions.clone()).unwrap_or_default();
    loop {
        if data.remaining() < 1 {
            return Err(ProfileError::Truncated {
                context: "record tag",
            });
        }
        match data.get_u8() {
            TAG_END => break,
            TAG_HEADER => {
                if data.remaining() < 16 {
                    return Err(ProfileError::Truncated {
                        context: "header record",
                    });
                }
                out.sample_index = data.get_u64_le();
                out.timestamp_ns = data.get_u64_le();
            }
            TAG_FUNCTIONS => {
                if functions.is_none() {
                    base = None;
                }
                read_functions(&mut data, functions.get_or_insert_with(FunctionTable::new))?
            }
            TAG_FLAT => {
                let known = functions.get_or_insert_with(|| table_of(base)).len();
                let n = get_count(&mut data, 28, "flat count", "flat records")?;
                for _ in 0..n {
                    let id = FunctionId(data.get_u32_le());
                    let stats = FunctionStats {
                        self_time: data.get_u64_le(),
                        calls: data.get_u64_le(),
                        child_time: data.get_u64_le(),
                    };
                    if id.index() >= known {
                        return Err(ProfileError::UnknownFunction { id: id.0 });
                    }
                    out.flat.set(id, stats);
                }
            }
            TAG_ARCS => {
                let known = functions.get_or_insert_with(|| table_of(base)).len();
                let n = get_count(&mut data, 24, "arc count", "arc records")?;
                for _ in 0..n {
                    let from = FunctionId(data.get_u32_le());
                    let to = FunctionId(data.get_u32_le());
                    let stats = ArcStats {
                        count: data.get_u64_le(),
                        child_time: data.get_u64_le(),
                    };
                    if from.index() >= known || to.index() >= known {
                        return Err(ProfileError::UnknownFunction {
                            id: from.0.max(to.0),
                        });
                    }
                    out.callgraph.set(from, to, stats);
                }
            }
            TAG_DELTA => {
                let known = functions.get_or_insert_with(|| table_of(base)).len();
                let index = get_varint(&mut data, "delta base")?;
                let from = match base {
                    Some(b) if b.sample_index == index => b,
                    _ => {
                        return Err(ProfileError::WrongBase {
                            base: index,
                            tail: base.map(|b| b.sample_index),
                        })
                    }
                };
                read_delta(&mut data, known, from, &mut out)?;
            }
            tag => return Err(ProfileError::UnknownTag { tag }),
        }
    }
    // A self-contained payload whose table equals the stream's shares it.
    out.functions = match (functions, stream) {
        (Some(read), Some(s)) => read.shared_with(&s.functions),
        (read, _) => read.unwrap_or_else(|| table_of(base)),
    };
    Ok(out)
}

/// Set `out`'s counters to `base`'s plus one delta record's rows and
/// arcs (read after its base index), naming functions below `known`.
fn read_delta(
    data: &mut &[u8],
    known: usize,
    base: &GmonData,
    out: &mut GmonData,
) -> Result<(), ProfileError> {
    let rows = get_varint_count(data, "delta row count", "delta rows")?;
    out.flat = base.flat.clone();
    out.callgraph = base.callgraph.clone();
    for _ in 0..rows {
        let [id, self_time, calls, child_time] = get_varints(data, "delta row")?;
        let id = known_id(id, known)?;
        let s = out.flat.get(id);
        let stats = FunctionStats {
            self_time: add(s.self_time, self_time)?,
            calls: add(s.calls, calls)?,
            child_time: add(s.child_time, child_time)?,
        };
        out.flat.set(id, stats);
    }
    let arcs = get_varint_count(data, "delta arc count", "delta arcs")?;
    for _ in 0..arcs {
        let [from, to, count, child_time] = get_varints(data, "delta arc")?;
        // Both ids are known when the larger one is.
        known_id(from.max(to), known)?;
        let (from, to) = (FunctionId(from as u32), FunctionId(to as u32));
        let s = out.callgraph.get(from, to);
        let stats = ArcStats {
            count: add(s.count, count)?,
            child_time: add(s.child_time, child_time)?,
        };
        out.callgraph.set(from, to, stats);
    }
    Ok(())
}

/// A counter plus a delta's increase.
fn add(counter: u64, increase: u64) -> Result<u64, ProfileError> {
    counter.checked_add(increase).ok_or(ProfileError::Overflow {
        context: "delta counter",
    })
}

/// `raw` as the id of one of the `known` functions.
fn known_id(raw: u64, known: usize) -> Result<FunctionId, ProfileError> {
    match u32::try_from(raw) {
        Ok(id) if (id as usize) < known => Ok(FunctionId(id)),
        _ => Err(ProfileError::UnknownFunction {
            id: u32::try_from(raw).unwrap_or(u32::MAX),
        }),
    }
}

/// The keys of `now` that are new or changed since `was`, each with its
/// increase. `None` when `now` lacks a key of `was`, or `increase` finds
/// a lowered counter. Both iterators ascend by key.
fn changed<'a, K: Ord + Copy, V: PartialEq + Default + 'a, const N: usize>(
    was: impl Iterator<Item = (K, &'a V)>,
    now: impl Iterator<Item = (K, &'a V)>,
    increase: impl Fn(&V, &V) -> Option<[u64; N]>,
) -> Option<Vec<(K, [u64; N])>> {
    let (mut was, mut out) = (was.peekable(), Vec::new());
    let zero = V::default();
    for (key, v) in now {
        let before = match was.peek() {
            Some(&(k, _)) if k < key => return None,
            Some(&(k, w)) if k == key => {
                was.next();
                Some(w)
            }
            _ => None,
        };
        // A new row goes even when it is zero: its presence is data.
        match before {
            Some(w) if w == v => {}
            _ => out.push((key, increase(v, before.unwrap_or(&zero))?)),
        }
    }
    was.next().is_none().then_some(out)
}

/// The offset of a payload's first record after its magic, its version
/// and its header records, and the sample index its last header gives.
fn headers(payload: &[u8]) -> (usize, Option<u64>) {
    let (mut at, mut index) = (8, None);
    while payload.get(at) == Some(&TAG_HEADER) && payload.len() > at + 16 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&payload[at + 1..at + 9]);
        index = Some(u64::from_le_bytes(raw));
        at += 17;
    }
    (at, index)
}

/// Whether `payload` is self-contained under [`Stream::decode`]'s rule:
/// its first record after the magic, the version and any header records
/// is a function section. Reads no further than that record's tag.
pub fn carries_table(payload: &[u8]) -> bool {
    payload.get(headers(payload).0) == Some(&TAG_FUNCTIONS)
}

/// The sample index that `payload`'s header records give it, read
/// without a stream: what tells a retransmitted snapshot from a new one
/// before a delta is read against its base.
pub fn sample_index(payload: &[u8]) -> Option<u64> {
    headers(payload).1
}

/// Read a u32 record count, rejecting one whose records, `size` bytes
/// each, cannot fit in the bytes left, before anything is read for them.
fn get_count(
    data: &mut &[u8],
    size: usize,
    context: &'static str,
    records: &'static str,
) -> Result<u32, ProfileError> {
    if data.remaining() < 4 {
        return Err(ProfileError::Truncated { context });
    }
    let n = data.get_u32_le();
    if n as usize > data.remaining() / size {
        return Err(ProfileError::Truncated { context: records });
    }
    Ok(n)
}

/// [`get_count`] for a delta record's varint counts: every row or arc
/// takes at least four bytes, one per varint.
fn get_varint_count(
    data: &mut &[u8],
    context: &'static str,
    records: &'static str,
) -> Result<u64, ProfileError> {
    let n = get_varint(data, context)?;
    if n > (data.remaining() / 4) as u64 {
        return Err(ProfileError::Truncated { context: records });
    }
    Ok(n)
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        buf.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    buf.put_u8(v as u8);
}

/// One LEB128 varint of at most ten bytes whose value fits in a u64.
fn get_varint(data: &mut &[u8], context: &'static str) -> Result<u64, ProfileError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        if data.remaining() < 1 {
            return Err(ProfileError::Truncated { context });
        }
        let byte = data.get_u8();
        let bits = u64::from(byte & 0x7F);
        if shift == 63 && bits > 1 {
            return Err(ProfileError::Overflow { context });
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(ProfileError::Overflow { context })
}

/// `N` varints in a row.
fn get_varints<const N: usize>(
    data: &mut &[u8],
    context: &'static str,
) -> Result<[u64; N], ProfileError> {
    let mut out = [0; N];
    for v in &mut out {
        *v = get_varint(data, context)?;
    }
    Ok(out)
}

/// Parse one function section (count, then the records) into `table`.
fn read_functions(data: &mut &[u8], table: &mut FunctionTable) -> Result<(), ProfileError> {
    // A record is at least an id, an address, a name length and a flag.
    let n = get_count(data, 17, "function count", "function records")?;
    for _ in 0..n {
        if data.remaining() < 12 {
            return Err(ProfileError::Truncated {
                context: "function record",
            });
        }
        let _id = data.get_u32_le(); // ids are dense & in order
        let address = data.get_u64_le();
        let name = get_string(data, "function name")?;
        if data.remaining() < 1 {
            return Err(ProfileError::Truncated {
                context: "location flag",
            });
        }
        let mut info = FunctionInfo::named(name);
        info.address = address;
        if data.get_u8() == 1 {
            let file = get_string(data, "source file")?;
            if data.remaining() < 4 {
                return Err(ProfileError::Truncated {
                    context: "line number",
                });
            }
            let line = data.get_u32_le();
            info.source_file = Some(file);
            info.line = if line > 0 { Some(line) } else { None };
        }
        table.register_info(info);
    }
    Ok(())
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(data: &mut &[u8], context: &'static str) -> Result<String, ProfileError> {
    if data.remaining() < 4 {
        return Err(ProfileError::Truncated { context });
    }
    let len = data.get_u32_le() as usize;
    if data.remaining() < len {
        return Err(ProfileError::Truncated { context });
    }
    let bytes = data[..len].to_vec();
    data.advance(len);
    String::from_utf8(bytes).map_err(|_| ProfileError::InvalidUtf8 { context })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_gmon() -> GmonData {
        let mut g = GmonData {
            sample_index: 7,
            timestamp_ns: 123_456_789,
            ..Default::default()
        };
        let a = g
            .functions
            .register_info(FunctionInfo::with_location("cg_solve", "cg.cpp", 42));
        let b = g.functions.register("impose_dirichlet");
        g.flat.set(
            a,
            FunctionStats {
                self_time: 1000,
                calls: 3,
                child_time: 200,
            },
        );
        g.flat.set(
            b,
            FunctionStats {
                self_time: 50,
                calls: 100,
                child_time: 0,
            },
        );
        g.callgraph.set(
            a,
            b,
            ArcStats {
                count: 100,
                child_time: 50,
            },
        );
        g
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = sample_gmon();
        let bytes = g.encode();
        let back = GmonData::decode(&bytes).unwrap();
        assert_eq!(back.sample_index, 7);
        assert_eq!(back.timestamp_ns, 123_456_789);
        assert_eq!(back.functions.len(), 2);
        let a = back.functions.id_of("cg_solve").unwrap();
        assert_eq!(
            back.functions.info(a).unwrap().source_file.as_deref(),
            Some("cg.cpp")
        );
        assert_eq!(back.functions.info(a).unwrap().line, Some(42));
        assert_eq!(back.flat.get(a).self_time, 1000);
        let b = back.functions.id_of("impose_dirichlet").unwrap();
        assert_eq!(back.callgraph.get(a, b).count, 100);
    }

    #[test]
    fn stream_starts_with_gprof_magic() {
        let bytes = sample_gmon().encode();
        assert_eq!(&bytes[..4], b"gmon");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_gmon().encode().to_vec();
        bytes[0] = b'x';
        assert!(matches!(
            GmonData::decode(&bytes),
            Err(ProfileError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample_gmon().encode().to_vec();
        bytes[4] = 9; // version LE low byte
        assert!(matches!(
            GmonData::decode(&bytes),
            Err(ProfileError::UnsupportedVersion { found: 9 })
        ));
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let bytes = sample_gmon().encode();
        // Chop the stream at every prefix length; must never panic, and
        // must error for every length except the full stream.
        for len in 0..bytes.len() {
            let res = GmonData::decode(&bytes[..len]);
            assert!(res.is_err(), "prefix of {len} bytes should fail to decode");
        }
        assert!(GmonData::decode(&bytes).is_ok());
    }

    #[test]
    fn unknown_tag_is_reported() {
        let g = GmonData::default();
        let mut bytes = g.encode().to_vec();
        // Replace the end tag with garbage and append padding.
        let pos = bytes.len() - 1;
        bytes[pos] = 0x77;
        bytes.push(TAG_END);
        assert!(matches!(
            GmonData::decode(&bytes),
            Err(ProfileError::UnknownTag { tag: 0x77 })
        ));
    }

    #[test]
    fn flat_record_with_unregistered_function_is_rejected() {
        let mut g = GmonData::default();
        g.flat.set(
            FunctionId(5),
            FunctionStats {
                self_time: 1,
                calls: 1,
                child_time: 0,
            },
        );
        let bytes = g.encode();
        assert!(matches!(
            GmonData::decode(&bytes),
            Err(ProfileError::UnknownFunction { id: 5 })
        ));
    }

    /// A stream whose newest snapshot is `g`.
    fn stream_at(g: &GmonData) -> Stream {
        let mut stream = Stream::new();
        stream.advance(g.clone());
        stream
    }

    #[test]
    fn counters_decode_against_the_stream_table() {
        let g = sample_gmon();
        let counters = g.encode_counters();
        assert!(counters.len() < g.encode().len());
        assert!(carries_table(&g.encode()) && !carries_table(&counters));
        let table_only = GmonData {
            functions: g.functions.clone(),
            ..Default::default()
        };
        let back = stream_at(&table_only).decode(&counters).unwrap();
        assert_eq!(back, g);
        assert!(back.functions.shares_contents_with(&g.functions));
        // Without the table, the counters name functions nobody knows.
        assert!(matches!(
            GmonData::decode(&counters),
            Err(ProfileError::UnknownFunction { id: 0 })
        ));
        // A payload with its own section ignores the stream's table...
        let other = stream_at(&GmonData::default());
        assert_eq!(other.decode(&g.encode()).unwrap(), g);
        // ...but shares it when the two are equal.
        let whole = stream_at(&table_only).decode(&g.encode()).unwrap();
        assert!(whole.functions.shares_contents_with(&g.functions));
    }

    #[test]
    fn a_stream_sends_what_moved_since_its_newest_snapshot() {
        let g = sample_gmon();
        assert_eq!(Stream::new().encode(&g), g.encode(), "the first is whole");
        let mut next = g.clone();
        next.sample_index = 8;
        next.flat.record_calls(FunctionId(1), 5);
        let stream = stream_at(&g);
        let delta = stream.encode(&next);
        // Headers (25), tag, base, one row of four varints, no arcs, end.
        assert_eq!(delta.len(), 25 + 1 + 1 + 1 + 4 + 1 + 1);
        assert!(!carries_table(&delta));
        assert_eq!(sample_index(&delta), Some(8));
        assert_eq!(stream.decode(&delta).unwrap(), next);
        // Read against anything but its base, the delta is refused.
        assert!(matches!(
            stream_at(&next).decode(&delta),
            Err(ProfileError::WrongBase {
                base: 7,
                tail: Some(8)
            })
        ));
        assert!(matches!(
            GmonData::decode(&delta),
            Err(ProfileError::WrongBase {
                base: 7,
                tail: None
            })
        ));
    }

    #[test]
    fn a_lowered_counter_a_dropped_row_or_a_new_table_goes_whole() {
        let g = sample_gmon();
        let stream = stream_at(&g);
        let (a, b) = (FunctionId(0), FunctionId(1));
        let mut lowered = g.clone();
        lowered.flat.set(a, FunctionStats::default());
        let mut dropped = GmonData {
            flat: FlatProfile::new(),
            ..g.clone()
        };
        dropped.flat.set(b, g.flat.get(b));
        let mut arc_lost = g.clone();
        arc_lost.callgraph = CallGraphProfile::new();
        let mut grown = g.clone();
        grown.functions.register("late");
        for other in [lowered, dropped, arc_lost, grown] {
            assert_eq!(stream.encode(&other), other.encode());
            assert_eq!(stream.decode(&stream.encode(&other)).unwrap(), other);
        }
        // A new row goes even at zero: its presence is part of the data.
        let mut zero_row = g.clone();
        let c = zero_row.functions.register("idle");
        zero_row.flat.set(c, FunctionStats::default());
        let stream = stream_at(&GmonData {
            functions: zero_row.functions.clone(),
            ..g.clone()
        });
        let delta = stream.encode(&zero_row);
        assert!(!carries_table(&delta));
        assert_eq!(stream.decode(&delta).unwrap(), zero_row);
    }

    #[test]
    fn varints_hold_every_u64_and_refuse_more() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let bytes = buf.freeze();
            let mut rest: &[u8] = &bytes;
            assert_eq!(get_varint(&mut rest, "v").unwrap(), v);
            assert!(rest.is_empty());
        }
        // 2^64 in ten bytes, and any eleventh byte.
        let over: Vec<u8> = [0x80; 9].into_iter().chain([0x02]).collect();
        let long: Vec<u8> = [0xFF; 10].into_iter().chain([0x01]).collect();
        for bytes in [over, long] {
            assert!(matches!(
                get_varint(&mut &bytes[..], "v"),
                Err(ProfileError::Overflow { context: "v" })
            ));
        }
        // A delta that carries a counter past u64::MAX.
        let g = sample_gmon();
        let mut next = g.clone();
        let a = FunctionId(0);
        next.flat.set(
            a,
            FunctionStats {
                self_time: u64::MAX,
                ..g.flat.get(a)
            },
        );
        let delta = stream_at(&g).encode(&next);
        let mut high = g.clone();
        high.flat.set(a, next.flat.get(a));
        assert!(matches!(
            stream_at(&high).decode(&delta),
            Err(ProfileError::Overflow { .. })
        ));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let g = GmonData::default();
        let back = GmonData::decode(&g.encode()).unwrap();
        assert_eq!(back, g);
    }
}

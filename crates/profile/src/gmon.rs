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
//! | 0x02 | function table (absent in a counters-only payload): count, then per function id/address/name/file?/line? |
//! | 0x03 | flat records: count, then per function id/self_ns/calls/child_ns |
//! | 0x04 | arc records: count, then per arc from/to/count/child_ns |
//! | 0xFF | end of stream |
//!
//! All integers are little-endian. Strings are u32 length + UTF-8 bytes.
//!
//! **Streams.** A payload is either self-contained, written by
//! [`GmonData::encode`], or the counters of one snapshot in a stream,
//! written by [`GmonData::encode_counters`] without the function section.
//! Like a real gmon dump, which holds counters while gprof resolves names
//! once from the binary, a stream sends its function table only when it
//! changes. One rule reads both kinds, [`GmonData::decode_in`]: a payload
//! without a function section means the stream's current table, and a
//! payload with one replaces that table. [`GmonData::decode`] is the same
//! rule with an empty current table. The daemon's wire and its snapshot
//! log are such streams.

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
const TAG_END: u8 = 0xFF;

/// One decoded (or to-be-encoded) gmon snapshot: the cumulative profile
/// state of a process at a single collection instant.
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

impl GmonData {
    /// Serialize to one self-contained payload, function table
    /// included.
    pub fn encode(&self) -> Bytes {
        self.encode_with(true)
    }

    /// The same payload without its function section: the counters of
    /// one stream snapshot, to be read with [`GmonData::decode_in`]
    /// against the table the stream already carries.
    pub fn encode_counters(&self) -> Bytes {
        self.encode_with(false)
    }

    fn encode_with(&self, table: bool) -> Bytes {
        let functions = if table { self.functions.len() } else { 0 };
        let mut buf = BytesMut::with_capacity(
            64 + functions * 48 + self.flat.len() * 28 + self.callgraph.len() * 24,
        );
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);

        buf.put_u8(TAG_HEADER);
        buf.put_u64_le(self.sample_index);
        buf.put_u64_le(self.timestamp_ns);

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

    /// Deserialize one self-contained payload: a payload without a
    /// function section gets an empty table.
    pub fn decode(data: &[u8]) -> Result<GmonData, ProfileError> {
        GmonData::decode_in(data, &FunctionTable::new())
    }

    /// Deserialize one payload of a stream whose current function table
    /// is `table`. A payload whose first record after its headers is a
    /// function section builds its table from that section alone; any
    /// other payload gets `table` (shared, not copied), and its flat and
    /// arc records must name functions of it. A later function section in
    /// the same payload adds to the table built so far. The result equals
    /// [`GmonData::decode`] of the payload with `table`'s section spliced
    /// in after its headers, errors included.
    pub fn decode_in(mut data: &[u8], table: &FunctionTable) -> Result<GmonData, ProfileError> {
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
        // Undecided until the first record that is not a header.
        let mut functions: Option<FunctionTable> = None;
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
                    read_functions(&mut data, functions.get_or_insert_with(FunctionTable::new))?
                }
                TAG_FLAT => {
                    let known = functions.get_or_insert_with(|| table.clone()).len();
                    if data.remaining() < 4 {
                        return Err(ProfileError::Truncated {
                            context: "flat count",
                        });
                    }
                    let n = data.get_u32_le();
                    for _ in 0..n {
                        if data.remaining() < 28 {
                            return Err(ProfileError::Truncated {
                                context: "flat record",
                            });
                        }
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
                    let known = functions.get_or_insert_with(|| table.clone()).len();
                    if data.remaining() < 4 {
                        return Err(ProfileError::Truncated {
                            context: "arc count",
                        });
                    }
                    let n = data.get_u32_le();
                    for _ in 0..n {
                        if data.remaining() < 24 {
                            return Err(ProfileError::Truncated {
                                context: "arc record",
                            });
                        }
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
                tag => return Err(ProfileError::UnknownTag { tag }),
            }
        }
        out.functions = functions.unwrap_or_else(|| table.clone());
        Ok(out)
    }
}

/// Whether `payload` carries its own function table under
/// [`GmonData::decode_in`]'s rule: its first record after the magic,
/// the version and any header records is a function section. Reads no
/// further than that record's tag.
pub fn carries_table(payload: &[u8]) -> bool {
    let mut at = 8;
    while payload.get(at) == Some(&TAG_HEADER) && payload.len() > at + 16 {
        at += 17;
    }
    payload.get(at) == Some(&TAG_FUNCTIONS)
}

/// Parse one function section (count, then the records) into `table`.
fn read_functions(data: &mut &[u8], table: &mut FunctionTable) -> Result<(), ProfileError> {
    if data.remaining() < 4 {
        return Err(ProfileError::Truncated {
            context: "function count",
        });
    }
    let n = data.get_u32_le();
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

    #[test]
    fn counters_decode_against_the_stream_table() {
        let g = sample_gmon();
        let counters = g.encode_counters();
        assert!(counters.len() < g.encode().len());
        assert!(carries_table(&g.encode()) && !carries_table(&counters));
        let back = GmonData::decode_in(&counters, &g.functions).unwrap();
        assert_eq!(back, g);
        assert!(back.functions.shares_contents_with(&g.functions));
        // Without the table, the counters name functions nobody knows.
        assert!(matches!(
            GmonData::decode(&counters),
            Err(ProfileError::UnknownFunction { id: 0 })
        ));
        // A payload with its own section ignores the stream's table.
        let other = GmonData::default().functions;
        assert_eq!(GmonData::decode_in(&g.encode(), &other).unwrap(), g);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let g = GmonData::default();
        let back = GmonData::decode(&g.encode()).unwrap();
        assert_eq!(back, g);
    }
}

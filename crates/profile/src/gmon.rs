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
//! | 0x02 | function table: count, then per function id/address/name/file?/line? |
//! | 0x03 | flat records: count, then per function id/self_ns/calls/child_ns |
//! | 0x04 | arc records: count, then per arc from/to/count/child_ns |
//! | 0xFF | end of stream |
//!
//! All integers are little-endian. Strings are u32 length + UTF-8 bytes.

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
    /// Serialize to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(
            64 + self.functions.len() * 48 + self.flat.len() * 28 + self.callgraph.len() * 24,
        );
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);

        buf.put_u8(TAG_HEADER);
        buf.put_u64_le(self.sample_index);
        buf.put_u64_le(self.timestamp_ns);

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

    /// Deserialize from bytes. Each call parses the function table anew;
    /// a reader of a stream of payloads holds a [`GmonDecoder`] instead.
    pub fn decode(data: &[u8]) -> Result<GmonData, ProfileError> {
        GmonDecoder::new().decode(data)
    }
}

/// A decoder for one stream of gmon payloads.
///
/// Every payload of a stream carries the function table again, and the
/// table changes only when the profiled program registers a function.
/// The decoder remembers the bytes of the last function section it
/// decoded into an empty table, and the table they gave. A payload whose
/// section starts with exactly those bytes gets that table back as a
/// shared clone instead of a fresh parse; any other payload, a second
/// function section in one payload included, parses as
/// [`GmonData::decode`] would. The output is equal to
/// [`GmonData::decode`]'s for every input, errors included.
#[derive(Debug, Default)]
pub struct GmonDecoder {
    /// The last function section parsed into an empty table, exactly
    /// as many bytes as that parse consumed, and the table it gave.
    section: Option<(Vec<u8>, FunctionTable)>,
}

impl GmonDecoder {
    /// A decoder that remembers nothing yet.
    pub fn new() -> GmonDecoder {
        GmonDecoder::default()
    }

    /// Deserialize one payload of the stream.
    pub fn decode(&mut self, mut data: &[u8]) -> Result<GmonData, ProfileError> {
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
                    // Only a section parsed into an empty table gives a
                    // table that depends on its bytes alone.
                    let into_empty = out.functions.is_empty();
                    match &self.section {
                        Some((bytes, table)) if into_empty && data.starts_with(bytes) => {
                            out.functions = table.clone();
                            data.advance(bytes.len());
                        }
                        _ => {
                            let start = data;
                            read_functions(&mut data, &mut out.functions)?;
                            if into_empty {
                                let consumed = &start[..start.len() - data.len()];
                                self.section = Some((consumed.to_vec(), out.functions.clone()));
                            }
                        }
                    }
                }
                TAG_FLAT => {
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
                        if id.index() >= out.functions.len() {
                            return Err(ProfileError::UnknownFunction { id: id.0 });
                        }
                        out.flat.set(id, stats);
                    }
                }
                TAG_ARCS => {
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
                        if from.index() >= out.functions.len() || to.index() >= out.functions.len()
                        {
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
        Ok(out)
    }
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
        let mut back = GmonData::decode(&bytes).unwrap();
        back.functions.rebuild_index();
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
    fn empty_snapshot_roundtrips() {
        let g = GmonData::default();
        let back = GmonData::decode(&g.encode()).unwrap();
        assert_eq!(back, g);
    }
}

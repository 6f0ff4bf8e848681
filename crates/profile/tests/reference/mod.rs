//! A second reader of the gmon payload grammar, written apart from the
//! codec, which the decoder tests hold `Stream::decode` to.

use incprof_profile::{ArcStats, FunctionId, FunctionInfo, FunctionStats, FunctionTable, GmonData};

/// One record of the payload grammar, as [`reference`] parses it.
enum Record {
    Header(u64, u64),
    Functions(Vec<FunctionInfo>),
    Flat(Vec<(u32, [u64; 3])>),
    Arcs(Vec<(u32, u32, [u64; 2])>),
    Delta(u64, Vec<[u64; 4]>, Vec<[u64; 4]>),
}

/// Bytes still to read, for [`reference`].
struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let (head, rest) = (self.0.get(..n)?, self.0.get(n..)?);
        self.0 = rest;
        Some(head)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
    /// LEB128, at most ten bytes, the value within 64 bits.
    fn varint(&mut self) -> Option<u64> {
        let mut value: u128 = 0;
        for i in 0..10 {
            let byte = self.u8()?;
            value |= u128::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                return u64::try_from(value).ok();
            }
        }
        None
    }
    fn varints<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut out = [0; N];
        for v in &mut out {
            *v = self.varint()?;
        }
        Some(out)
    }
}

/// A second reader of the payload grammar, written apart from the codec:
/// parse every record up to the end tag, then apply them in order to a
/// stream whose newest snapshot is `tail`. `None` for any payload the
/// grammar refuses.
pub fn reference(payload: &[u8], tail: Option<&GmonData>) -> Option<GmonData> {
    let mut c = Cursor(payload);
    if c.take(4)? != b"gmon" || c.u32()? != 1 {
        return None;
    }
    let mut records = Vec::new();
    loop {
        let record = match c.u8()? {
            0xFF => break,
            0x01 => Record::Header(c.u64()?, c.u64()?),
            0x02 => {
                let mut infos = Vec::new();
                for _ in 0..c.u32()? {
                    c.u32()?;
                    let address = c.u64()?;
                    let mut info = FunctionInfo::named(c.string()?);
                    info.address = address;
                    if c.u8()? == 1 {
                        info.source_file = Some(c.string()?);
                        info.line = Some(c.u32()?).filter(|&l| l > 0);
                    }
                    infos.push(info);
                }
                Record::Functions(infos)
            }
            0x03 => Record::Flat(
                (0..c.u32()?)
                    .map(|_| Some((c.u32()?, [c.u64()?, c.u64()?, c.u64()?])))
                    .collect::<Option<_>>()?,
            ),
            0x04 => Record::Arcs(
                (0..c.u32()?)
                    .map(|_| Some((c.u32()?, c.u32()?, [c.u64()?, c.u64()?])))
                    .collect::<Option<_>>()?,
            ),
            0x05 => {
                let base = c.varint()?;
                let rows = (0..c.varint()?)
                    .map(|_| c.varints())
                    .collect::<Option<_>>()?;
                let arcs = (0..c.varint()?)
                    .map(|_| c.varints())
                    .collect::<Option<_>>()?;
                Record::Delta(base, rows, arcs)
            }
            _ => return None,
        };
        records.push(record);
    }
    // The first record after the headers decides: a function section
    // reads nothing from the stream.
    let first = records.iter().find(|r| !matches!(r, Record::Header(..)));
    let tail = match first {
        Some(Record::Functions(_)) => None,
        _ => tail,
    };
    let mut out = GmonData {
        functions: tail.map(|t| t.functions.clone()).unwrap_or_default(),
        ..Default::default()
    };
    let mut own_table = false;
    for record in records {
        let known = |out: &GmonData, id: u64| id < out.functions.len() as u64;
        match record {
            Record::Header(index, ts) => (out.sample_index, out.timestamp_ns) = (index, ts),
            Record::Functions(infos) => {
                if !own_table {
                    out.functions = FunctionTable::new();
                    own_table = true;
                }
                for info in infos {
                    out.functions.register_info(info);
                }
            }
            Record::Flat(rows) => {
                for (id, [self_time, calls, child_time]) in rows {
                    if !known(&out, id.into()) {
                        return None;
                    }
                    let stats = FunctionStats {
                        self_time,
                        calls,
                        child_time,
                    };
                    out.flat.set(FunctionId(id), stats);
                }
            }
            Record::Arcs(arcs) => {
                for (from, to, [count, child_time]) in arcs {
                    if !known(&out, from.into()) || !known(&out, to.into()) {
                        return None;
                    }
                    let stats = ArcStats { count, child_time };
                    out.callgraph.set(FunctionId(from), FunctionId(to), stats);
                }
            }
            Record::Delta(base, rows, arcs) => {
                let tail = tail.filter(|t| t.sample_index == base)?;
                out.flat = tail.flat.clone();
                out.callgraph = tail.callgraph.clone();
                for [id, a, b, c] in rows {
                    if !known(&out, id) {
                        return None;
                    }
                    let id = FunctionId(id as u32);
                    let s = out.flat.get(id);
                    let stats = FunctionStats {
                        self_time: s.self_time.checked_add(a)?,
                        calls: s.calls.checked_add(b)?,
                        child_time: s.child_time.checked_add(c)?,
                    };
                    out.flat.set(id, stats);
                }
                for [from, to, a, b] in arcs {
                    if !known(&out, from) || !known(&out, to) {
                        return None;
                    }
                    let (from, to) = (FunctionId(from as u32), FunctionId(to as u32));
                    let s = out.callgraph.get(from, to);
                    let stats = ArcStats {
                        count: s.count.checked_add(a)?,
                        child_time: s.child_time.checked_add(b)?,
                    };
                    out.callgraph.set(from, to, stats);
                }
            }
        }
    }
    Some(out)
}

//! The journal's bytes: the CRC frame around every record and the
//! little-endian body of each [`JournalRecord`] type. Everything that
//! knows the on-disk layout is in this file; the writer appends the
//! frames it builds and the reader hands it the payloads it finds.

use super::{JobRow, JournalRecord, StuckEdge};
use crate::stats::{EdgeStatsSummary, HopKind, LineageHop, LineageSample, StatsSnapshot, TopKey};

// CRC32 (IEEE) — dependency-free, table generated at compile time.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

pub(super) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = (c >> 8) ^ CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// One record as it sits in a segment:
/// `[len: u32 LE][crc32(payload): u32 LE][payload]`.
pub(super) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 8);
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(payload));
    frame.extend_from_slice(payload);
    frame
}

struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.off + n > self.buf.len() {
            return Err("record body truncated".into());
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn at_end(&self) -> bool {
        self.off == self.buf.len()
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_BYTES as usize {
            return Err("string length out of range".into());
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| "invalid utf-8".into())
    }
}

const TAG_JOB_START: u8 = 1;
pub(super) const TAG_JOB_END: u8 = 2;
const TAG_INCIDENT: u8 = 6;
// 3 was the trace-event record, 4 the registry epoch, 5 the audit
// ledger as JSON and 7 the alert transition. `HAMR_JOURNAL=<dir>`
// reopens old directories, so none is ever reused: such a frame reads
// back as one of `JournalRead::unknown_records`.
pub(super) const TAG_STATS: u8 = 8;

/// Frames claiming to be larger than this are corruption, not data.
pub(super) const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;

pub(super) fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn take_bytes(cur: &mut Cursor) -> Result<Vec<u8>, String> {
    let n = cur.u32()? as usize;
    if n > 4096 {
        return Err("byte-string length out of range".into());
    }
    Ok(cur.take(n)?.to_vec())
}

fn encode_stats(buf: &mut Vec<u8>, snap: &StatsSnapshot) {
    put_str(buf, &snap.job);
    put_str(buf, &snap.engine);
    put_u32(buf, snap.edges.len() as u32);
    for e in &snap.edges {
        put_u32(buf, e.edge);
        buf.push(1); // every row is a shuffle edge's; see decode_stats
        put_u64(buf, e.records);
        put_u64(buf, e.bytes);
        put_u64(buf, e.distinct);
        put_u64(buf, e.hot_share.to_bits());
        put_u64(buf, e.p50);
        put_u64(buf, e.p90);
        put_u64(buf, e.p99);
        put_u32(buf, e.top.len() as u32);
        for t in &e.top {
            put_u64(buf, t.hash);
            put_u64(buf, t.count);
            put_u64(buf, t.err);
            put_bytes(buf, &t.key);
        }
    }
    put_u32(buf, snap.samples.len() as u32);
    for s in &snap.samples {
        put_u64(buf, s.hash);
        put_bytes(buf, &s.key);
        put_u32(buf, s.hops.len() as u32);
        for h in &s.hops {
            buf.push(h.kind.as_u8());
            put_u32(buf, h.flowlet);
            put_str(buf, &h.flowlet_name);
            put_u32(buf, h.edge);
            put_u32(buf, h.src);
            put_u32(buf, h.dst);
            put_u32(buf, h.records);
        }
    }
}

fn decode_stats(cur: &mut Cursor) -> Result<StatsSnapshot, String> {
    let job = cur.str()?;
    let engine = cur.str()?;
    let ne = cur.u32()? as usize;
    if ne > 65_536 {
        return Err("stats edge count out of range".into());
    }
    let mut edges = Vec::with_capacity(ne);
    for _ in 0..ne {
        let edge = cur.u32()?;
        let flag = cur.u8()?;
        let records = cur.u64()?;
        let bytes = cur.u64()?;
        let distinct = cur.u64()?;
        let hot_share = f64::from_bits(cur.u64()?);
        let p50 = cur.u64()?;
        let p90 = cur.u64()?;
        let p99 = cur.u64()?;
        let nt = cur.u32()? as usize;
        if nt > 1024 {
            return Err("stats top-key count out of range".into());
        }
        let mut top = Vec::with_capacity(nt);
        for _ in 0..nt {
            top.push(TopKey {
                hash: cur.u64()?,
                count: cur.u64()?,
                err: cur.u64()?,
                key: take_bytes(cur)?,
            });
        }
        if flag == 0 {
            // A local-edge row: older journals flag their loader edges 0.
            continue;
        }
        edges.push(EdgeStatsSummary {
            edge,
            records,
            bytes,
            distinct,
            hot_share,
            top,
            p50,
            p90,
            p99,
        });
    }
    let ns = cur.u32()? as usize;
    if ns > 65_536 {
        return Err("stats sample count out of range".into());
    }
    let mut samples = Vec::with_capacity(ns);
    for _ in 0..ns {
        let hash = cur.u64()?;
        let key = take_bytes(cur)?;
        let nh = cur.u32()? as usize;
        if nh > 4096 {
            return Err("stats hop count out of range".into());
        }
        let mut hops = Vec::with_capacity(nh);
        for _ in 0..nh {
            // A hop has one shape whatever its kind, so a kind this
            // reader does not know (another version wrote the journal)
            // costs that hop, not the record — as an unknown tag costs
            // its frame, not the segment.
            let kind = HopKind::from_u8(cur.u8()?);
            let (flowlet, flowlet_name) = (cur.u32()?, cur.str()?);
            let (edge, src, dst, records) = (cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?);
            if let Some(kind) = kind {
                hops.push(LineageHop {
                    kind,
                    flowlet,
                    flowlet_name,
                    edge,
                    src,
                    dst,
                    records,
                });
            }
        }
        samples.push(LineageSample { hash, key, hops });
    }
    Ok(StatsSnapshot {
        job,
        engine,
        edges,
        samples,
    })
}

/// The `cache_hits` and `stall_us` slots' `None`: the layout that
/// introduced them gave them no flag byte.
const ABSENT: u64 = u64::MAX;

fn put_opt(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
        None => buf.push(0),
    }
}

fn take_opt(cur: &mut Cursor) -> Result<Option<u64>, String> {
    Ok(match cur.u8()? {
        0 => None,
        _ => Some(cur.u64()?),
    })
}

/// A `JobEnd` body grew in three layouts, each a prefix of the next:
/// five fields (job, ok, t_us, elapsed, shuffled bytes); then cache
/// hits, stall, p99 and the stuck edges; then shuffle records and
/// distinct keys. A body that ends early leaves the later columns
/// `None`.
fn encode_job_end(buf: &mut Vec<u8>, t_us: u64, row: &JobRow) {
    put_str(buf, &row.job);
    buf.push(u8::from(row.ok));
    put_u64(buf, t_us);
    put_u64(buf, row.elapsed_us);
    put_u64(buf, row.shuffled_bytes);
    put_u64(buf, row.cache_hits.unwrap_or(ABSENT));
    put_u64(buf, row.stall_us.unwrap_or(ABSENT));
    put_opt(buf, row.task_p99_us);
    put_u32(buf, row.stuck.len() as u32);
    for s in &row.stuck {
        put_u32(buf, s.edge);
        put_u32(buf, s.dst);
        put_u64(buf, s.bins);
    }
    put_opt(buf, row.shuffle_records);
    put_opt(buf, row.distinct_keys);
}

fn decode_job_end(cur: &mut Cursor) -> Result<JournalRecord, String> {
    let job = cur.str()?;
    let ok = cur.u8()? != 0;
    let t_us = cur.u64()?;
    let mut row = JobRow {
        job,
        ok,
        elapsed_us: cur.u64()?,
        shuffled_bytes: cur.u64()?,
        ..JobRow::default()
    };
    if !cur.at_end() {
        let present = |v: u64| (v != ABSENT).then_some(v);
        row.cache_hits = present(cur.u64()?);
        row.stall_us = present(cur.u64()?);
        row.task_p99_us = take_opt(cur)?;
        let n = cur.u32()? as usize;
        if n > 65_536 {
            return Err("stuck-edge count out of range".into());
        }
        for _ in 0..n {
            row.stuck.push(StuckEdge {
                edge: cur.u32()?,
                dst: cur.u32()?,
                bins: cur.u64()?,
            });
        }
    }
    if !cur.at_end() {
        row.shuffle_records = take_opt(cur)?;
        row.distinct_keys = take_opt(cur)?;
    }
    Ok(JournalRecord::JobEnd { t_us, row })
}

impl JournalRecord {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            JournalRecord::JobStart { job, engine, t_us } => {
                buf.push(TAG_JOB_START);
                put_str(&mut buf, job);
                put_str(&mut buf, engine);
                put_u64(&mut buf, *t_us);
            }
            JournalRecord::JobEnd { t_us, row } => {
                buf.push(TAG_JOB_END);
                encode_job_end(&mut buf, *t_us, row);
            }
            JournalRecord::Incident {
                job,
                class,
                epoch,
                detail,
            } => {
                buf.push(TAG_INCIDENT);
                put_str(&mut buf, job);
                put_str(&mut buf, class);
                put_u64(&mut buf, *epoch);
                put_str(&mut buf, detail);
            }
            JournalRecord::Stats(snap) => {
                buf.push(TAG_STATS);
                encode_stats(&mut buf, snap);
            }
        }
        buf
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<JournalRecord, String> {
        let mut cur = Cursor::new(payload);
        let rec = match cur.u8()? {
            TAG_JOB_START => JournalRecord::JobStart {
                job: cur.str()?,
                engine: cur.str()?,
                t_us: cur.u64()?,
            },
            TAG_JOB_END => decode_job_end(&mut cur)?,
            TAG_INCIDENT => JournalRecord::Incident {
                job: cur.str()?,
                class: cur.str()?,
                epoch: cur.u64()?,
                detail: cur.str()?,
            },
            TAG_STATS => JournalRecord::Stats(decode_stats(&mut cur)?),
            other => return Err(format!("unknown record tag {other}")),
        };
        Ok(rec)
    }
}

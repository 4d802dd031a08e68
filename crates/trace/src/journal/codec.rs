//! The journal's bytes: the CRC frame around every record and the
//! little-endian body of each [`JournalRecord`] type. Everything that
//! knows the on-disk layout is in this file; the writer appends the
//! frames it builds and the reader hands it the payloads it finds.

use super::JournalRecord;
use crate::registry::{HistSample, Labels, SampleValue, SeriesSample, Snapshot};
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

fn put_i64(buf: &mut Vec<u8>, v: i64) {
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

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
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
const TAG_JOB_END: u8 = 2;
const TAG_EPOCH: u8 = 4;
const TAG_AUDIT: u8 = 5;
const TAG_INCIDENT: u8 = 6;
// 3 was the trace-event record and 7 the alert transition.
// `HAMR_JOURNAL=<dir>` reopens old directories, so neither is ever
// reused: such a frame reads back as one of
// `JournalRead::unknown_records`.
pub(super) const TAG_STATS: u8 = 8;

/// Frames claiming to be larger than this are corruption, not data.
pub(super) const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;

fn encode_labels(buf: &mut Vec<u8>, l: &Labels) {
    let mut mask = 0u8;
    if l.job.is_some() {
        mask |= 1;
    }
    if l.engine.is_some() {
        mask |= 2;
    }
    if l.node.is_some() {
        mask |= 4;
    }
    if l.flowlet.is_some() {
        mask |= 8;
    }
    if l.edge.is_some() {
        mask |= 16;
    }
    buf.push(mask);
    if let Some(j) = &l.job {
        put_str(buf, j);
    }
    if let Some(e) = &l.engine {
        put_str(buf, e);
    }
    if let Some(n) = l.node {
        put_u32(buf, n);
    }
    if let Some(f) = l.flowlet {
        put_u32(buf, f);
    }
    if let Some(e) = l.edge {
        put_u32(buf, e);
    }
}

fn decode_labels(cur: &mut Cursor) -> Result<Labels, String> {
    let mask = cur.u8()?;
    let mut l = Labels::new();
    if mask & 1 != 0 {
        l.job = Some(cur.str()?);
    }
    if mask & 2 != 0 {
        l.engine = Some(cur.str()?);
    }
    if mask & 4 != 0 {
        l.node = Some(cur.u32()?);
    }
    if mask & 8 != 0 {
        l.flowlet = Some(cur.u32()?);
    }
    if mask & 16 != 0 {
        l.edge = Some(cur.u32()?);
    }
    Ok(l)
}

fn encode_snapshot(buf: &mut Vec<u8>, snap: &Snapshot) {
    put_str(buf, &snap.label);
    // A sequence-number slot nothing reads; kept so journals written
    // before and after share one layout.
    put_u64(buf, 0);
    put_u32(buf, snap.series.len() as u32);
    for s in &snap.series {
        put_str(buf, &s.name);
        encode_labels(buf, &s.labels);
        match &s.value {
            SampleValue::Counter(v) => {
                buf.push(0);
                put_u64(buf, *v);
            }
            SampleValue::Gauge(v) => {
                buf.push(1);
                put_i64(buf, *v);
            }
            SampleValue::Histogram(h) => {
                buf.push(2);
                put_u64(buf, h.count);
                put_u64(buf, h.sum_us);
                put_u32(buf, h.buckets.len() as u32);
                for b in &h.buckets {
                    put_u64(buf, *b);
                }
            }
        }
    }
}

fn decode_snapshot(cur: &mut Cursor) -> Result<Snapshot, String> {
    let label = cur.str()?;
    cur.u64()?; // the sequence-number slot
    let n = cur.u32()? as usize;
    let mut series = Vec::with_capacity(n.min(65_536));
    for _ in 0..n {
        let name = cur.str()?;
        let labels = decode_labels(cur)?;
        let value = match cur.u8()? {
            0 => SampleValue::Counter(cur.u64()?),
            1 => SampleValue::Gauge(cur.i64()?),
            2 => {
                let count = cur.u64()?;
                let sum_us = cur.u64()?;
                let nb = cur.u32()? as usize;
                if nb > 1024 {
                    return Err("histogram bucket count out of range".into());
                }
                let mut buckets = Vec::with_capacity(nb);
                for _ in 0..nb {
                    buckets.push(cur.u64()?);
                }
                SampleValue::Histogram(HistSample {
                    count,
                    sum_us,
                    buckets,
                })
            }
            other => return Err(format!("unknown sample kind {other}")),
        };
        series.push(SeriesSample {
            name,
            labels,
            value,
        });
    }
    Ok(Snapshot { label, series })
}

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
            JournalRecord::JobEnd {
                job,
                ok,
                t_us,
                elapsed_us,
                shuffled_bytes,
            } => {
                buf.push(TAG_JOB_END);
                put_str(&mut buf, job);
                buf.push(u8::from(*ok));
                put_u64(&mut buf, *t_us);
                put_u64(&mut buf, *elapsed_us);
                put_u64(&mut buf, *shuffled_bytes);
            }
            JournalRecord::Epoch(snap) => {
                buf.push(TAG_EPOCH);
                encode_snapshot(&mut buf, snap);
            }
            JournalRecord::AuditEpoch { job, report_json } => {
                buf.push(TAG_AUDIT);
                put_str(&mut buf, job);
                put_str(&mut buf, report_json);
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
            TAG_JOB_END => JournalRecord::JobEnd {
                job: cur.str()?,
                ok: cur.u8()? != 0,
                t_us: cur.u64()?,
                elapsed_us: cur.u64()?,
                shuffled_bytes: cur.u64()?,
            },
            TAG_EPOCH => JournalRecord::Epoch(decode_snapshot(&mut cur)?),
            TAG_AUDIT => JournalRecord::AuditEpoch {
                job: cur.str()?,
                report_json: cur.str()?,
            },
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

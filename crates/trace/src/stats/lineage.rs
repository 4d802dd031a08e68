//! Sampled record lineage: the deterministic gate that picks which
//! keys are followed, the hops a followed key's bins take, and what
//! `hamr explain` needs to find a key a user typed and print its path.

/// The deterministic lineage gate: the same key hash answers the same
/// way at every hop on every node, so a sampled record is recognized
/// everywhere it goes without carrying a wire tag.
#[inline]
pub fn sample_hit(hash: u64, one_in: u64) -> bool {
    one_in <= 1 || hash.is_multiple_of(one_in)
}

/// Most lineage samples kept per job.
pub const MAX_LINEAGE_SAMPLES: usize = 256;
/// Most hops kept per sample.
pub const MAX_LINEAGE_HOPS: usize = 96;

/// What kind of hop a sampled record's bin took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// A normal emit onto an edge.
    Emit,
    /// A reduce task ingested the bin (the path's terminus).
    Reduce,
}

impl HopKind {
    /// The journal's code for the kind. Codes 1, 2 and 4 belonged to
    /// the removed hot-key splitter (scatter, re-emit, absorb) and stay
    /// unassigned: journals written before its removal hold them, and a
    /// reader skips those hops.
    pub fn as_u8(self) -> u8 {
        match self {
            HopKind::Emit => 0,
            HopKind::Reduce => 3,
        }
    }

    pub fn from_u8(v: u8) -> Option<HopKind> {
        Some(match v {
            0 => HopKind::Emit,
            3 => HopKind::Reduce,
            _ => return None,
        })
    }
}

/// One hop of a sampled record: which flowlet moved it, over which
/// edge, from which node to which, and how (emit, reduce ingest).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageHop {
    pub kind: HopKind,
    pub flowlet: u32,
    pub flowlet_name: String,
    pub edge: u32,
    pub src: u32,
    pub dst: u32,
    /// Occurrences of the sampled key in the bin this hop covers.
    pub records: u32,
}

/// A sampled key and every hop its records took through the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageSample {
    pub hash: u64,
    /// First-seen key bytes (truncated to [`KEY_SAMPLE_BYTES`](super::KEY_SAMPLE_BYTES)).
    pub key: Vec<u8>,
    pub hops: Vec<LineageHop>,
}

/// Decode one LEB128 varint from the front of `bytes`: (value, bytes
/// consumed). Mirrors the codec crate's integer wire format without
/// depending on it (the stats layer stays dep-free).
fn read_leb128(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, b) in bytes.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

/// Encode a value as a LEB128 varint (the codec crate's integer wire
/// format).
fn write_leb128(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Human-readable key rendering for the wire encodings the workload
/// codecs produce: length-prefixed UTF-8 strings come back verbatim,
/// varint integers as `u64:N`; raw printable UTF-8 and 4/8-byte
/// little-endian integers cover custom codecs; anything else is hex.
pub fn format_key(key: &[u8]) -> String {
    if key.is_empty() {
        return "<empty>".into();
    }
    // Length-prefixed string: varint len + exactly len UTF-8 bytes.
    if let Some((len, n)) = read_leb128(key) {
        if len > 0 && n + len as usize == key.len() {
            if let Ok(s) = std::str::from_utf8(&key[n..]) {
                if s.chars().all(|c| !c.is_control()) {
                    return s.to_string();
                }
            }
        }
    }
    if let Ok(s) = std::str::from_utf8(key) {
        if s.chars().all(|c| !c.is_control()) {
            return s.to_string();
        }
    }
    // A lone varint consuming the whole buffer: an integer key.
    if let Some((v, n)) = read_leb128(key) {
        if n == key.len() {
            return format!("u64:{v}");
        }
    }
    match key.len() {
        4 => format!("u32:{}", u32::from_le_bytes(key.try_into().unwrap())),
        8 => format!("u64:{}", u64::from_le_bytes(key.try_into().unwrap())),
        _ => {
            let mut s = String::from("0x");
            for b in key.iter().take(16) {
                s.push_str(&format!("{b:02x}"));
            }
            if key.len() > 16 {
                s.push('…');
            }
            s
        }
    }
}

/// Candidate byte encodings for a user-typed key query: the codec
/// crate's wire formats first (length-prefixed UTF-8, LEB128 varint
/// for integers), then raw UTF-8 and little-endian u32/u64/i64 for
/// custom codecs.
pub fn key_query_encodings(query: &str) -> Vec<Vec<u8>> {
    let mut out = vec![query.as_bytes().to_vec()];
    // Length-prefixed string encoding (String/&str keys).
    let mut prefixed = Vec::with_capacity(query.len() + 2);
    write_leb128(query.len() as u64, &mut prefixed);
    prefixed.extend_from_slice(query.as_bytes());
    out.push(prefixed);
    if let Ok(v) = query.parse::<u64>() {
        let mut varint = Vec::with_capacity(10);
        write_leb128(v, &mut varint);
        out.push(varint);
        out.push((v as u32).to_le_bytes().to_vec());
        out.push(v.to_le_bytes().to_vec());
    }
    if let Ok(v) = query.parse::<i64>() {
        // Signed integers ride the codec's zigzag varint.
        let mut zigzag = Vec::with_capacity(10);
        write_leb128(((v << 1) ^ (v >> 63)) as u64, &mut zigzag);
        if !out.contains(&zigzag) {
            out.push(zigzag);
        }
        let le = v.to_le_bytes().to_vec();
        if !out.contains(&le) {
            out.push(le);
        }
    }
    if let Some(hex) = query.strip_prefix("0x") {
        if hex.len() % 2 == 0 {
            if let Ok(bytes) = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
                .collect::<Result<Vec<u8>, _>>()
            {
                out.push(bytes);
            }
        }
    }
    out
}

/// Render one sample's path the way `hamr explain` prints it.
pub fn render_explain(job: &str, sample: &LineageSample) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "key {} (hash {:#018x}) in job '{}':\n",
        format_key(&sample.key),
        sample.hash,
        job
    ));
    for h in &sample.hops {
        let arrow = match h.kind {
            HopKind::Emit => "emitted",
            HopKind::Reduce => "ingested by reduce",
        };
        out.push_str(&format!(
            "  {} via flowlet '{}' edge {}: node {} -> node {} ({} record{})\n",
            arrow,
            h.flowlet_name,
            h.edge,
            h.src,
            h.dst,
            h.records,
            if h.records == 1 { "" } else { "s" }
        ));
    }
    let reducer = sample
        .hops
        .iter()
        .rev()
        .find(|h| h.kind == HopKind::Reduce)
        .map(|h| h.dst);
    match reducer {
        Some(n) => out.push_str(&format!("  final reducer: node {n}\n")),
        None => out.push_str("  final reducer: (no consume hop recorded)\n"),
    }
    out
}

//! User-facing Mapper/Reducer traits and their typed wrappers.

use hamr_codec::Codec;
use std::marker::PhantomData;

/// Collects a task's emissions: a map's into the sort buffer (which
/// copies them into its `kvbuffer`), a combiner's into the spill run or
/// partition being written, a reducer's into the job output file.
pub struct MapOutput<'a> {
    sink: &'a mut dyn FnMut(&[u8], &[u8]),
    /// What `emit_t` encodes into: one buffer per task, reused.
    scratch: Vec<u8>,
}

/// A reducer's (or combiner's) output: the same collector.
pub type ReduceOutput<'a> = MapOutput<'a>;

impl<'a> MapOutput<'a> {
    pub(crate) fn new(sink: &'a mut dyn FnMut(&[u8], &[u8])) -> Self {
        MapOutput {
            sink,
            scratch: Vec::new(),
        }
    }

    /// Emit one `(key, value)` pair.
    #[inline]
    pub fn emit(&mut self, key: &[u8], value: &[u8]) {
        (self.sink)(key, value);
    }

    /// Typed emit.
    #[inline]
    pub fn emit_t<K: Codec, V: Codec>(&mut self, key: &K, value: &V) {
        self.scratch.clear();
        key.encode(&mut self.scratch);
        let split = self.scratch.len();
        value.encode(&mut self.scratch);
        let (k, v) = self.scratch.split_at(split);
        (self.sink)(k, v);
    }
}

/// A map function over erased records.
pub trait Mapper: Send + Sync {
    fn map(&self, key: &[u8], value: &[u8], out: &mut MapOutput);
}

/// A reduce (or combine) function over a key's grouped values. The
/// values are borrowed from the buffers being merged; within one map
/// task's output they come in emission order.
pub trait Reducer: Send + Sync {
    fn reduce(&self, key: &[u8], values: &mut dyn Iterator<Item = &[u8]>, out: &mut ReduceOutput);
}

/// Typed mapper: `Fn(K, V, &mut MapOutput)`.
pub struct TypedMapper<K, V, F> {
    f: F,
    _pd: PhantomData<fn(K, V)>,
}

impl<K, V, F> Mapper for TypedMapper<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(K, V, &mut MapOutput) + Send + Sync,
{
    fn map(&self, key: &[u8], value: &[u8], out: &mut MapOutput) {
        let k = K::from_bytes(key).expect("mapper key type");
        let v = V::from_bytes(value).expect("mapper value type");
        (self.f)(k, v, out);
    }
}

/// Build a typed [`Mapper`].
pub fn map_fn<K, V, F>(f: F) -> TypedMapper<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(K, V, &mut MapOutput) + Send + Sync,
{
    TypedMapper {
        f,
        _pd: PhantomData,
    }
}

/// Typed reducer: `Fn(K, Vec<V>, &mut ReduceOutput)`.
pub struct TypedReducer<K, V, F> {
    f: F,
    _pd: PhantomData<fn(K, V)>,
}

impl<K, V, F> Reducer for TypedReducer<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(K, Vec<V>, &mut ReduceOutput) + Send + Sync,
{
    fn reduce(&self, key: &[u8], values: &mut dyn Iterator<Item = &[u8]>, out: &mut ReduceOutput) {
        let k = K::from_bytes(key).expect("reducer key type");
        let vs: Vec<V> = values
            .map(|v| V::from_bytes(v).expect("reducer value type"))
            .collect();
        (self.f)(k, vs, out);
    }
}

/// Build a typed [`Reducer`].
pub fn reduce_fn<K, V, F>(f: F) -> TypedReducer<K, V, F>
where
    K: Codec,
    V: Codec,
    F: Fn(K, Vec<V>, &mut ReduceOutput) + Send + Sync,
{
    TypedReducer {
        f,
        _pd: PhantomData,
    }
}

/// Mapper for raw text lines: `Fn(offset, &str, &mut MapOutput)`.
/// Avoids the typed-String decode for TextLines inputs where the value
/// is raw line bytes, not a `Codec`-encoded `String`.
pub struct LineMapper<F> {
    f: F,
}

impl<F> Mapper for LineMapper<F>
where
    F: Fn(u64, &str, &mut MapOutput) + Send + Sync,
{
    fn map(&self, key: &[u8], value: &[u8], out: &mut MapOutput) {
        let offset = u64::from_bytes(key).expect("line offset");
        let line = std::str::from_utf8(value).unwrap_or_default();
        (self.f)(offset, line, out);
    }
}

/// Build a [`LineMapper`].
pub fn line_map_fn<F>(f: F) -> LineMapper<F>
where
    F: Fn(u64, &str, &mut MapOutput) + Send + Sync,
{
    LineMapper { f }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_mapper_roundtrip() {
        let m = map_fn(|k: u64, v: String, out: &mut MapOutput| {
            out.emit_t(&(k + 1), &format!("{v}!"));
        });
        let mut got = Vec::new();
        let mut sink = |k: &[u8], v: &[u8]| got.push((k.to_vec(), v.to_vec()));
        let mut out = MapOutput::new(&mut sink);
        m.map(&5u64.to_bytes(), &"hey".to_string().to_bytes(), &mut out);
        assert_eq!(got.len(), 1);
        assert_eq!(u64::from_bytes(&got[0].0).unwrap(), 6);
        assert_eq!(String::from_bytes(&got[0].1).unwrap(), "hey!");
    }

    #[test]
    fn typed_reducer_groups() {
        let r = reduce_fn(|k: String, vs: Vec<u64>, out: &mut ReduceOutput| {
            out.emit_t(&k, &vs.iter().sum::<u64>());
        });
        let mut got = Vec::new();
        let mut sink = |k: &[u8], v: &[u8]| got.push((k.to_vec(), v.to_vec()));
        let mut out = ReduceOutput::new(&mut sink);
        let values = [1u64.to_bytes(), 2u64.to_bytes(), 3u64.to_bytes()];
        let mut iter = values.iter().map(|v| &v[..]);
        r.reduce(&"k".to_string().to_bytes(), &mut iter, &mut out);
        assert_eq!(u64::from_bytes(&got[0].1).unwrap(), 6);
    }

    #[test]
    fn line_mapper_gets_raw_text() {
        let m = line_map_fn(|off, line, out: &mut MapOutput| {
            out.emit_t(&off, &line.len().to_string());
        });
        let mut got = Vec::new();
        let mut sink = |k: &[u8], v: &[u8]| got.push((k.to_vec(), v.to_vec()));
        let mut out = MapOutput::new(&mut sink);
        m.map(&7u64.to_bytes(), b"hello world", &mut out);
        assert_eq!(u64::from_bytes(&got[0].0).unwrap(), 7);
        assert_eq!(String::from_bytes(&got[0].1).unwrap(), "11");
    }
}

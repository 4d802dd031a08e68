//! Property tests for the disk model: content fidelity under arbitrary
//! write patterns and metric consistency.

use hamr_simdisk::{Disk, DiskConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A file written whole from many pieces and read back in chunks
    /// reproduces the bytes exactly, regardless of chunk boundaries.
    #[test]
    fn chunked_writes_roundtrip(
        chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..20),
        read_size in 1usize..64,
    ) {
        let disk = Disk::new(DiskConfig::instant());
        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
        disk.write_all("f", &expected).unwrap();
        assert_eq!(disk.len("f").unwrap(), expected.len());
        let mut r = disk.open("f").unwrap();
        let mut got = Vec::new();
        let mut buf = vec![0u8; read_size];
        loop {
            let n = r.read(&mut buf);
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(got, expected);
    }

    /// Write metrics account exactly for the bytes written; read
    /// metrics for the bytes read.
    #[test]
    fn metrics_are_exact(
        payload in prop::collection::vec(any::<u8>(), 0..5000),
    ) {
        let disk = Disk::new(DiskConfig::instant());
        disk.write_all("f", &payload).unwrap();
        let _ = disk.read_all("f").unwrap();
        let m = disk.metrics();
        prop_assert_eq!(m.bytes_written as usize, payload.len());
        prop_assert_eq!(m.bytes_read as usize, payload.len());
    }

    /// The namespace behaves like a map: create/delete/exists/len agree
    /// with a model.
    #[test]
    fn namespace_matches_model(
        names in prop::collection::vec("[a-c]{1,3}", 1..30),
    ) {
        let disk = Disk::new(DiskConfig::instant());
        let mut model = std::collections::HashMap::<String, usize>::new();
        for (i, name) in names.iter().enumerate() {
            if i % 3 == 2 {
                disk.delete(name);
                model.remove(name);
            } else if !model.contains_key(name) {
                let data = vec![0u8; i];
                disk.write_all(name, &data).unwrap();
                model.insert(name.clone(), i);
            }
        }
        for (name, len) in &model {
            prop_assert!(disk.exists(name));
            prop_assert_eq!(disk.len(name).unwrap(), *len);
        }
        prop_assert_eq!(disk.list().len(), model.len());
        prop_assert_eq!(disk.used_bytes(), model.values().sum::<usize>());
    }
}

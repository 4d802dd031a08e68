//! Property tests on the DFS block layer: arbitrary record sequences
//! must round-trip intact, with block invariants holding throughout.

use hamr_dfs::{Dfs, DfsConfig, PACKET_SIZE};
use hamr_simdisk::Disk;
use proptest::prelude::*;

fn dfs(nodes: usize, block_size: usize, replication: usize) -> Dfs {
    Dfs::new(
        (0..nodes).map(|_| Disk::new(Default::default())).collect(),
        DfsConfig {
            block_size,
            replication,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every written record sequence reads back byte-identical.
    #[test]
    fn records_roundtrip(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..40), 0..60),
        nodes in 1usize..5,
        block_size in 8usize..128,
        replication in 1usize..4,
    ) {
        let dfs = dfs(nodes, block_size, replication);
        let mut w = dfs.create("f").unwrap();
        for r in &records {
            w.write_record(r);
        }
        w.seal().unwrap();
        let flat: Vec<u8> = records.iter().flatten().copied().collect();
        prop_assert_eq!(dfs.read_all("f").unwrap(), flat);
        prop_assert_eq!(dfs.len("f").unwrap(), records.iter().map(|r| r.len()).sum::<usize>());
    }

    /// Block invariants: per-block record counts sum to the total; no
    /// block except single-record oversize ones exceeds block_size;
    /// every block has min(replication, nodes) distinct replicas.
    #[test]
    fn block_invariants(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..30), 1..50),
        nodes in 1usize..5,
        block_size in 8usize..64,
        replication in 1usize..4,
    ) {
        let dfs = dfs(nodes, block_size, replication);
        let mut w = dfs.create("f").unwrap();
        for r in &records {
            w.write_record(r);
        }
        w.seal().unwrap();
        let blocks = dfs.blocks("f").unwrap();
        let total_records: usize = blocks.iter().map(|b| b.records).sum();
        prop_assert_eq!(total_records, records.len());
        let expected_replicas = replication.min(nodes);
        for b in &blocks {
            prop_assert!(b.len <= block_size || b.records == 1,
                "multi-record block over capacity: {} > {}", b.len, block_size);
            let mut reps = b.replicas.clone();
            reps.sort_unstable();
            reps.dedup();
            prop_assert_eq!(reps.len(), expected_replicas);
        }
    }

    /// Reading block-by-block with any preferred node equals read_all.
    #[test]
    fn preferred_reads_agree(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..20), 1..30),
        prefer in 0usize..4,
    ) {
        let dfs = dfs(4, 32, 2);
        let mut w = dfs.create("f").unwrap();
        for r in &records {
            w.write_record(r);
        }
        w.seal().unwrap();
        let mut via_blocks = Vec::new();
        for i in 0..dfs.blocks("f").unwrap().len() {
            via_blocks.extend_from_slice(&dfs.read_block("f", i, Some(prefer)).unwrap());
        }
        prop_assert_eq!(via_blocks, dfs.read_all("f").unwrap());
    }

    /// Splits cover the file exactly once, in order.
    #[test]
    fn splits_partition_the_file(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..20), 1..40),
    ) {
        let dfs = dfs(3, 24, 1);
        let mut w = dfs.create("f").unwrap();
        for r in &records {
            w.write_record(r);
        }
        w.seal().unwrap();
        let splits = dfs.splits("f").unwrap();
        let total_len: usize = splits.iter().map(|s| s.len).sum();
        let total_records: usize = splits.iter().map(|s| s.records).sum();
        prop_assert_eq!(total_len, dfs.len("f").unwrap());
        prop_assert_eq!(total_records, records.len());
        for (i, s) in splits.iter().enumerate() {
            prop_assert_eq!(s.block_index, i);
        }
    }

    /// Packets: each block's packet starts are record boundaries, begin
    /// at 0 and increase, and the packets cover the block; a packet
    /// longer than PACKET_SIZE holds one non-empty record, and a record
    /// longer than that is a packet of its own. Read back packet by packet, in any
    /// order, the block is its bytes and one read.
    #[test]
    fn packets_are_record_aligned_and_cover_the_block(
        lens in prop::collection::vec(
            prop_oneof![Just(0usize), 1usize..4_000, 20_000usize..70_000, 60_000usize..140_000],
            1..24,
        ),
        block_size in (64usize << 10)..(512 << 10),
        reverse in any::<bool>(),
    ) {
        let dfs = dfs(2, block_size, 1);
        let mut w = dfs.create("f").unwrap();
        for (i, &len) in lens.iter().enumerate() {
            w.write_record(&vec![i as u8; len]);
        }
        w.seal().unwrap();
        let mut next = 0; // the first record of the block at hand
        for (b, block) in dfs.blocks("f").unwrap().iter().enumerate() {
            let records = &lens[next..next + block.records];
            next += block.records;
            let mut starts = vec![0];
            for len in records {
                starts.push(starts.last().unwrap() + len);
            }
            prop_assert_eq!(*starts.last().unwrap(), block.len);
            prop_assert_eq!(block.packets.first(), Some(&0));
            prop_assert!(block.packets.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(block.packets.iter().all(|p| starts.contains(p)), "record-aligned");
            let ranges: Vec<_> = block.packet_ranges().collect();
            prop_assert_eq!(ranges.last().unwrap().end, block.len);
            for range in &ranges {
                let held = (0..records.len())
                    .filter(|&r| records[r] > 0)
                    .filter(|&r| range.start <= starts[r] && starts[r + 1] <= range.end)
                    .count();
                prop_assert!(
                    range.len() <= PACKET_SIZE || held == 1,
                    "a {}-byte packet of {} records", range.len(), held
                );
            }
            for (r, len) in records.iter().enumerate() {
                if *len > PACKET_SIZE {
                    prop_assert!(ranges.contains(&(starts[r]..starts[r + 1])), "record {}", r);
                }
            }
            let node = block.replicas[0];
            let before = dfs.disk(node).metrics();
            let mut order = ranges.clone();
            if reverse {
                order.reverse();
            }
            let mut bytes = vec![0u8; block.len];
            for range in order {
                let data = dfs.read_range("f", b, Some(node), range.clone()).unwrap();
                bytes[range.clone()].copy_from_slice(&data[range]);
            }
            prop_assert_eq!(&bytes, &*dfs.read_block("f", b, Some(node)).unwrap());
            let after = dfs.disk(node).metrics();
            prop_assert_eq!(after.read_ops - before.read_ops, 2, "one read, then read_block's");
            prop_assert_eq!(after.bytes_read - before.bytes_read, 2 * block.len as u64);
        }
        // A file of no bytes has no block to count its empty records.
        let expected = if lens.iter().sum::<usize>() == 0 { 0 } else { lens.len() };
        prop_assert_eq!(next, expected);
    }
}

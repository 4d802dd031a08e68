//! The DFS write path: a block's replicas are on their disks together
//! (HDFS's replica pipeline), and a block that cannot be stored fails
//! the writer's `seal` and leaves no replica behind.

use hamr_dfs::{Dfs, DfsConfig, DfsError};
use hamr_simdisk::{Disk, DiskConfig, DiskError};
use hamr_trace::{EventKind, Observe, RingSink, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn instant_dfs(block_size: usize) -> Dfs {
    Dfs::new(
        (0..2).map(|_| Disk::new(DiskConfig::instant())).collect(),
        DfsConfig {
            block_size,
            replication: 2,
        },
    )
}

/// No disk holds a block replica, and none holds a byte.
fn assert_no_blocks(dfs: &Dfs) {
    for node in 0..dfs.cluster_size() {
        let disk = dfs.disk(node);
        assert!(
            disk.list().iter().all(|n| !n.starts_with("dfs.blk.")),
            "node {node} keeps {:?}",
            disk.list()
        );
        assert_eq!(disk.used_bytes(), 0);
    }
}

#[test]
fn a_blocks_replicas_are_on_the_device_together() {
    // 100 KB blocks on 1 MB/s disks: 100 ms of device time each.
    let (bw, block) = (1_000_000u64, 100_000usize);
    let sink = Arc::new(RingSink::new(2, 64));
    let obs = Observe {
        tracer: Tracer::new(sink.clone()),
        ..Default::default()
    };
    let disks = (0..2)
        .map(|node| {
            let disk = Disk::new(DiskConfig::modeled(bw, Duration::ZERO));
            disk.observe(&obs, node);
            disk
        })
        .collect();
    let dfs = Dfs::new(
        disks,
        DfsConfig {
            block_size: block,
            replication: 2,
        },
    );
    let mut w = dfs.create_from("f", Some(0)).unwrap();
    for _ in 0..3 {
        w.write_record(&vec![1u8; block]);
    }
    w.seal().unwrap();
    // A `DiskWrite` marks a write's submission, and each disk is idle
    // when its replica is submitted: the booking starts then.
    let writes: Vec<(u64, u32)> = sink
        .drain()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DiskWrite { .. }))
        .map(|e| (e.t_us, e.node))
        .collect();
    assert_eq!(writes.len(), 6, "three blocks, two replicas each");
    let device_us = block as u64 * 1_000_000 / bw;
    for replicas in writes.chunks(2) {
        assert_eq!((replicas[0].1, replicas[1].1), (0, 1));
        assert!(
            replicas[1].0 < replicas[0].0 + device_us,
            "replica 1 was booked after replica 0 ended: {writes:?}"
        );
    }
    // `seal` returned after the last replica: neither disk has time
    // left, so a read booked now starts now.
    let read = Duration::from_secs_f64(block as f64 / bw as f64);
    for node in 0..2 {
        let ready_at = dfs.read_ahead("f", 2, Some(node)).unwrap();
        assert!(ready_at <= Instant::now() + read, "node {node} still busy");
    }
}

#[test]
fn deleting_a_file_under_its_writer_fails_the_seal_and_leaves_no_block() {
    let dfs = instant_dfs(16);
    let mut w = dfs.create("f").unwrap();
    for _ in 0..3 {
        w.write_record(b"0123456789abcdef"); // one block each
    }
    dfs.delete("f").unwrap();
    for _ in 0..3 {
        w.write_record(b"0123456789abcdef");
    }
    assert_eq!(w.seal(), Err(DfsError::NotFound("f".into())));
    assert!(!dfs.exists("f"));
    assert_no_blocks(&dfs);
}

#[test]
fn a_file_deleted_while_its_block_is_on_the_device_keeps_no_replica() {
    // 100 ms of device time: the delete lands while the writer waits for
    // its replicas (or, on a slow host, before they are booked — the
    // outcome is the same).
    let disks = (0..2)
        .map(|_| Disk::new(DiskConfig::modeled(1_000_000, Duration::ZERO)))
        .collect();
    let dfs = Dfs::new(disks, DfsConfig::default());
    let mut w = dfs.create("f").unwrap();
    w.write_record(&[2u8; 100_000]);
    let writer = std::thread::spawn(move || w.seal());
    std::thread::sleep(Duration::from_millis(30));
    dfs.delete("f").unwrap();
    assert_eq!(writer.join().unwrap(), Err(DfsError::NotFound("f".into())));
    assert_no_blocks(&dfs);
}

#[test]
fn a_replica_the_disk_refuses_fails_the_block_and_drops_the_others() {
    let dfs = instant_dfs(16);
    // Block 0's name is already taken on node 1, its second replica.
    dfs.disk(1).write_all("dfs.blk.0", b"x").unwrap();
    let mut w = dfs.create_from("f", Some(0)).unwrap();
    w.write_record(b"payload");
    assert!(matches!(
        w.seal(),
        Err(DfsError::Disk(DiskError::AlreadyExists(_)))
    ));
    assert!(dfs.disk(0).is_empty(), "the booked replica is deleted");
    assert_eq!(dfs.disk(1).list(), vec!["dfs.blk.0"]);
    assert!(dfs.blocks("f").unwrap().is_empty());
}

#[test]
fn write_line_blocks_match_write_record() {
    let lines = ["a", "", "bcdefg", "hij", "klmnopqrstuvwxyz0123", "k"];
    let (by_line, by_record) = (instant_dfs(8), instant_dfs(8));
    let mut wl = by_line.create("f").unwrap();
    let mut wr = by_record.create("f").unwrap();
    for line in lines {
        wl.write_line(line);
        wr.write_record(format!("{line}\n").as_bytes());
    }
    wl.seal().unwrap();
    wr.seal().unwrap();
    assert_eq!(by_line.blocks("f").unwrap(), by_record.blocks("f").unwrap());
    assert_eq!(
        by_line.read_all("f").unwrap(),
        by_record.read_all("f").unwrap()
    );
}

//! A journal written by an older build reads the same: an `Incident`
//! frame is the bytes it has always been, whatever type the reader
//! decodes it into, and a frame this build cannot read is skipped and
//! counted, never fatal.

use hamr_trace::{
    read_journal, Journal, JournalConfig, JournalRecord, WatchdogClass, WatchdogTrip,
};
use std::path::PathBuf;

/// An `Incident` frame byte for byte as every writer so far has laid
/// it out: `[len u32][crc32 u32]`, then tag 6, the job, the class by
/// name, the epoch and the detail (a string is a u32 length and its
/// bytes; integers little-endian).
const GOLDEN_INCIDENT: &[u8] = b"\x2f\x00\x00\x00\x78\x75\x5b\x3f\
    \x06\x02\x00\x00\x00wc\
    \x0c\x00\x00\x00backpressure\
    \x07\x00\x00\x00\x00\x00\x00\x00\
    \x0c\x00\x00\x00windows full";

/// The same frame with a class no build knows, `meltdown`.
const UNKNOWN_CLASS_INCIDENT: &[u8] = b"\x2b\x00\x00\x00\xc3\x6a\xb6\xc5\
    \x06\x02\x00\x00\x00wc\
    \x08\x00\x00\x00meltdown\
    \x07\x00\x00\x00\x00\x00\x00\x00\
    \x0c\x00\x00\x00windows full";

fn journal_dir(test: &str, segment: &[u8]) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hamr_journal_compat_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("seg-000000.hjs"), segment).expect("write segment");
    dir
}

fn golden_record() -> JournalRecord {
    let trip = WatchdogTrip {
        class: WatchdogClass::Backpressure,
        epoch: 7,
        detail: "windows full".into(),
    };
    JournalRecord::Incident {
        job: "wc".into(),
        trip,
    }
}

#[test]
fn a_golden_incident_frame_decodes_to_its_trip_and_re_encodes_byte_identical() {
    let dir = journal_dir("golden", GOLDEN_INCIDENT);
    let read = read_journal(&dir).expect("read");
    assert_eq!(read.records, [golden_record()]);
    assert_eq!((read.unknown_records, read.truncated_frames), (0, 0));

    let out = dir.join("rewritten");
    let journal = Journal::open(JournalConfig::new(&out)).expect("open");
    journal.append(&read.records[0]);
    drop(journal);
    let mut files = std::fs::read_dir(&out).expect("journal dir");
    let segment = files.next().expect("one segment").expect("entry").path();
    assert!(
        files.next().is_none(),
        "the segment is all a journal writes"
    );
    let written = std::fs::read(segment).expect("read segment");
    assert_eq!(written, GOLDEN_INCIDENT);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_incident_of_an_unknown_class_is_skipped_not_fatal() {
    let segment = [UNKNOWN_CLASS_INCIDENT, GOLDEN_INCIDENT].concat();
    let dir = journal_dir("unknown_class", &segment);
    let read = read_journal(&dir).expect("read");
    assert_eq!(read.records, [golden_record()]);
    assert_eq!((read.unknown_records, read.truncated_frames), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

//! `hamr doctor` prints the ranked diagnosis of a flight-recorder dump
//! a supervised run wrote (stuck edge/node, custody ledger, gauge hot
//! spots, event tail). Exit 0 on a clean record, 1 when it shows a
//! watchdog trip or job error, 2 when the file is missing or not a
//! flight record — a bad input never looks like a clean bill of health.

use super::{say, usage};
use hamr_trace::FlightRecord;

/// `hamr doctor <file>`: print a flight-recorder diagnosis.
pub fn main(args: &[String]) -> ! {
    let [path] = args else { usage() };
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("hamr doctor: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match FlightRecord::parse(&raw) {
        Ok(record) => {
            say(&record.render());
            let bad = record.trip.is_some() || record.error.is_some();
            std::process::exit(i32::from(bad));
        }
        Err(e) => {
            eprintln!("hamr doctor: {path} is not a flight-recorder dump: {e}");
            std::process::exit(2);
        }
    }
}

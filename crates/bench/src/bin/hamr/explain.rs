//! `hamr explain` reads the data-plane stats snapshots the journal
//! persists per job (`HAMR_STATS=full` runs sample record lineage)
//! and reconstructs a sampled key's path through the dataflow:
//! emitting flowlets and edges, and the final reducer.

use super::say;
use hamr_trace::stats::{format_key, key_query_encodings, render_explain};
use hamr_trace::{read_journal_tree, JournalRecord, StatsSnapshot};
use std::path::Path;

/// Collect every persisted stats snapshot for `job` (oldest first)
/// from a journal directory, laid out as `hamr timeline` takes it.
fn load_stats_snapshots(dir: &Path, job: &str) -> Result<Vec<StatsSnapshot>, String> {
    Ok(read_journal_tree(dir)?
        .into_iter()
        .flat_map(|read| read.records)
        .filter_map(|r| match r {
            JournalRecord::Stats(s) if s.job == job => Some(s),
            _ => None,
        })
        .collect())
}

/// `hamr explain <journal-dir> <job> <key>|--any|--list`: reconstruct
/// a sampled record's path — flowlets, edges, final reducer — from the
/// journal's stats snapshots.
/// Requires the run to have had `HAMR_STATS=full` (lineage sampling).
/// Exit 0 on a rendered path, 1 when the key/journal yields nothing,
/// 2 on bad arguments.
pub fn main(args: &[String]) -> ! {
    let (dir, job, query) = match args {
        [dir, job, query] => (Path::new(dir), job.as_str(), query.as_str()),
        _ => {
            eprintln!("usage: hamr explain <journal-dir> <job> <key>|--any|--list");
            std::process::exit(2);
        }
    };
    let snaps = match load_stats_snapshots(dir, job) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hamr explain: {e}");
            std::process::exit(1);
        }
    };
    // The last snapshot for the job wins: iterative workloads persist
    // one per job run and the freshest has the complete picture.
    let Some(snap) = snaps.last() else {
        eprintln!(
            "hamr explain: no stats snapshot for job '{job}' in {} \
             (was the run made with HAMR_STATS set?)",
            dir.display()
        );
        std::process::exit(1);
    };
    if snap.samples.is_empty() {
        eprintln!(
            "hamr explain: job '{job}' has per-edge sketches but no lineage samples \
             (rerun with HAMR_STATS=full to sample records)"
        );
        std::process::exit(1);
    }
    let code = match query {
        "--list" => {
            say(&format!("sampled keys in job '{job}':\n"));
            for s in &snap.samples {
                say(&format!(
                    "  {} (hash {:#018x}, {} hops)\n",
                    format_key(&s.key),
                    s.hash,
                    s.hops.len()
                ));
            }
            0
        }
        "--any" => {
            // Deepest path first: the most informative demo of the hop
            // chain, and deterministic for smoke tests.
            let sample = snap
                .samples
                .iter()
                .max_by_key(|s| (s.hops.len(), s.hash))
                .expect("samples non-empty");
            say(&render_explain(job, sample));
            0
        }
        key => {
            let needles = key_query_encodings(key);
            let hash = key
                .strip_prefix("hash:")
                .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok());
            match snap.find_sample(&needles, hash) {
                Some(sample) => {
                    say(&render_explain(job, sample));
                    0
                }
                None => {
                    eprintln!(
                        "hamr explain: key '{key}' was not sampled in job '{job}' \
                         ({} sampled keys; try --list, or lower the sampling \
                         stride with HAMR_STATS=full:1)",
                        snap.samples.len()
                    );
                    1
                }
            }
        }
    };
    std::process::exit(code);
}

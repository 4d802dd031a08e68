//! `hamr timeline` is the offline post-mortem: point it at a
//! `HAMR_JOURNAL` directory (or a parent holding several per-cluster
//! journals) and it reconstructs the run — one row per job with the
//! shuffled bytes, cache hits, stall time, p99 task latency and stuck
//! custody edges its `JobEnd` records, watchdog incidents, and the
//! final state of a run killed mid-flight. `--diff` compares two
//! journals job by job.

use super::say;
use hamr_trace::Timeline;
use std::path::Path;

/// `hamr timeline <dir>` / `hamr timeline --diff <a> <b>`. Exit 0 on a
/// rendered timeline, 1 on an unreadable/absent journal, 2 on bad
/// arguments.
pub fn main(args: &[String]) -> ! {
    let code = match args {
        [flag, a, b] if flag == "--diff" => {
            match (Timeline::load(Path::new(a)), Timeline::load(Path::new(b))) {
                (Ok(ta), Ok(tb)) => {
                    say(&format!("{}\n", Timeline::render_diff(&ta, &tb)));
                    0
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("hamr timeline: {e}");
                    1
                }
            }
        }
        [dir] => match Timeline::load(Path::new(dir)) {
            Ok(t) => {
                say(&format!("{}\n", t.render()));
                0
            }
            Err(e) => {
                eprintln!("hamr timeline: {e}");
                1
            }
        },
        _ => {
            eprintln!(
                "usage: hamr timeline <journal-dir>\n       \
                 hamr timeline --diff <journal-dir-a> <journal-dir-b>"
            );
            2
        }
    };
    std::process::exit(code);
}

//! `hamr` — the operator binary: a live console, and the offline
//! tools that read what a run left behind. One module per subcommand:
//!
//! ```text
//! hamr top --addr 127.0.0.1:9099 [--engine hamr] [--interval-ms N] [--ticks N]
//! hamr top --demo [--ticks N]
//! hamr timeline <journal-dir>
//! hamr timeline --diff <journal-dir-a> <journal-dir-b>
//! hamr explain <journal-dir> <job> <key>|--any|--list
//! hamr trace
//! hamr doctor <doctor_<job>.json>
//! ```
//!
//! Exit codes unless a subcommand says otherwise: 0 ok, 1
//! endpoint/scrape/run failure, 2 bad arguments. A reader that closes
//! stdout early (`hamr explain … --list | head`) ends the program
//! quietly with 0.

mod doctor;
mod explain;
mod timeline;
mod top;
mod trace;

use std::io::Write;

/// Write `text` to stdout. `println!` panics when the reader has gone
/// (`| head`); a closed pipe is the reader saying it has seen enough,
/// so the program ends there, quietly.
fn say(text: &str) {
    if let Err(e) = std::io::stdout().lock().write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("hamr: write to stdout: {e}");
        std::process::exit(1);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: hamr top --addr HOST:PORT [--engine hamr|mapred] \
         [--interval-ms N] [--ticks N]\n       hamr top --demo [--ticks N]\n       \
         hamr timeline <journal-dir>\n       \
         hamr timeline --diff <journal-dir-a> <journal-dir-b>\n       \
         hamr explain <journal-dir> <job> <key>|--any|--list\n       \
         hamr trace\n       \
         hamr doctor <doctor_<job>.json>"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, args)) = argv.split_first() else {
        usage()
    };
    match command.as_str() {
        "top" => top::main(args),
        "timeline" => timeline::main(args),
        "explain" => explain::main(args),
        "trace" => trace::main(args),
        "doctor" => doctor::main(args),
        _ => usage(),
    }
}

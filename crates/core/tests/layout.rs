//! No source file in the workspace's crates grows past what one concern
//! needs: the runtime was cut along its seams (scheduler, bin buffers,
//! flow control, worker pool — paper §2, Fig. 2), `hamr-trace` along
//! its own (codec / writer / reader, sketch / lineage / plane), the
//! `hamr` binary one module per subcommand, and this keeps them cut.

use std::path::{Path, PathBuf};

/// Lines a file under `crates/*/src` may have before its first
/// `#[cfg(test)]`.
const MAX_LINES: usize = 800;

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_file_is_over_800_lines_before_its_tests() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    let mut walked = 0;
    for krate in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
            walked += 1;
        }
    }
    assert!(walked >= 10, "walked {walked} crates");
    let mut over = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
        let lines = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
        let n = lines.count();
        if n > MAX_LINES {
            over.push(format!("{}: {n} lines", path.display()));
        }
    }
    assert!(over.is_empty(), "over {MAX_LINES} lines: {over:?}");
}

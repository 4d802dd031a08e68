//! `HAMR_JOURNAL=auto`'s directory choice, through `Journal::open_auto`:
//! the first `c<NNNN>-p<pid>` under the root that `create_dir` makes.

use hamr_trace::Journal;

#[test]
fn open_auto_takes_the_first_directory_it_creates() {
    let root = std::env::temp_dir().join(format!("hamr_journal_auto_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let pid = std::process::id();
    // A directory that is already there is skipped, and two opens in
    // one process never share one.
    std::fs::create_dir_all(root.join(format!("c0001-p{pid}"))).expect("mkdir");
    let first = Journal::open_auto(&root).expect("open");
    let second = Journal::open_auto(&root).expect("open");
    assert_eq!(first.dir(), root.join(format!("c0000-p{pid}")));
    assert_eq!(second.dir(), root.join(format!("c0002-p{pid}")));
    let _ = std::fs::remove_dir_all(&root);
}

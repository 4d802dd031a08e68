//! Alone in its file: it changes the process environment, which no
//! other test thread may be reading meanwhile.

#[test]
fn every_hamr_knob_is_removed_and_nothing_else() {
    std::env::set_var("HAMR_STATS", "off");
    std::env::set_var("HAMR_SCHED", "centralized");
    std::env::set_var("HAMRLIKE", "stays");
    hamr_benchmark::harness::scrub_env();
    assert!(std::env::var_os("HAMR_STATS").is_none());
    assert!(std::env::var_os("HAMR_SCHED").is_none());
    assert_eq!(std::env::var("HAMRLIKE").as_deref(), Ok("stays"));
}

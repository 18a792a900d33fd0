//! The two `PP_*` switches no other test or script sets:
//! `PP_CHECKPOINT_DIR` and `PP_CHECKPOINT_KEEP` must reach the
//! configuration they document.
//!
//! One test, alone in its binary: it edits the process environment.

use pp_splinesolver::CheckpointStore;

#[test]
fn checkpoint_switches_are_read_from_the_environment() {
    let dir = std::env::temp_dir().join("pp-env-knobs");
    std::env::set_var("PP_CHECKPOINT_DIR", &dir);
    std::env::set_var("PP_CHECKPOINT_KEEP", "3");

    let store = CheckpointStore::from_env().expect("PP_CHECKPOINT_DIR names a store");
    assert_eq!(store.dir(), dir);
    assert_eq!(store.keep(), 3);

    std::env::remove_var("PP_CHECKPOINT_DIR");
    assert!(CheckpointStore::from_env().is_none(), "unset = off");
}

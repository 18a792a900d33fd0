//! The three `PP_*` switches no other test or script sets: `PP_ABFT`,
//! `PP_CHECKPOINT_DIR` and `PP_CHECKPOINT_KEEP` must reach the
//! configuration they document.
//!
//! One test, alone in its binary: it edits the process environment, and
//! the ABFT default is read once per process.

use pp_splinesolver::{CheckpointStore, VerifyConfig};

#[test]
fn abft_and_checkpoint_switches_are_read_from_the_environment() {
    let dir = std::env::temp_dir().join("pp-env-knobs");
    std::env::set_var("PP_ABFT", "1");
    std::env::set_var("PP_CHECKPOINT_DIR", &dir);
    std::env::set_var("PP_CHECKPOINT_KEEP", "3");

    assert!(VerifyConfig::default().abft);

    let store = CheckpointStore::from_env().expect("PP_CHECKPOINT_DIR names a store");
    assert_eq!(store.dir(), dir);
    assert_eq!(store.keep(), 3);

    std::env::remove_var("PP_CHECKPOINT_DIR");
    assert!(CheckpointStore::from_env().is_none(), "unset = off");
}

//! Crash-consistent checkpoint/restart of the Vlasov–Poisson demo.
//!
//! The contract under test: a run that is killed and resumed from its
//! last checkpoint produces **bit-identical** state to the uninterrupted
//! run, and a corrupted (truncated / bit-flipped / torn) newest
//! generation silently falls back to the previous one instead of
//! panicking or resuming from garbage.

use pp_advection::vlasov::two_stream;
use pp_advection::VlasovPoisson1D1V;
use pp_portable::Parallel;
use pp_splinesolver::{CheckpointStore, Snapshot};
use std::fs;
use std::path::PathBuf;

fn solver() -> VlasovPoisson1D1V {
    VlasovPoisson1D1V::new(24, 32, 4.0, 5.0, 3, 0.05, two_stream(1.4, 0.01, 0.5)).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pp-ckpt-restart-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_run_resumes_bit_identical_to_uninterrupted() {
    let dir = tmpdir("bitident");

    // Reference: 10 uninterrupted steps.
    let mut reference = solver();
    for _ in 0..10 {
        reference.step(&Parallel).unwrap();
    }

    // Victim: checkpoint every 5 steps, "crash" after 7 (the in-memory
    // state past step 5 is simply dropped, like a killed process).
    {
        let mut victim = solver();
        victim.set_seed(0xC0FFEE);
        victim.checkpoint_every(5, CheckpointStore::new(&dir));
        for _ in 0..7 {
            victim.step(&Parallel).unwrap();
        }
        assert_eq!(victim.step_index(), 7);
    }

    // Resume in a fresh process-equivalent: a brand-new solver.
    let mut resumed = solver();
    let restored = resumed.resume_from(&dir).unwrap();
    assert_eq!(restored, Some(5), "must land on the step-5 checkpoint");
    assert_eq!(resumed.step_index(), 5);
    assert_eq!(resumed.seed(), 0xC0FFEE, "run seed travels with the state");
    for _ in 0..5 {
        resumed.step(&Parallel).unwrap();
    }
    assert_eq!(resumed.step_index(), 10);
    assert_eq!(
        resumed
            .distribution()
            .max_abs_diff(reference.distribution()),
        0.0,
        "resumed run must be bit-identical to the uninterrupted run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_newest_generation_falls_back_and_still_resumes_bit_identical() {
    let dir = tmpdir("fallback");

    let mut reference = solver();
    for _ in 0..10 {
        reference.step(&Parallel).unwrap();
    }

    {
        let mut victim = solver();
        victim.checkpoint_every(2, CheckpointStore::new(&dir).with_keep(2));
        for _ in 0..6 {
            victim.step(&Parallel).unwrap();
        }
    }
    let store = CheckpointStore::new(&dir);
    let gens = store.generations();
    assert_eq!(
        gens.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![4, 6],
        "keep-2 rotation"
    );

    // Bit-flip the newest generation mid-file: restore must skip it.
    let newest = &gens[1].1;
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    fs::write(newest, &bytes).unwrap();

    let mut resumed = solver();
    assert_eq!(resumed.resume_from(&dir).unwrap(), Some(4));
    for _ in 0..6 {
        resumed.step(&Parallel).unwrap();
    }
    assert_eq!(
        resumed
            .distribution()
            .max_abs_diff(reference.distribution()),
        0.0
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_and_torn_generations_never_panic() {
    let dir = tmpdir("torn");

    {
        let mut victim = solver();
        victim.checkpoint_every(3, CheckpointStore::new(&dir).with_keep(3));
        for _ in 0..9 {
            victim.step(&Parallel).unwrap();
        }
    }
    let store = CheckpointStore::new(&dir);
    let gens = store.generations();
    assert_eq!(gens.len(), 3);

    // Truncate the newest (a crash mid-overwrite on a non-atomic FS),
    // tear the middle (random garbage), leave a stray temp file.
    let bytes = fs::read(&gens[2].1).unwrap();
    fs::write(&gens[2].1, &bytes[..bytes.len() / 3]).unwrap();
    fs::write(&gens[1].1, b"torn to shreds").unwrap();
    fs::write(dir.join(".ckpt-00000000000000000012.tmp"), b"partial").unwrap();

    let mut resumed = solver();
    assert_eq!(
        resumed.resume_from(&dir).unwrap(),
        Some(3),
        "only the oldest generation is intact"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_empty_directory_starts_fresh() {
    let dir = tmpdir("empty");
    let mut s = solver();
    assert_eq!(s.resume_from(&dir).unwrap(), None);
    assert_eq!(s.step_index(), 0);
    // Fresh run proceeds normally.
    s.step(&Parallel).unwrap();
    assert_eq!(s.step_index(), 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_from_mismatched_grid_is_rejected() {
    let dir = tmpdir("mismatch");
    {
        let mut small = solver();
        small.checkpoint_every(1, CheckpointStore::new(&dir));
        small.step(&Parallel).unwrap();
    }
    // Different grid: restore must be a typed error, not silent misuse.
    let mut other =
        VlasovPoisson1D1V::new(32, 48, 4.0, 5.0, 3, 0.05, two_stream(1.4, 0.01, 0.5)).unwrap();
    let err = other.resume_from(&dir).unwrap_err();
    assert!(
        matches!(err, pp_advection::Error::Checkpoint { .. }),
        "{err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot missing a section, or holding a malformed one, is refused
/// before anything is assigned: the solver keeps every bit of its state.
#[test]
fn restore_without_a_valid_seed_changes_nothing() {
    let mut donor = solver();
    for _ in 0..3 {
        donor.step(&Parallel).unwrap();
    }
    let mut target = solver();
    target.set_seed(7);
    for _ in 0..2 {
        target.step(&Parallel).unwrap();
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let before = (
        target.step_index(),
        target.seed(),
        bits(target.e_field()),
        bits(target.distribution().as_slice()),
    );
    for seed in [None, Some(vec![0u8; 4])] {
        let mut s = Snapshot::new();
        s.push_matrix("f", donor.distribution());
        s.push_f64s("e_field", donor.e_field());
        s.push_u64("step", donor.step_index());
        s.push_f64("dt", 0.05);
        let what = format!("seed section {seed:?}");
        if let Some(bytes) = seed {
            s.push_bytes("seed", bytes);
        }
        assert!(target.restore(&s).is_err(), "{what}");
        let after = (
            target.step_index(),
            target.seed(),
            bits(target.e_field()),
            bits(target.distribution().as_slice()),
        );
        assert_eq!(after, before, "{what}");
    }
}

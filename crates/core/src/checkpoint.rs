//! Crash-consistent checkpoint/restart for long-running simulations.
//!
//! At the paper's scale a production run spans hours to days; node loss
//! mid-run must cost one checkpoint interval, not the whole campaign. The
//! two halves of that promise:
//!
//! * **Self-validating snapshots** — [`Snapshot`] is a versioned,
//!   length-prefixed container of named binary sections with a trailing
//!   FNV-1a checksum over the whole encoding. Truncation, bit rot and
//!   torn writes all fail [`Snapshot::decode`] loudly instead of feeding
//!   corrupt state back into the solver.
//! * **Crash-consistent storage** — [`CheckpointStore`] writes each
//!   generation to a temporary file, `fsync`s it, atomically renames it
//!   into place and `fsync`s the directory, so at every instant the
//!   directory holds only complete, valid generations. Restore walks
//!   generations newest → oldest and transparently falls back past any
//!   that fail validation.
//!
//! The store keeps the newest [`CheckpointStore::keep`] generations
//! (default 2, the `PP_CHECKPOINT_KEEP` knob): the previous generation is
//! the fallback while the next one is being written. Simulation drivers
//! (`pp-advection`'s `VlasovPoisson1D1V`) serialise their state —
//! distribution function, field, step index, time step, run seed — into a
//! [`Snapshot`] and delegate durability entirely to this module.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::{Error, Result};
use pp_portable::instrument::env::{env_path, env_usize_clamped};
use pp_portable::instrument::{counter, trace_instant, InstantKind};
use pp_portable::{Layout, Matrix};

/// Format magic + version. Bump the trailing digits on any layout change;
/// decode rejects everything it does not recognise.
const MAGIC: &[u8; 8] = b"PPSNAP01";

/// FNV-1a 64-bit over a byte stream — the same checksum family the chaos
/// harness uses for run fingerprints. Not cryptographic; it only needs to
/// catch truncation, bit rot and torn writes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn corrupt(detail: impl Into<String>) -> Error {
    Error::Checkpoint {
        detail: detail.into(),
    }
}

/// A versioned container of named binary sections.
///
/// Encoding, all integers little-endian:
///
/// ```text
/// magic "PPSNAP01" (8 bytes)
/// section count   (u64)
/// per section:
///   name length   (u64)   name bytes (UTF-8)
///   payload length(u64)   payload bytes
/// checksum        (u64)   FNV-1a of every preceding byte
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a raw byte section. A duplicate name is replaced (last
    /// write wins), so re-recording a section is idempotent.
    pub fn push_bytes(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = payload;
        } else {
            self.sections.push((name.to_string(), payload));
        }
    }

    /// Append a `u64` section.
    pub fn push_u64(&mut self, name: &str, value: u64) {
        self.push_bytes(name, value.to_le_bytes().to_vec());
    }

    /// Append an `f64` section.
    pub fn push_f64(&mut self, name: &str, value: f64) {
        self.push_bytes(name, value.to_le_bytes().to_vec());
    }

    /// Append an `f64`-slice section (bit-exact round trip).
    pub fn push_f64s(&mut self, name: &str, values: &[f64]) {
        let mut payload = Vec::with_capacity(values.len() * 8);
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.push_bytes(name, payload);
    }

    /// Append a [`Matrix`] section: shape, layout and storage bits.
    pub fn push_matrix(&mut self, name: &str, m: &Matrix) {
        let mut payload = Vec::with_capacity(17 + m.as_slice().len() * 8);
        payload.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
        payload.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
        payload.push(match m.layout() {
            Layout::Left => 0,
            Layout::Right => 1,
        });
        for v in m.as_slice() {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.push_bytes(name, payload);
    }

    /// Raw bytes of a section.
    pub fn bytes(&self, name: &str) -> Result<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
            .ok_or_else(|| corrupt(format!("missing section {name:?}")))
    }

    /// Decode a `u64` section.
    pub fn get_u64(&self, name: &str) -> Result<u64> {
        let b: [u8; 8] = self
            .bytes(name)?
            .try_into()
            .map_err(|_| corrupt(format!("section {name:?} is not a u64")))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Decode an `f64` section.
    pub fn get_f64(&self, name: &str) -> Result<f64> {
        let b: [u8; 8] = self
            .bytes(name)?
            .try_into()
            .map_err(|_| corrupt(format!("section {name:?} is not an f64")))?;
        Ok(f64::from_le_bytes(b))
    }

    /// Decode an `f64`-slice section.
    pub fn get_f64s(&self, name: &str) -> Result<Vec<f64>> {
        let b = self.bytes(name)?;
        if b.len() % 8 != 0 {
            return Err(corrupt(format!(
                "section {name:?} length {} is not a multiple of 8",
                b.len()
            )));
        }
        Ok(b.chunks_exact(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                f64::from_le_bytes(w)
            })
            .collect())
    }

    /// Decode a [`Matrix`] section.
    pub fn get_matrix(&self, name: &str) -> Result<Matrix> {
        let b = self.bytes(name)?;
        if b.len() < 17 {
            return Err(corrupt(format!("section {name:?} too short for a matrix")));
        }
        let nrows = u64::from_le_bytes(b[0..8].try_into().expect("8-byte slice")) as usize;
        let ncols = u64::from_le_bytes(b[8..16].try_into().expect("8-byte slice")) as usize;
        let layout = match b[16] {
            0 => Layout::Left,
            1 => Layout::Right,
            other => return Err(corrupt(format!("section {name:?}: bad layout tag {other}"))),
        };
        let data = b[17..].to_vec();
        let expected = nrows
            .checked_mul(ncols)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| corrupt(format!("section {name:?}: shape overflows")))?;
        if data.len() != expected {
            return Err(corrupt(format!(
                "section {name:?}: {} data bytes for a {nrows}x{ncols} matrix",
                data.len()
            )));
        }
        let values = data
            .chunks_exact(8)
            .map(|c| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                f64::from_le_bytes(w)
            })
            .collect();
        Matrix::from_vec(nrows, ncols, layout, values).map_err(|e| corrupt(e.to_string()))
    }

    /// Serialise to the on-disk byte format (checksum included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.sections.len() as u64).to_le_bytes());
        for (name, payload) in &self.sections {
            out.extend_from_slice(&(name.len() as u64).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parse and validate an encoded snapshot. Any deviation — wrong
    /// magic, truncation, trailing garbage, checksum mismatch — is an
    /// [`Error::Checkpoint`]; a successful decode implies every section
    /// is exactly as written.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < MAGIC.len() + 16 {
            return Err(corrupt(format!("{} bytes is too short", bytes.len())));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(corrupt("bad magic / unsupported version"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
        let actual = fnv1a(body);
        if stored != actual {
            return Err(corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
            )));
        }
        let mut pos = MAGIC.len();
        let read_u64 = |pos: &mut usize| -> Result<u64> {
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= body.len())
                .ok_or_else(|| corrupt("truncated length field"))?;
            let v = u64::from_le_bytes(body[*pos..end].try_into().expect("8-byte slice"));
            *pos = end;
            Ok(v)
        };
        let count = read_u64(&mut pos)?;
        let mut sections = Vec::new();
        for _ in 0..count {
            let name_len = usize::try_from(read_u64(&mut pos)?)
                .map_err(|_| corrupt("section name length overflows"))?;
            let name_end = pos
                .checked_add(name_len)
                .filter(|&e| e <= body.len())
                .ok_or_else(|| corrupt("truncated section name"))?;
            let name = std::str::from_utf8(&body[pos..name_end])
                .map_err(|_| corrupt("section name is not UTF-8"))?
                .to_string();
            pos = name_end;
            let payload_len = usize::try_from(read_u64(&mut pos)?)
                .map_err(|_| corrupt("section payload length overflows"))?;
            let payload_end = pos
                .checked_add(payload_len)
                .filter(|&e| e <= body.len())
                .ok_or_else(|| corrupt(format!("truncated payload of section {name:?}")))?;
            sections.push((name, body[pos..payload_end].to_vec()));
            pos = payload_end;
        }
        if pos != body.len() {
            return Err(corrupt(format!(
                "{} trailing byte(s) after the last section",
                body.len() - pos
            )));
        }
        Ok(Snapshot { sections })
    }
}

/// Default number of generations kept on disk: the newest plus one
/// fallback.
pub const DEFAULT_KEEP: usize = 2;

/// A directory of checkpoint generations with atomic writes and
/// corruption-tolerant restore.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    keep: usize,
}

impl CheckpointStore {
    /// A store rooted at `dir` (created on first write). Keeps
    /// `PP_CHECKPOINT_KEEP` generations if that knob is set, else
    /// [`DEFAULT_KEEP`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            dir: dir.into(),
            keep: env_usize_clamped("PP_CHECKPOINT_KEEP", 1, 1024).unwrap_or(DEFAULT_KEEP),
        }
    }

    /// The store `PP_CHECKPOINT_DIR` names, or `None` when the knob is
    /// unset (checkpointing disabled).
    pub fn from_env() -> Option<Self> {
        env_path("PP_CHECKPOINT_DIR").map(CheckpointStore::new)
    }

    /// Override the number of generations kept on disk (min 1).
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep.max(1);
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Generations kept after each write.
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Existing generations as `(step, path)`, ascending by step.
    /// Incomplete temporaries and foreign files are ignored.
    pub fn generations(&self) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?;
                let step = name
                    .strip_prefix("ckpt-")?
                    .strip_suffix(".ppsnap")?
                    .parse()
                    .ok()?;
                Some((step, path))
            })
            .collect();
        out.sort_unstable_by_key(|(step, _)| *step);
        out
    }

    /// Durably write `snapshot` as generation `step`, then prune old
    /// generations down to [`CheckpointStore::keep`].
    ///
    /// Crash consistency: the encoding goes to a temporary file first,
    /// which is `fsync`ed, atomically renamed into place, and the
    /// directory itself `fsync`ed — a crash at any point leaves either
    /// the previous generation set or the previous set plus a complete
    /// new generation, never a half-written visible file.
    pub fn write(&self, step: u64, snapshot: &Snapshot) -> Result<PathBuf> {
        let io = |stage: &'static str, e: std::io::Error| {
            corrupt(format!("{stage} in {}: {e}", self.dir.display()))
        };
        fs::create_dir_all(&self.dir).map_err(|e| io("create dir", e))?;
        let final_path = self.dir.join(format!("ckpt-{step:020}.ppsnap"));
        let tmp_path = self.dir.join(format!(".ckpt-{step:020}.tmp"));
        {
            let mut tmp = fs::File::create(&tmp_path).map_err(|e| io("create temp", e))?;
            tmp.write_all(&snapshot.encode())
                .map_err(|e| io("write temp", e))?;
            tmp.sync_all().map_err(|e| io("fsync temp", e))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io("rename", e))?;
        // Make the rename itself durable. Directory fsync can fail on
        // exotic filesystems; the data file is already safe, so treat
        // that as best-effort.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let generations = self.generations();
        if generations.len() > self.keep {
            for (_, old) in &generations[..generations.len() - self.keep] {
                // Pruning is best-effort: a leftover old generation is
                // harmless, a failed checkpoint is not.
                let _ = fs::remove_file(old);
            }
        }
        counter("checkpoint.written").inc();
        trace_instant(InstantKind::CheckpointWritten);
        Ok(final_path)
    }

    /// Restore the newest generation that validates, as
    /// `(step, snapshot)`. Corrupt generations (truncated, bit-flipped,
    /// torn) are skipped — with a `checkpoint.corrupt` count each — and
    /// the next-older one is tried; `None` means nothing restorable
    /// exists. Never panics on damaged input.
    pub fn restore_latest(&self) -> Option<(u64, Snapshot)> {
        for (step, path) in self.generations().into_iter().rev() {
            let decoded = fs::read(&path)
                .map_err(|e| corrupt(format!("read {}: {e}", path.display())))
                .and_then(|bytes| Snapshot::decode(&bytes));
            match decoded {
                Ok(snapshot) => {
                    counter("checkpoint.restored").inc();
                    trace_instant(InstantKind::CheckpointRestored);
                    return Some((step, snapshot));
                }
                Err(e) => {
                    counter("checkpoint.corrupt").inc();
                    // A corrupt generation is exactly what the fallback
                    // exists for; record it and keep walking.
                    pp_portable::instrument::fault_dump("checkpoint_corrupt", || {
                        format!("{}: {e}", path.display())
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.push_u64("step", 42);
        s.push_f64("dt", 0.05);
        s.push_f64s("field", &[1.5, -2.25, 0.0, f64::MIN_POSITIVE]);
        s.push_matrix(
            "f",
            &Matrix::from_fn(3, 4, Layout::Right, |i, j| (i * 7 + j) as f64 * 0.33 - 1.0),
        );
        s
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pp-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let s = sample();
        let decoded = Snapshot::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.get_u64("step").unwrap(), 42);
        assert_eq!(decoded.get_f64("dt").unwrap().to_bits(), 0.05_f64.to_bits());
        assert_eq!(
            decoded.get_f64s("field").unwrap(),
            vec![1.5, -2.25, 0.0, f64::MIN_POSITIVE]
        );
        let m = decoded.get_matrix("f").unwrap();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.layout(), Layout::Right);
        assert_eq!(m.get(2, 3), (2 * 7 + 3) as f64 * 0.33 - 1.0);
    }

    #[test]
    fn push_replaces_existing_section() {
        let mut s = Snapshot::new();
        s.push_u64("step", 1);
        s.push_u64("step", 2);
        assert_eq!(s.sections.len(), 1);
        assert_eq!(s.get_u64("step").unwrap(), 2);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    Snapshot::decode(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected_not_panicked() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..len]).is_err(), "len {len}");
        }
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0xAB; 7]);
        assert!(Snapshot::decode(&extended).is_err());
        assert!(Snapshot::decode(b"not a snapshot at all").is_err());
    }

    #[test]
    fn missing_and_mistyped_sections_are_typed_errors() {
        let s = sample();
        assert!(matches!(s.get_u64("absent"), Err(Error::Checkpoint { .. })));
        assert!(matches!(s.get_u64("field"), Err(Error::Checkpoint { .. })));
        assert!(matches!(s.get_matrix("dt"), Err(Error::Checkpoint { .. })));
    }

    #[test]
    fn store_rotates_and_restores_newest() {
        let dir = tmpdir("rotate");
        let store = CheckpointStore::new(&dir).with_keep(2);
        for step in [10u64, 20, 30] {
            let mut s = Snapshot::new();
            s.push_u64("step", step);
            store.write(step, &s).unwrap();
        }
        let gens = store.generations();
        assert_eq!(
            gens.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![20, 30],
            "oldest generation must be pruned"
        );
        let (step, snap) = store.restore_latest().unwrap();
        assert_eq!(step, 30);
        assert_eq!(snap.get_u64("step").unwrap(), 30);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let dir = tmpdir("fallback");
        let store = CheckpointStore::new(&dir).with_keep(3);
        for step in [1u64, 2, 3] {
            let mut s = Snapshot::new();
            s.push_u64("step", step);
            store.write(step, &s).unwrap();
        }
        let gens = store.generations();
        // Bit-flip the newest, truncate the middle: restore must land on
        // the oldest intact generation without panicking.
        let newest = &gens[2].1;
        let mut bytes = fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(newest, &bytes).unwrap();
        let middle = &gens[1].1;
        let bytes = fs::read(middle).unwrap();
        fs::write(middle, &bytes[..bytes.len() - 3]).unwrap();

        let (step, snap) = store.restore_latest().unwrap();
        assert_eq!(step, 1);
        assert_eq!(snap.get_u64("step").unwrap(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_leaves_only_ignored_temporaries() {
        let dir = tmpdir("torn");
        let store = CheckpointStore::new(&dir);
        let mut s = Snapshot::new();
        s.push_u64("step", 7);
        store.write(7, &s).unwrap();
        // Simulate a crash mid-write of the next generation: a partial
        // temp file is left behind. It must be invisible to both
        // generation listing and restore.
        fs::write(dir.join(".ckpt-00000000000000000008.tmp"), b"partial").unwrap();
        assert_eq!(store.generations().len(), 1);
        let (step, _) = store.restore_latest().unwrap();
        assert_eq!(step, 7);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_directory_restores_none() {
        let dir = tmpdir("empty");
        let store = CheckpointStore::new(&dir);
        assert!(store.restore_latest().is_none());
        fs::create_dir_all(&dir).unwrap();
        assert!(store.restore_latest().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}

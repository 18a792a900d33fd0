//! What the benchmark knows about the machine it runs on: core count,
//! cache sizes, CPU model, its own memory high-water mark and CPU time,
//! and a STREAM-triad bandwidth probe — the *measured* denominator of
//! every `*_bw_frac` figure (never a data-sheet constant).

use std::time::Instant;

/// Worker threads the benchmark gives the repo's pool: `min(nproc, 4)`.
/// Four is where the paper-sized batches stop scaling on shared hosts;
/// never more threads than cores.
pub fn bench_threads() -> usize {
    cores().min(4)
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// `"2048K"` / `"32M"` → bytes.
fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, mult) = match t.as_bytes().last()? {
        b'K' => (&t[..t.len() - 1], 1u64 << 10),
        b'M' => (&t[..t.len() - 1], 1 << 20),
        b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Size in bytes of cpu0's data/unified cache at `level`, from sysfs.
pub fn cache_bytes(level: u32) -> Option<u64> {
    (0..8).find_map(|i| {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let lvl: u32 = read(&format!("{dir}/level"))?.trim().parse().ok()?;
        let kind = read(&format!("{dir}/type"))?;
        if lvl != level || kind.trim() == "Instruction" {
            return None;
        }
        parse_cache_size(&read(&format!("{dir}/size"))?)
    })
}

/// Value of a `Key:   123 kB` line of a `/proc` status file, in bytes.
fn proc_kib_field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    let kib: u64 = line[key.len()..].split_whitespace().next()?.parse().ok()?;
    Some(kib * 1024)
}

/// `MemAvailable` in bytes.
pub fn mem_available_bytes() -> Option<u64> {
    proc_kib_field(&read("/proc/meminfo")?, "MemAvailable:")
}

/// This process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    proc_kib_field(&read("/proc/self/status")?, "VmHWM:").map(|b| b as f64 / (1 << 20) as f64)
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat`. Clock ticks are `USER_HZ`, which Linux fixes at
/// 100 on every architecture it exposes `/proc` on.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu_seconds(&read("/proc/self/stat")?)
}

fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    // Field 2 (comm) may contain spaces; everything after the last ')'
    // is space separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: u64 = fields.next()?.parse().ok()?; // field 15
    Some((utime + stime) as f64 / 100.0)
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// First line of a command's stdout, or `"unknown"` (no git checkout,
/// tool missing).
pub fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Result of the triad probe.
#[derive(Debug, Clone)]
pub struct Triad {
    /// Best pass, in GB/s of *computed* traffic (`3 · 8 · n` bytes per
    /// pass: two loads and one store, write-allocate not counted — the
    /// STREAM convention).
    pub gbs: f64,
    /// Bytes per array actually used.
    pub array_bytes: u64,
    /// Whether `MemAvailable / 8` capped the array below `4 × LLC`.
    pub capped: bool,
}

/// Bytes per triad array: four times the last-level cache so no pass
/// can be served from cache, capped at an eighth of available memory.
fn triad_array_bytes(llc: Option<u64>, mem_available: Option<u64>) -> (u64, bool) {
    // Without sysfs, assume a 64 MiB LLC: larger than any L2.
    let want = 4 * llc.unwrap_or(64 << 20);
    match mem_available {
        Some(avail) if avail / 8 < want => (avail / 8, true),
        _ => (want, false),
    }
}

/// STREAM triad `a[i] = b[i] + s·c[i]` on `threads` threads, each owning
/// one contiguous slice (first-touched by its owner). One untimed pass,
/// then `passes` timed ones; the best is the sustainable figure.
///
/// `array_bytes: None` sizes the arrays from the last-level cache;
/// `Some` overrides it (smoke runs and tests — not a bandwidth figure).
pub fn triad(threads: usize, passes: usize, array_bytes: Option<u64>) -> Triad {
    let llc = cache_bytes(3).or_else(|| cache_bytes(2));
    let (array_bytes, capped) = match array_bytes {
        Some(bytes) => (bytes, false),
        None => triad_array_bytes(llc, mem_available_bytes()),
    };
    let mut out = triad_sized(threads, passes, (array_bytes / 8) as usize);
    out.capped = capped;
    out
}

fn triad_sized(threads: usize, passes: usize, n: usize) -> Triad {
    let threads = threads.max(1);
    let n = n.max(threads);
    let mut a = vec![0.0f64; n];
    let mut b = vec![0.0f64; n];
    let mut c = vec![0.0f64; n];
    let chunk = n.div_ceil(threads);
    let scalar = 3.0;
    let mut best_ns = u64::MAX;
    for pass in 0..=passes {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(c.chunks_mut(chunk))
            {
                scope.spawn(move || {
                    if pass == 0 {
                        // First touch by the owning thread.
                        b.fill(1.0);
                        c.fill(2.0);
                    }
                    for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                        *a = *b + scalar * *c;
                    }
                });
            }
        });
        if pass > 0 {
            best_ns = best_ns.min(t0.elapsed().as_nanos() as u64);
        }
    }
    assert!(
        a.iter().step_by(4099).all(|&v| v == 7.0),
        "triad result wrong"
    );
    std::hint::black_box(&a);
    Triad {
        gbs: (3 * 8 * n) as f64 / best_ns.max(1) as f64,
        array_bytes: (8 * n) as u64,
        capped: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("2048K"), Some(2 << 20));
        assert_eq!(parse_cache_size("32M"), Some(32 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("bigK"), None);
    }

    #[test]
    fn proc_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(proc_kib_field(status, "VmHWM:"), Some(2048 * 1024));
        assert_eq!(proc_kib_field(status, "VmSwap:"), None);
    }

    #[test]
    fn stat_cpu_time_survives_spaces_in_comm() {
        let stat = "42 (step bench) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 3 0 100";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(2.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
    }

    #[test]
    fn triad_sizing_uses_four_times_llc_and_states_the_cap() {
        assert_eq!(
            triad_array_bytes(Some(8 << 20), Some(1 << 40)),
            (32 << 20, false)
        );
        assert_eq!(
            triad_array_bytes(Some(256 << 20), Some(2 << 30)),
            (256 << 20, true)
        );
        assert_eq!(triad_array_bytes(None, None), (256 << 20, false));
    }

    #[test]
    fn triad_runs_and_reports_positive_bandwidth() {
        let t = triad_sized(2, 2, 1 << 16);
        assert!(t.gbs > 0.0);
        assert_eq!(t.array_bytes, 8 << 16);
    }

    #[test]
    fn this_process_has_a_memory_high_water_mark() {
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
        assert!(cpu_seconds().is_some());
        assert!(bench_threads() >= 1 && bench_threads() <= 4);
    }
}

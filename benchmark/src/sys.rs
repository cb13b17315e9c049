//! What the harness reads from the operating system: CPU time and peak
//! memory of its own process from `/proc`, and where its files go.

use std::path::{Path, PathBuf};

/// Kernel clock ticks per second behind `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 on every Linux architecture Rust targets).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of this process so far, threads that have
/// exited included, to the kernel's 10 ms tick.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("Linux /proc is mounted");
    parse_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime") / TICKS_PER_S
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is mounted");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

/// Cores the harness may use.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The benchmark's own directory (where `Cargo.toml` and `expected/` are).
#[must_use]
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where results and traces are written (`benchmark/out`, git-ignored).
#[must_use]
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A scratch directory under [`out_dir`] that is removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `out/tmp.<pid>.<tag>`, empty.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = out_dir().join(format!("tmp.{}.{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here; the directory
        // is git-ignored and the next run under the same pid clears it.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size in bytes of the regular files under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_counted_from_the_last_parenthesis() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 7 3 20 0 1 0 100 1000 10";
        assert_eq!(parse_cpu_ticks(stat), Some(300.0));
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_has_cpu_time_memory_and_a_core() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn scratch_is_created_measured_and_removed() {
        let path = {
            let s = Scratch::new("systest").unwrap();
            std::fs::write(s.path().join("a"), b"12345").unwrap();
            std::fs::create_dir(s.path().join("d")).unwrap();
            std::fs::write(s.path().join("d/b"), b"123").unwrap();
            assert_eq!(dir_bytes(s.path()), 8);
            s.path().to_owned()
        };
        assert!(!path.exists());
    }
}

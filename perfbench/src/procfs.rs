//! Readers for the `/proc` counters the benchmark takes from outside a
//! process: CPU time, context switches, peak RSS and filesystem types.
//! The parsers take text so they can be tested on fixtures.

use std::path::Path;
use std::sync::OnceLock;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/PID/stat` (`USER_HZ`, fixed at 100 on Linux).
pub const USER_HZ: u64 = 100;

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User and system time in clock ticks (`stat`: every thread of the
    /// process, those that have exited included).
    pub utime: u64,
    /// See `utime`.
    pub stime: u64,
    /// Voluntary and involuntary context switches (`status`).
    pub voluntary: u64,
    /// See `voluntary`.
    pub nonvoluntary: u64,
    /// Peak resident set size in KiB (`VmHWM`).
    pub hwm_kb: u64,
}

impl ProcSample {
    /// Read every counter of process `pid` (`"self"` for this process).
    pub fn read(pid: &str) -> Result<ProcSample, String> {
        let read = |file: &str| {
            std::fs::read_to_string(format!("/proc/{pid}/{file}"))
                .map_err(|e| format!("reading /proc/{pid}/{file}: {e}"))
        };
        let (utime, stime) =
            parse_stat(&read("stat")?).ok_or_else(|| format!("unparsable /proc/{pid}/stat"))?;
        let status = parse_status(&read("status")?)
            .ok_or_else(|| format!("unparsable /proc/{pid}/status"))?;
        Ok(ProcSample {
            utime,
            stime,
            ..status
        })
    }

    /// Counter growth from `earlier` to `self` (peak RSS is taken as is).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            nonvoluntary: self.nonvoluntary.saturating_sub(earlier.nonvoluntary),
            hwm_kb: self.hwm_kb,
        }
    }

    /// Add `other`'s counters into `self`, keeping the larger peak RSS.
    pub fn accumulate(&mut self, other: &ProcSample) {
        self.utime += other.utime;
        self.stime += other.stime;
        self.voluntary += other.voluntary;
        self.nonvoluntary += other.nonvoluntary;
        self.hwm_kb = self.hwm_kb.max(other.hwm_kb);
    }

    /// User plus system time in microseconds.
    pub fn cpu_us(&self) -> f64 {
        (self.utime + self.stime) as f64 * 1e6 / USER_HZ as f64
    }
}

/// `(utime, stime)` in clock ticks from `/proc/PID/stat`.  The command
/// name may hold spaces and parentheses, so fields are counted from the
/// last `)`: utime and stime are fields 14 and 15 of the line.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); fields 14 and 15 are at 11 and 12.
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Peak RSS and context switches from `/proc/PID/status`.
pub fn parse_status(text: &str) -> Option<ProcSample> {
    let field = |key: &str| -> Option<u64> {
        let line = text.lines().find(|l| l.starts_with(key))?;
        line[key.len()..].split_whitespace().next()?.parse().ok()
    };
    Some(ProcSample {
        hwm_kb: field("VmHWM:")?,
        voluntary: field("voluntary_ctxt_switches:")?,
        nonvoluntary: field("nonvoluntary_ctxt_switches:")?,
        ..ProcSample::default()
    })
}

/// The filesystem type of the mount that holds `path` (already made
/// absolute), from `/proc/self/mountinfo` text: the mount point that is
/// the longest prefix of the path wins.
pub fn fs_type_in(mountinfo: &str, path: &Path) -> Option<String> {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> [tags] - <fstype> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (
            left.split_whitespace().nth(4),
            right.split_whitespace().next(),
        ) else {
            continue;
        };
        let mount_point = unescape_octal(mount);
        if path.starts_with(&mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
}

/// The filesystem type holding `path` on the running host.
pub fn fs_type(path: &Path) -> Result<String, String> {
    let abs = path
        .canonicalize()
        .map_err(|e| format!("resolving {}: {e}", path.display()))?;
    let info = std::fs::read_to_string("/proc/self/mountinfo")
        .map_err(|e| format!("reading /proc/self/mountinfo: {e}"))?;
    fs_type_in(&info, &abs).ok_or_else(|| format!("no mount holds {}", abs.display()))
}

/// True for filesystems kept in memory, where fsync costs nothing.
pub fn is_memory_fs(fstype: &str) -> bool {
    matches!(fstype, "tmpfs" | "ramfs")
}

/// Undo mountinfo's octal escapes (`\040` for a space, and so on).
fn unescape_octal(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'\\' && i + 4 <= b.len() {
            if let Ok(v) = u8::from_str_radix(&s[i + 1..i + 4], 8) {
                out.push(v);
                i += 4;
                continue;
            }
        }
        out.push(b[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock of the calling process's CPU time, all threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used, all its threads, in nanoseconds.
/// Unlike the clock ticks of `/proc/self/stat` it resolves a single call.
pub fn process_cpu_ns() -> Result<u64, String> {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, exclusively borrowed struct laid out as the
    // kernel's 64-bit `struct timespec`, which the call only writes.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return Err(format!(
            "reading the process CPU clock: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64)
}

/// A set of CPUs, as the kernel's affinity mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// The CPUs `cpus`; those beyond the mask's 1024 are left out.
    pub fn of(cpus: impl IntoIterator<Item = usize>) -> CpuSet {
        let mut mask = [0u64; 16];
        for cpu in cpus.into_iter().filter(|&c| c < 16 * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        CpuSet(mask)
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> std::io::Result<CpuSet> {
        let mut mask = [0u64; 16];
        // SAFETY: the mask is a live, exclusively borrowed array of the
        // size passed with it, which the kernel only writes; pid 0 names
        // the calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(CpuSet(mask))
    }

    /// The CPUs in the set, lowest first.
    pub fn cpus(&self) -> Vec<usize> {
        (0..16 * 64)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Restrict the calling thread to this set.  Threads and processes it
    /// starts afterwards inherit the restriction.  It makes one system
    /// call and allocates nothing on success, so a forked child may call
    /// it before `exec`.
    pub fn apply(&self) -> std::io::Result<()> {
        // SAFETY: the mask is a live array of the size passed with it,
        // which the kernel only reads; pid 0 names the calling thread.
        if unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }
}

/// Where a serve workload runs: `(generator, daemon)`.  The generator has
/// the lowest CPU the process may use to itself, and the daemon (or the
/// traced host's io loop) gets all the others, so neither waits for the
/// other's time slice and a daemon with more threads has room for them.
/// On one CPU they share it.  The split is made from the CPUs allowed at
/// the first call, before the generator pins itself, and kept.
pub fn split_cpus() -> (CpuSet, CpuSet) {
    static SPLIT: OnceLock<(CpuSet, CpuSet)> = OnceLock::new();
    *SPLIT.get_or_init(|| {
        let allowed = CpuSet::allowed().map_or_else(|_| vec![0], |s| s.cpus());
        split_of(&allowed)
    })
}

fn split_of(allowed: &[usize]) -> (CpuSet, CpuSet) {
    let generator = CpuSet::of(allowed.first().copied());
    match allowed {
        [_, rest @ ..] if !rest.is_empty() => (generator, CpuSet::of(rest.iter().copied())),
        _ => (generator, generator),
    }
}

/// `(steal, total)` clock ticks of all CPUs since boot, from the `cpu`
/// line of `/proc/stat` text: time the host's CPUs were runnable but
/// held by the hypervisor, against all time.
pub fn parse_cpu_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The running host's `(steal, total)` CPU ticks since boot.
pub fn cpu_steal() -> Option<(u64, u64)> {
    parse_cpu_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// The share of CPU time stolen between two `cpu_steal` readings; 0 when
/// either is missing.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) => {
            b.0.saturating_sub(a.0) as f64 / b.1.saturating_sub(a.1).max(1) as f64
        }
        _ => 0.0,
    }
}

/// The running kernel's release string.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (redundancy (x)) S 1 4242 4242 0 -1 4194304 \
        1523 0 0 0 37 251 0 0 20 0 1 0 98765 123456789 2048 \
        18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tredundancy\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  100000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t   80000 kB\n\
        Threads:\t1\nvoluntary_ctxt_switches:\t14023\nnonvoluntary_ctxt_switches:\t87\n";

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        assert_eq!(parse_stat(STAT), Some((37, 251)));
        assert_eq!(parse_stat("1 (x) S 1"), None);
        let s = ProcSample {
            utime: 37,
            stime: 251,
            ..ProcSample::default()
        };
        assert_eq!(s.cpu_us(), 2_880_000.0);
    }

    #[test]
    fn status_gives_peak_rss_and_switches() {
        let s = parse_status(STATUS).unwrap();
        assert_eq!((s.hwm_kb, s.voluntary, s.nonvoluntary), (81234, 14023, 87));
        assert_eq!(parse_status("Name:\tx\n"), None);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_ns().unwrap();
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(5) {
            std::hint::black_box(0);
        }
        assert!(process_cpu_ns().unwrap() > before);
    }

    #[test]
    fn cpu_sets_are_affinity_masks() {
        let s = CpuSet::of([0, 3, 64, 5000]);
        assert_eq!(s.0[0], 0b1001);
        assert_eq!(s.0[1], 1);
        assert!(s.0[2..].iter().all(|&w| w == 0));
        assert_eq!(s.cpus(), vec![0, 3, 64]);
        assert!(!CpuSet::allowed().unwrap().cpus().is_empty());
    }

    #[test]
    fn the_generator_takes_the_lowest_cpu_and_the_daemon_the_rest() {
        assert_eq!(split_of(&[2, 5, 7]), (CpuSet::of([2]), CpuSet::of([5, 7])));
        assert_eq!(split_of(&[3]), (CpuSet::of([3]), CpuSet::of([3])));
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  36316 0 15361 536819 6160 0 6041 10149 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(
            parse_cpu_steal(stat),
            Some((10149, 36316 + 15361 + 536819 + 6160 + 6041 + 10149))
        );
        assert_eq!(parse_cpu_steal("cpu0 1 2\n"), None);
        assert_eq!(steal_share(Some((10, 100)), Some((15, 200))), 0.05);
        assert_eq!(steal_share(None, Some((15, 200))), 0.0);
    }

    #[test]
    fn longest_mount_prefix_names_the_filesystem() {
        let info = "23 28 0:22 / /proc rw,relatime - proc proc rw\n\
            28 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
            30 28 0:30 / /tmp rw,nosuid - tmpfs tmpfs rw\n\
            31 28 0:31 / /mnt/my\\040disk rw - xfs /dev/vdb rw\n";
        let t = |p: &str| fs_type_in(info, Path::new(p));
        assert_eq!(
            t("/home/user/project/perfbench/.work").as_deref(),
            Some("ext4")
        );
        assert_eq!(t("/tmp/x").as_deref(), Some("tmpfs"));
        assert_eq!(t("/tmpfoo").as_deref(), Some("ext4"));
        assert_eq!(t("/mnt/my disk/j").as_deref(), Some("xfs"));
        assert!(is_memory_fs("tmpfs") && !is_memory_fs("ext4"));
    }
}

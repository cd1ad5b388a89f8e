//! CPU time, peak memory and file-system type of a process, from `/proc`.
//!
//! The parsers take text so the unit tests can feed them canned files.

use std::path::Path;

/// Kernel clock ticks per second (`USER_HZ`). Fixed at 100 on every Linux
/// ABI this benchmark runs on; `sysconf` would need a libc binding.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds from one `/proc/<pid>/stat` line.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    /// User + system time of the process itself.
    pub own_s: f64,
    /// User + system time of its waited-for children.
    pub children_s: f64,
}

/// Parses a `/proc/<pid>/stat` line. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| fields.get(field - 3)?.parse::<f64>().ok();
    Some(CpuTimes {
        own_s: (ticks(14)? + ticks(15)?) / TICKS_PER_S,
        children_s: (ticks(16)? + ticks(17)?) / TICKS_PER_S,
    })
}

/// Parses `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The file-system type holding `path`, from `/proc/mounts` text: the mount
/// point that is the longest prefix of `path` wins.
pub fn parse_fs_type(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
}

/// CPU times of this process.
pub fn self_cpu() -> CpuTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| parse_stat(&text))
        .unwrap_or_default()
}

/// Peak resident set of process `pid` in kB, while it is alive.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    parse_vm_hwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// File-system type holding `path` (`ext4`, `tmpfs`, …), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| parse_fs_type(&mounts, path))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "4242 (fei (weird) name) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    157 43 1200 300 20 0 3 0 123456 1000000 500 18446744073709551615";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(cpu.own_s, 2.0);
        assert_eq!(cpu.children_s, 15.0);
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tfei\nVmPeak:\t  999 kB\nVmHWM:\t   73216 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(73216));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\n"), None);
    }

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n\
                      overlay /work overlay rw 0 0\n";
        let fs = |p: &str| parse_fs_type(mounts, Path::new(p));
        assert_eq!(fs("/dev/shm/bench/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/root/repo").as_deref(), Some("ext4"));
        assert_eq!(fs("/work/a").as_deref(), Some("overlay"));
        assert_eq!(parse_fs_type("", Path::new("/x")), None);
    }
}

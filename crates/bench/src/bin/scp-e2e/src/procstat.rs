//! Process CPU time and peak resident memory, read from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100
/// on every Linux target this repository builds for; reading it
/// properly needs `sysconf`, which needs `libc`.
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds of this process and its threads
/// (fields 14 and 15 of `/proc/self/stat`).
pub(crate) fn cpu_seconds() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&text)
        .map(|ticks| ticks as f64 / TICKS_PER_SEC)
        .ok_or_else(|| "/proc/self/stat: no utime/stime fields".to_owned())
}

/// `utime + stime` from one `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces and parentheses, so fields are counted from
/// the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let (_, rest) = stat.rsplit_once(')')?;
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let text =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&text)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_owned())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (scp e2e) x) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 6 0 100 1 2";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tscp-e2e\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name: x\n"), None);
    }

    #[test]
    fn live_process_reports_both() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

//! CPU time and peak memory of a run, read from `/proc`. The parsers
//! take text, so fixtures test them; the readers add the file access.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. Linux has exposed
/// `USER_HZ = 100` to user space on every architecture for two decades;
/// the standard library offers no `sysconf`, and the value only scales a
/// metric that is compared against itself.
const TICKS_PER_S: f64 = 100.0;

/// The fields of one `/proc/<pid>/stat` line the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    pub ppid: u32,
    /// User + system ticks of the process itself.
    pub own_ticks: u64,
    /// User + system ticks of children it has waited for.
    pub reaped_ticks: u64,
}

/// Parses a `/proc/<pid>/stat` line. The command name sits in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<ProcStat> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // After the name: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime cutime cstime …
    let tick = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some(ProcStat {
        ppid: fields.get(1)?.parse().ok()?,
        own_ticks: tick(11)? + tick(12)?,
        reaped_ticks: tick(13)? + tick(14)?,
    })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`,
/// in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Parses the first `model name` of `/proc/cpuinfo`.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_owned())
}

fn read_stat(pid: u32) -> Option<ProcStat> {
    parse_stat(&fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Live direct children of this process (the shard servers a distributed
/// run spawns). A child that exits between the directory scan and the
/// read simply drops out.
fn live_children() -> Vec<(u32, ProcStat)> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter_map(|pid| Some((pid, read_stat(pid)?)))
        .filter(|(_, stat)| stat.ppid == me)
        .collect()
}

/// CPU seconds consumed so far by this process, the children it has
/// reaped and the children still running. Take it before and after a
/// window and subtract.
pub fn cpu_seconds() -> f64 {
    let own = read_stat(std::process::id())
        .map(|s| s.own_ticks + s.reaped_ticks)
        .unwrap_or(0);
    let children: u64 = live_children().iter().map(|(_, s)| s.own_ticks).sum();
    (own + children) as f64 / TICKS_PER_S
}

/// Peak resident memory of this process plus its live children, in MiB.
pub fn peak_rss_mib() -> f64 {
    let hwm = |pid: u32| {
        fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| parse_vm_hwm_kib(&s))
            .unwrap_or(0)
    };
    let children: u64 = live_children().iter().map(|&(pid, _)| hwm(pid)).sum();
    (hwm(std::process::id()) + children) as f64 / 1024.0
}

pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_a_hostile_command_name() {
        let line = "4242 (bench (v2) x) S 17 4242 4242 0 -1 4194304 \
                    901 0 0 0 150 25 30 5 20 0 3 0 1000 2000000 300 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(line),
            Some(ProcStat {
                ppid: 17,
                own_ticks: 175,
                reaped_ticks: 35,
            })
        );
    }

    #[test]
    fn truncated_stat_line_is_rejected() {
        assert_eq!(parse_stat("1 (init) S 0 1 1"), None);
        assert_eq!(parse_stat("no parens here"), None);
    }

    #[test]
    fn vm_hwm_is_found_among_the_other_lines() {
        let status =
            "Name:\tbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   4096 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51200));
        assert_eq!(parse_vm_hwm_kib("Name:\tkthreadd\n"), None);
    }

    #[test]
    fn cpu_model_is_the_first_listed() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Example CPU @ 2.00GHz\n\
                       processor\t: 1\nmodel name\t: Other\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Example CPU @ 2.00GHz")
        );
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}

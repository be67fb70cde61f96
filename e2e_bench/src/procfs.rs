//! Reading a process's memory peak and CPU time from `/proc/<pid>`.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (Linux's
/// fixed `USER_HZ`).
pub const TICKS_PER_SECOND: f64 = 100.0;

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(value)
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) is parenthesized and may itself contain
/// spaces or parentheses, so fields are counted after the **last** `)`:
/// the first word there is field 3 (state), so `utime` (field 14) and
/// `stime` (field 15) are the 12th and 13th words.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let words: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = words.get(11)?.parse().ok()?;
    let stime: u64 = words.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// CPU seconds (user + system) process `pid` has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_SECOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_from_status() {
        let status =
            "Name:\te2e_bench\nVmPeak:\t  220000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(51_234));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t x kB\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_even_with_parens_in_the_name() {
        // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt
        // majflt cmajflt utime stime ...
        let stat = "4242 (we ird) name)) S 1 4242 4242 0 -1 4194560 900 0 0 0 157 23 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ticks(stat), Some(180));
        assert_eq!(parse_cpu_ticks("12 (x) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parens here"), None);
    }

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(peak_rss_mib(me).is_some_and(|m| m > 0.0));
        assert!(cpu_seconds(me).is_some_and(|s| s >= 0.0));
    }
}

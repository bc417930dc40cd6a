//! What the harness observes about processes from outside: CPU time,
//! peak memory, context switches and I/O syscalls out of `/proc/<pid>/`.

use std::fs;

/// Kernel clock ticks per second as exported to user space (`USER_HZ`);
/// fixed at 100 on Linux whatever the kernel's internal `HZ`.
const USER_HZ: f64 = 100.0;

/// `utime + stime` in milliseconds from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so the
/// fields are counted from the *last* closing parenthesis.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state(3) ... utime(14) stime(15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// The integer value of a `Key:   123 kB`-style line in
/// `/proc/<pid>/status` or `/proc/<pid>/io` (unit suffix ignored).
pub fn parse_keyed_u64(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

fn read(pid: u32, file: &str) -> Option<String> {
    fs::read_to_string(format!("/proc/{pid}/{file}")).ok()
}

/// CPU milliseconds consumed so far by `pid` (all threads, including
/// exited ones); 0 when the process is gone.
pub fn cpu_ms(pid: u32) -> f64 {
    read(pid, "stat")
        .and_then(|s| parse_stat_cpu_ms(&s))
        .unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of `pid` in MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    read(pid, "status")
        .and_then(|s| parse_keyed_u64(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Voluntary plus involuntary context switches of `pid`'s main thread.
pub fn ctx_switches(pid: u32) -> u64 {
    read(pid, "status").map_or(0, |s| {
        parse_keyed_u64(&s, "voluntary_ctxt_switches").unwrap_or(0)
            + parse_keyed_u64(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
    })
}

/// Read plus write syscalls issued by `pid` (`syscr + syscw`); 0 when the
/// kernel withholds `/proc/<pid>/io`.
pub fn io_syscalls(pid: u32) -> u64 {
    read(pid, "io").map_or(0, |s| {
        parse_keyed_u64(&s, "syscr").unwrap_or(0) + parse_keyed_u64(&s, "syscw").unwrap_or(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_command_names() {
        let stat = "4242 (mobi (eyes) serve) S 1 4242 4242 0 -1 4194304 \
                    120 0 0 0 250 50 0 0 20 0 3 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(3000.0));
        assert_eq!(parse_stat_cpu_ms("garbage"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2"), None);
    }

    #[test]
    fn keyed_fields_parse_with_and_without_units() {
        let status = "Name:\tx\nVmHWM:\t   20480 kB\nvoluntary_ctxt_switches:\t7\n\
                      nonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(parse_keyed_u64(status, "VmHWM"), Some(20480));
        assert_eq!(parse_keyed_u64(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(
            parse_keyed_u64(status, "nonvoluntary_ctxt_switches"),
            Some(5)
        );
        assert_eq!(parse_keyed_u64(status, "VmPeak"), None);
        let io = "rchar: 10\nwchar: 20\nsyscr: 3\nsyscw: 4\n";
        assert_eq!(parse_keyed_u64(io, "syscr"), Some(3));
        assert_eq!(parse_keyed_u64(io, "syscw"), Some(4));
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(peak_rss_mb(me) > 0.0);
        assert!(cpu_ms(me) >= 0.0);
        assert_eq!(cpu_ms(u32::MAX), 0.0);
    }
}

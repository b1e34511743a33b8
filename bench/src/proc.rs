//! Process CPU time and peak memory from `/proc`.

use std::fs;

/// Kernel clock ticks per second. `USER_HZ` is 100 on every Linux ABI this
/// runs on; without a libc binding there is no `sysconf` to ask.
const TICKS_PER_S: u64 = 100;

/// User + system CPU nanoseconds from a `/proc/<pid>/stat` line, summed
/// over every thread of the process. The command name (field 2) may hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_ns(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // after the name: state is field 3, utime field 14, stime field 15
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / TICKS_PER_S))
}

/// Peak resident set in MB from `/proc/<pid>/status` (`VmHWM`, in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU nanoseconds this process has used so far.
pub fn cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ns(&stat).expect("utime and stime in /proc/self/stat")
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_peak_rss_mb(&status).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_survive_a_hostile_command_name() {
        let stat = "4242 (eden perf) x) R 1 4242 4242 0 -1 4194304 1000 0 0 0 \
                    731 19 0 0 20 0 1 0 123456 1000000 500 18446744073709551615";
        // utime 731 + stime 19 ticks of 10 ms
        assert_eq!(parse_cpu_ns(stat), Some(7_500_000_000));
        assert_eq!(parse_cpu_ns("no paren"), None);
        assert_eq!(parse_cpu_ns("1 (x) R 1 2"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        let status =
            "Name:\teden-perf\nVmPeak:\t  900000 kB\nVmHWM:\t  153600 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(150.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 5 kB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let before = cpu_ns();
        let mut x = 1u64;
        while cpu_ns() == before {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(cpu_ns() > before);
    }
}

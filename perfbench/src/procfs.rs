//! Readers for the process counters under `/proc/self`.

use std::fs;

/// CPU seconds the main thread (which runs every pass) has spent on a
/// CPU, from the first field of `/proc/self/schedstat`. The user and
/// system times of `/proc/self/stat` count in 10 ms ticks, too coarse
/// for passes of a tenth of a second; this counter is in nanoseconds.
pub fn cpu_seconds() -> f64 {
    let text = fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    parse_schedstat_ns(&text).map_or(0.0, |ns| ns as f64 / 1e9)
}

/// On-CPU nanoseconds from a `schedstat` line: `run_ns wait_ns slices`.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// One `Key:   value` field of `/proc/self/status`, as its leading number
/// (kB for the memory fields).
pub fn status_field(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_field(&status, key).unwrap_or(0)
}

/// [`status_field`] over an already-read status text.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Resident set size now, in kB.
pub fn rss_kb() -> u64 {
    status_field("VmRSS")
}

/// Peak resident set size of the process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> u64 {
    status_field("VmHWM")
}

/// Times the scheduler took the CPU away from this process.
pub fn nonvoluntary_switches() -> u64 {
    status_field("nonvoluntary_ctxt_switches")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_gives_run_time_in_ns() {
        assert_eq!(parse_schedstat_ns("499808 1200 3\n"), Some(499_808));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn status_fields_parse_their_leading_number() {
        let status = "VmHWM:\t  51200 kB\nVmRSS:\t  4096 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(51_200));
        assert_eq!(parse_status_field(status, "VmRSS"), Some(4_096));
        assert_eq!(parse_status_field(status, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn live_counters_are_readable() {
        assert!(peak_rss_kb() > 0);
        assert!(cpu_seconds() > 0.0);
        assert!(rss_kb() > 0);
    }
}

//! Process facts from `/proc`: peak resident set and scheduler wait.

/// Peak resident set (`VmHWM`) of a process, in KiB; 0 when unreadable.
pub fn peak_rss_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// `(on-CPU ns, run-queue wait ns)` summed over every thread of a process,
/// from `/proc/<pid>/task/*/schedstat`.
pub fn schedstat(pid: u32) -> (u64, u64) {
    let mut run = 0;
    let mut wait = 0;
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(t.path().join("schedstat")) {
                let mut f = s.split_whitespace().map(|v| v.parse::<u64>().unwrap_or(0));
                run += f.next().unwrap_or(0);
                wait += f.next().unwrap_or(0);
            }
        }
    }
    (run, wait)
}

/// Resets this process's peak resident set to its current one (Linux
/// `clear_refs` mode 5), so the next [`peak_rss_kb`] reads the peak of what
/// ran in between.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

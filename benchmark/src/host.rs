//! The host fingerprint printed beside every number, and this process's
//! memory figures from `/proc`.

/// What the numbers were measured on. `rustc` and `commit` are gathered by
/// `run.sh` (the harness spawns nothing) and passed in the environment.
#[derive(Clone, Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Host {
            nproc: nowlab_core::default_jobs(),
            cpu,
            rustc: env("NOWLAB_BENCH_RUSTC"),
            commit: env("NOWLAB_BENCH_COMMIT"),
        }
    }

    /// The fingerprint as a JSON object (quotes and backslashes dropped
    /// from the free-text fields).
    pub fn json(&self) -> String {
        let clean = |s: &str| -> String { s.chars().filter(|&c| c != '"' && c != '\\').collect() };
        format!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc,
            clean(&self.cpu),
            clean(&self.rustc),
            clean(&self.commit)
        )
    }
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
            self.nproc, self.cpu, self.rustc, self.commit
        )
    }
}

/// One `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("/proc/self/status has no {field} line"))
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Current resident set size of this process, MiB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}

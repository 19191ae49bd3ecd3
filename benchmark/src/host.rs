//! The host description that goes with every measurement.

use std::path::Path;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// Filesystem type of the scratch directory (store roots, journals).
    pub scratch_fs: String,
    pub rustc: &'static str,
    /// Given with `--commit` (the checkout a driver runs in has no `.git`).
    pub commit: String,
}

impl Host {
    pub fn probe(scratch: &Path, commit: &str) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            scratch_fs: fs_type(scratch),
            rustc: env!("CABA_BENCH_RUSTC"),
            commit: commit.to_string(),
        }
    }

    pub fn to_json(&self) -> String {
        use caba_stats::json::escape;
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"scratch_fs\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.scratch_fs),
            escape(self.rustc),
            escape(&self.commit)
        )
    }
}

/// The type of the mount that holds `path`: the longest mount point in
/// `/proc/self/mounts` that is a prefix of it.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_dev, point, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), ty))
        })
        .max()
        .map_or("unknown".to_string(), |(_, ty)| ty.to_string())
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_record_is_json_and_rss_is_read() {
        let h = Host::probe(Path::new("."), "abc123");
        caba_stats::json::validate(&h.to_json()).expect("host record is JSON");
        assert!(h.nproc >= 1);
        assert!(h.rustc.starts_with("rustc"));
        assert!(peak_rss_mb() > 0.0);
    }
}

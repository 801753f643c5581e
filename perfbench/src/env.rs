//! The environment fingerprint recorded with every result, and the
//! process's peak resident memory.

use std::path::Path;

/// Worker threads the benchmark uses: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the enclosing git checkout, or `unknown` outside one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                let line = packed.lines().find(|l| l.ends_with(reference))?;
                line.split_whitespace().next().map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha.into()
    }
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or("unknown".into(), |(_, m)| m.trim().to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// The filesystem type of the mount holding `dir` (longest mount prefix).
fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, kind)| kind)
}

/// Whether integer overflow panics in this build (`overflow-checks`).
fn overflow_checks() -> bool {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let panicked =
        std::panic::catch_unwind(|| std::hint::black_box(u64::MAX) + std::hint::black_box(1))
            .is_err();
    std::panic::set_hook(hook);
    panicked
}

/// The fingerprint as a JSON object.
pub fn fingerprint(store_dir: &Path) -> serde::Value {
    serde_json::json!({
        "commit": commit(),
        "nproc": nproc(),
        "cpu": cpu_model(),
        "rustc": rustc_version(),
        "store_fs": fs_type(store_dir),
        "overflow_checks": overflow_checks()
    })
}

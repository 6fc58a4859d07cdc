//! Host fingerprint and process memory: records are compared only within one host class.

use std::path::Path;
use std::process::Command;

/// Host parallelism; every USF instance of the benchmark gets this many virtual cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// NUMA nodes as the USF stack detects them.
pub fn numa_nodes() -> usize {
    usf_nosv::Topology::detect().num_numa_nodes()
}

/// The fingerprint as one JSON object: nproc, NUMA nodes, `rustc -V`, the git commit when
/// the benchmark runs in a git checkout (else null), and a digest of the sources built.
pub fn fingerprint_json() -> String {
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .map_or("null".to_string(), |c| format!("\"{c}\""));
    format!(
        "{{\"nproc\":{},\"numa_nodes\":{},\"rustc\":\"{}\",\"commit\":{},\"source_digest\":\"{:016x}\"}}",
        nproc(),
        numa_nodes(),
        rustc.replace('"', "'"),
        commit,
        source_digest()
    )
}

/// First line of a command's standard output; `None` if it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds, in path order:
/// identifies the code measured where no git commit is available.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            feed(&bytes);
        }
    }
    h
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

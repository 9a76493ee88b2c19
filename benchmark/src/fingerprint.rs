//! The host fingerprint printed with every result, so numbers from
//! different machines or build settings are never compared by accident.

use std::process::Command;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// CPU model string (`model name` in `/proc/cpuinfo`).
    pub cpu_model: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Threads in the library's rayon pool.
    pub rayon_threads: usize,
    /// Effective rustflags of the build (environment or `.cargo/config.toml`).
    pub rustflags: String,
    /// Whether the build may use FMA and AVX2 (the native build does, the
    /// portable one does not; FMA changes the SoA kernels' bits).
    pub target_features: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, suffixed `-dirty` when the
    /// working tree has changes, or a note that it is not a checkout.
    pub git_rev: String,
}

/// Hardware threads available to this process (at least 1).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `HEAD` of the git repository rooted at the working directory, marked
/// dirty when the working tree differs from it. A checkout that is not
/// itself a repository reports none, even inside another one.
fn git_rev() -> String {
    let root = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    git(&["rev-parse", "--show-toplevel", "HEAD"])
        .and_then(|out| {
            let (top, rev) = out.trim().split_once('\n')?;
            let top = std::path::Path::new(top).canonicalize().ok();
            (top.is_some() && top == root).then(|| rev.trim().to_string())
        })
        .map(|rev| {
            // A status that cannot be read is not known to be clean.
            let status = git(&["status", "--porcelain"]).unwrap_or_else(|| "?".to_string());
            rev_label(&rev, &status)
        })
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// `rev`, with `-dirty` appended when `git status --porcelain` printed
/// anything.
pub fn rev_label(rev: &str, porcelain: &str) -> String {
    if porcelain.trim().is_empty() {
        rev.to_string()
    } else {
        format!("{rev}-dirty")
    }
}

fn target_features() -> String {
    let mut on = Vec::new();
    if cfg!(target_feature = "fma") {
        on.push("fma");
    }
    if cfg!(target_feature = "avx2") {
        on.push("avx2");
    }
    if cfg!(target_feature = "avx512f") {
        on.push("avx512f");
    }
    if on.is_empty() {
        "baseline".to_string()
    } else {
        on.join(",")
    }
}

impl Fingerprint {
    /// Probe the host. Touches the library's rayon pool (which starts it), so
    /// call it after the measurement, not before.
    pub fn probe() -> Fingerprint {
        Fingerprint {
            cpu_model: cpu_model(),
            nproc: nproc(),
            rayon_threads: rayon::current_num_threads(),
            rustflags: env!("HJB_RUSTFLAGS").to_string(),
            target_features: target_features(),
            rustc: env!("HJB_RUSTC_VERSION").to_string(),
            git_rev: git_rev(),
        }
    }

    /// One JSON object with every field.
    pub fn to_json(&self) -> String {
        let s = |v: &str| format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
        format!(
            "{{\"cpu_model\":{},\"nproc\":{},\"rayon_threads\":{},\"rustflags\":{},\"target_features\":{},\"rustc\":{},\"git_rev\":{}}}",
            s(&self.cpu_model),
            self.nproc,
            self.rayon_threads,
            s(&self.rustflags),
            s(&self.target_features),
            s(&self.rustc),
            s(&self.git_rev)
        )
    }
}

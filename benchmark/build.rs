//! Records the build settings that change speed without changing code, for
//! the host fingerprint every result carries: the effective rustflags
//! (environment or `.cargo/config.toml`) and the compiler version.

use std::process::Command;

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags = flags.split('\x1f').filter(|f| !f.is_empty()).collect::<Vec<_>>().join(" ");
    println!("cargo:rustc-env=HJB_RUSTFLAGS={flags}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=HJB_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTC");
    println!("cargo:rerun-if-changed=build.rs");
}

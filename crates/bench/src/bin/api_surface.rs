//! Public-API surface snapshot: dumps every `pub` item declaration in the
//! workspace sources and compares against the committed `API_SURFACE.txt`,
//! so public-surface drift must be declared (regenerate + commit) rather
//! than slipping into a release unnoticed.
//!
//! The extraction is a deterministic line scan, not a compiler pass: it
//! records the first line of each `pub` item (functions, types, traits,
//! consts, modules, re-exports), keyed by crate-relative file path, and
//! skips `pub(crate)`/`pub(super)`-scoped items, `#[cfg(test)]` bodies
//! being irrelevant because test modules are never `pub`. That slightly
//! over-approximates the true exported surface (a `pub` item inside a
//! private module is listed too), which is fine for a drift gate — any
//! textual change to the declared surface shows up as a diff.
//!
//! Usage:
//! * `api_surface` — print the current surface to stdout;
//! * `api_surface --check` — diff against `API_SURFACE.txt`, exit 1 on
//!   drift (the ci.sh gate);
//! * `api_surface --write` — regenerate `API_SURFACE.txt`.

#![forbid(unsafe_code)]

use dftmsn_bench::note;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "API_SURFACE.txt";

/// Source roots scanned, in stable order: the facade plus every
/// workspace crate.
const ROOTS: &[(&str, &str)] = &[
    ("dftmsn", "src"),
    ("dftmsn-core", "crates/core/src"),
    ("dftmsn-sim", "crates/sim/src"),
    ("dftmsn-radio", "crates/radio/src"),
    ("dftmsn-mobility", "crates/mobility/src"),
    ("dftmsn-metrics", "crates/metrics/src"),
    ("dftmsn-bench", "crates/bench/src"),
    ("dftmsn-cli", "crates/cli/src"),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True for lines that declare an exported item.
fn is_surface_line(trimmed: &str) -> bool {
    if trimmed.starts_with("pub(") {
        return false;
    }
    const KINDS: &[&str] = &[
        "pub fn ",
        "pub const fn ",
        "pub unsafe fn ",
        "pub async fn ",
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub union ",
        "pub type ",
        "pub const ",
        "pub static ",
        "pub mod ",
        "pub use ",
        "pub macro ",
    ];
    KINDS.iter().any(|k| trimmed.starts_with(k))
}

/// Normalizes a declaration line: trailing `{`, `;`, `=` and any
/// body/value after them are cut so only the declared name and shape
/// remain stable under formatting churn. `pub use` lines keep their
/// braces — a braced re-export list IS surface, so edits to it must
/// show as drift.
fn normalize(trimmed: &str) -> String {
    let markers: &[&str] = if trimmed.starts_with("pub use ") {
        &[";"]
    } else {
        &["{", ";", " = "]
    };
    let mut cut = trimmed.len();
    for marker in markers {
        if let Some(i) = trimmed.find(marker) {
            cut = cut.min(i);
        }
    }
    trimmed[..cut].trim_end().to_owned()
}

fn surface() -> String {
    let mut out = String::from("# Public API surface (generated by `api_surface --write`)\n");
    for (krate, root) in ROOTS {
        let mut files = Vec::new();
        rust_files(Path::new(root), &mut files);
        for file in files {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            let mut items = Vec::new();
            let mut lines = text.lines();
            while let Some(line) = lines.next() {
                let trimmed = line.trim_start();
                if !is_surface_line(trimmed) {
                    continue;
                }
                // A multi-line `pub use` list is one declaration: join the
                // continuation lines up to the terminating `;` so edits
                // anywhere in the list register as drift.
                let mut decl = trimmed.to_owned();
                if trimmed.starts_with("pub use ") && !trimmed.contains(';') {
                    for cont in lines.by_ref() {
                        decl.push(' ');
                        decl.push_str(cont.trim());
                        if cont.contains(';') {
                            break;
                        }
                    }
                }
                items.push(normalize(&decl));
            }
            if items.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n[{krate}] {}", file.display());
            for item in items {
                let _ = writeln!(out, "  {item}");
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let current = surface();
    match args.first().map(String::as_str) {
        None => {
            if let Err(e) = std::io::stdout().write_all(current.as_bytes()) {
                write_failed("standard output", &e);
            }
        }
        Some("--write") => {
            if let Err(e) = std::fs::write(SNAPSHOT, &current) {
                write_failed(SNAPSHOT, &e);
            }
            note!("api_surface: wrote {SNAPSHOT}");
        }
        Some("--check") => {
            let committed = std::fs::read_to_string(SNAPSHOT).unwrap_or_default();
            if committed == current {
                note!("api_surface: OK ({SNAPSHOT} matches)");
                return;
            }
            note!("api_surface: public surface drifted from {SNAPSHOT}:");
            for diff in diff_lines(&committed, &current) {
                note!("  {diff}");
            }
            note!("api_surface: run `cargo run -p dftmsn-bench --bin api_surface -- --write` and commit the result if the change is intended");
            std::process::exit(1);
        }
        Some(other) => {
            note!("api_surface: unknown flag {other} (want --check or --write)");
            std::process::exit(2);
        }
    }
}

/// Exits with status 3, naming what could not be written.
fn write_failed(what: &str, e: &std::io::Error) -> ! {
    note!("api_surface: cannot write {what}: {e}");
    std::process::exit(3);
}

/// Minimal line diff: lines present on one side only, prefixed +/-,
/// capped so a huge drift stays readable.
fn diff_lines(old: &str, new: &str) -> Vec<String> {
    use std::collections::HashSet;
    let old_set: HashSet<&str> = old.lines().collect();
    let new_set: HashSet<&str> = new.lines().collect();
    let mut out = Vec::new();
    for line in new.lines() {
        if !old_set.contains(line) {
            out.push(format!("+ {line}"));
        }
    }
    for line in old.lines() {
        if !new_set.contains(line) {
            out.push(format!("- {line}"));
        }
    }
    out.truncate(60);
    out
}

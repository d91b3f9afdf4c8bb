//! Public-surface census: every `pub fn` in `crates/*/src` must be
//! named in some other `.rs` file under `crates/`, `tests/`, `examples/`
//! or `bench/src`, or carry an allowlist entry that says why it stays
//! public. A function only its own file calls should drop `pub`; one
//! only its own tests call should go, or be `#[cfg(test)]`.
//!
//! The match is a whole-word search over file text, so a name that is
//! reused elsewhere (or mentioned in a comment) hides an orphan: the
//! census is a floor, not a proof.

use std::fs;
use std::path::{Path, PathBuf};

/// `(file, name, reason)` for each `pub fn` that stays public without a
/// reader in another file.
const ALLOWLIST: &[(&str, &str, &str)] = &[(
    "crates/slm-bench/src/lib.rs",
    "write_record_to",
    "the exported `write_record!` macro expands to it in the calling crate",
)];

/// This file, which names the allowlisted functions without reading
/// them.
const CENSUS: &str = "tests/public_surface.rs";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, skipping build output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The function name declared by a `pub fn` line, if any.
fn pub_fn_name(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Whether `text` contains `word` delimited by non-identifier chars.
fn names(text: &str, word: &str) -> bool {
    text.match_indices(word).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let after = text[i + word.len()..].chars().next();
        !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
    })
}

#[test]
fn every_pub_fn_has_a_reader_outside_its_file() {
    let root = repo_root();
    let mut paths = Vec::new();
    for dir in ["crates", "tests", "examples", "bench/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    assert!(paths.len() > 100, "census found only {} files", paths.len());
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            (rel, fs::read_to_string(p).expect("readable source"))
        })
        .filter(|(rel, _)| rel != CENSUS)
        .collect();

    let mut orphans = Vec::new();
    let mut allowed = Vec::new();
    for (file, text) in &files {
        if !(file.starts_with("crates/") && file.contains("/src/")) {
            continue;
        }
        for (line_no, line) in text.lines().enumerate() {
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            if files
                .iter()
                .any(|(other, other_text)| other != file && names(other_text, name))
            {
                continue;
            }
            if ALLOWLIST.iter().any(|&(f, n, _)| f == file && n == name) {
                allowed.push((file.as_str(), name));
            } else {
                orphans.push(format!("{file}:{}: pub fn {name}", line_no + 1));
            }
        }
    }
    assert!(
        orphans.is_empty(),
        "{} pub fn(s) named in no other file; drop `pub`, delete them, or \
         add an allowlist entry with a reason:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
    for &(file, name, _) in ALLOWLIST {
        assert!(
            allowed.contains(&(file, name)),
            "stale allowlist entry: {file} {name} is gone or now has a reader"
        );
    }
}

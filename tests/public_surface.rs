//! Public-surface census: every public item in `crates/*/src` must be
//! read by a code line in some other `.rs` file under `crates/`,
//! `tests/`, `examples/` or `bench/src`, or carry an allowlist entry that
//! says why it stays public. An item only its own file reads should drop
//! `pub`; one only its own tests read should go, or be `#[cfg(test)]`.
//!
//! A second census runs without the files under `tests/` and
//! `crates/*/tests/` as readers. An item that only those test files
//! read stays public only with a `TEST_ONLY` entry naming the
//! EXPERIMENTS row and test it reproduces, the test hook it serves, or
//! the named test it is an oracle for. `#[cfg(test)]` modules inside
//! `src` still count as readers in both censuses.
//!
//! The census covers `pub fn`, `pub struct`, `pub enum`, `pub trait`,
//! `pub type`, `pub const` and `pub static` (associated constants too),
//! outside `#[cfg(test)]` items and function bodies. A reader is judged
//! on code only:
//!
//! - comments (`//`, `///`, `//!`, `/* */`) and the contents of string
//!   and char literals are blanked before any match, so a doc example or
//!   a message that spells a name reads nothing;
//! - `pub use` re-exports and `mod` declarations read nothing;
//! - `fn name` is a definition, never a read of another item `name`.
//!
//! A free function is read by its name where it is not a method call
//! (`.name`) or another type's associated item (`Type::name`). A `pub fn`
//! inside `impl T` is censused as `T::m`: a file reads it when it names
//! `T::m`, or when it calls `.m(` and also names `T` or sits in `T`'s
//! crate. Types and constants are read by their name, not after a `.`.
//! A type also counts as read when it appears in the signature, the
//! `pub` fields, the variants or the trait body of a read item, and a
//! read method marks its `impl` type read.
//!
//! What it still cannot see: a reader that names only a same-named item
//! of another type or module (`.m(` on an unrelated type in `T`'s crate,
//! or a constant of the same name elsewhere), a read through a macro
//! that builds the name, and fields, which are not censused. The census
//! is a floor, not a proof; narrowing an item to `pub(crate)` and
//! building every target is the proof.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// `(file, item, reason)` for each public item that stays public
/// without a reader in another file. `item` is `T::m` for a method.
const ALLOWLIST: &[(&str, &str, &str)] = &[(
    "crates/slm-bench/src/lib.rs",
    "write_record_to",
    "the exported `write_record!` macro expands to it in the calling crate",
)];

/// `(file, item, reason)` for each public item that only tests read,
/// for [`every_public_item_has_a_non_test_reader`]. `item` is `T::m` for
/// a method, or `"*"` for every public item of the file. A reason names
/// the EXPERIMENTS row and test the item reproduces, the test hook it
/// serves, or the named test it is an oracle for.
const TEST_ONLY: &[(&str, &str, &str)] = &[
    // The transport path: EXPERIMENTS "Full transport path", reproduced
    // by `tests/transport_campaign.rs` and
    // `end_to_end.rs::key_recovery_through_the_uart_transport`.
    (
        "crates/slm-fabric/src/remote.rs",
        "*",
        "EXPERIMENTS \"Full transport path\": tests/transport_campaign.rs",
    ),
    (
        "crates/slm-fabric/src/uart.rs",
        "*",
        "EXPERIMENTS \"Full transport path\": tests/transport_campaign.rs",
    ),
    (
        "crates/slm-fabric/src/wire_faults.rs",
        "*",
        "EXPERIMENTS \"Full transport path\": tests/transport_campaign.rs",
    ),
    (
        "crates/slm-cpa/src/store.rs",
        "write_checkpoint",
        "hook: the single-attack SLMC resume of \
         transport_campaign.rs::checkpoint_resume_reproduces_uninterrupted_ranking",
    ),
    (
        "crates/slm-cpa/src/store.rs",
        "read_checkpoint",
        "hook: the single-attack SLMC resume of \
         transport_campaign.rs::checkpoint_resume_reproduces_uninterrupted_ranking",
    ),
    (
        "crates/slm-sensors/src/rds.rs",
        "*",
        "EXPERIMENTS \"RDS sensor\": figure_suite.rs::extension_rds_outperforms_tdc",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "StreamingCpa::with_early_stop",
        "EXPERIMENTS \"Streaming long-horizon MTD\": \
         figure_suite.rs::long_horizon_defense_mtds_are_pinned",
    ),
    (
        "crates/slm-core/src/experiments/cpa.rs",
        "aes_pilot_activity",
        "EXPERIMENTS Figs. 10, 12, 13: figure_suite.rs::fig10_fig12_fig13_benign_alu_attacks",
    ),
    (
        "crates/slm-core/src/experiments/defense_matrix.rs",
        "DefenseMatrix::fence_mtd_monotonic",
        "EXPERIMENTS \"Defense matrix\": \
         defense_matrix.rs::seeded_defense_arms_and_matrix_are_pinned",
    ),
    (
        "crates/slm-core/src/experiments/defense_matrix.rs",
        "DetectorEval::discriminates",
        "EXPERIMENTS \"Defense matrix\": \
         defense_matrix.rs::seeded_defense_arms_and_matrix_are_pinned",
    ),
    // Kill/resume hooks of tests/streaming_crash.rs.
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "run_streaming_crashing",
        "hook: the kill/resume engine of tests/streaming_crash.rs",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "CrashPlan",
        "hook: the kill sites of tests/streaming_crash.rs",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "CrashPlan::none",
        "hook: the kill sites of tests/streaming_crash.rs",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "CrashPlan::kill_at",
        "hook: the kill sites of tests/streaming_crash.rs",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "CrashPlan::fail_window",
        "hook: the kill sites of tests/streaming_crash.rs",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "CrashPlan::fired",
        "hook: the kill sites of tests/streaming_crash.rs",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "CrashSite",
        "hook: the kill sites of tests/streaming_crash.rs",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "StreamOutcome",
        "hook: what a killed run of tests/streaming_crash.rs returns",
    ),
    (
        "crates/slm-core/src/experiments/streaming.rs",
        "StreamingCpa::fingerprint",
        "hook: the ledger identity format_pins.rs::hashed_identities_are_pinned pins",
    ),
    (
        "crates/slm-timing/src/sta.rs",
        "StaResult::arrival_ps",
        "hook: the per-net arrivals sta_pins.rs::sta_results_are_pinned digests",
    ),
    (
        "crates/slm-netlist/src/generators/adder.rs",
        "ripple_carry_adder_with_cin",
        "hook: a generator family scan_pins.rs::report_debug_digest_is_pinned scans",
    ),
    // Reference oracles.
    (
        "crates/slm-aes/src/soft.rs",
        "decrypt",
        "oracle: the inverse cipher of slm-aes properties.rs::encrypt_decrypt_roundtrip",
    ),
    (
        "crates/slm-aes/src/soft.rs",
        "SBOX",
        "oracle: the byte-wise round of slm-aes \
         properties.rs::word_rounds_match_the_bytewise_round",
    ),
    (
        "crates/slm-netlist/src/generators/alu.rs",
        "AluOp::reference",
        "oracle: the word-level ALU of slm-netlist properties.rs::alu_matches_reference",
    ),
    (
        "crates/slm-cpa/src/attack.rs",
        "LastRoundModel::hypothesis",
        "oracle: the planted leakage of slm-cpa properties.rs::cpa_recovers_any_planted_key",
    ),
    (
        "crates/slm-fabric/src/scenario.rs",
        "MultiTenantFabric::samples_per_encryption",
        "oracle: the capture length of slm-fabric \
         properties.rs::capture_geometry_invariant",
    ),
];

/// This file, which names the allowlisted items without reading them.
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

/// `text` with every comment and the contents of every string and char
/// literal replaced by spaces. Newlines are kept, so line numbers hold.
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let at = |i: usize| chars.get(i).copied();
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let prev_ident = i > 0 && is_ident_char(chars[i - 1]);
        if c == '/' && at(i + 1) == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && at(i + 1) == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                if chars[i] == '/' && at(i + 1) == Some('*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && at(i + 1) == Some('/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == 'r' && !prev_ident && matches!(at(i + 1), Some('"' | '#')) && {
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            at(i + 1 + hashes) == Some('"')
        } {
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            out.push('r');
            out.extend(std::iter::repeat_n('#', hashes));
            out.push('"');
            i += hashes + 2;
            while i < chars.len() {
                let closes = chars[i] == '"' && (1..=hashes).all(|k| at(i + k) == Some('#'));
                if closes {
                    out.push('"');
                    out.extend(std::iter::repeat_n('#', hashes));
                    i += hashes + 1;
                    break;
                }
                out.push(blank(chars[i]));
                i += 1;
            }
        } else if c == '"' {
            out.push('"');
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    out.push(' ');
                    i += 1;
                }
                if let Some(&e) = chars.get(i) {
                    out.push(blank(e));
                }
                i += 1;
            }
            out.push('"');
            i += 1;
        } else if c == '\'' && at(i + 1) == Some('\\') {
            // escaped char literal: '\n', '\'', '\u{..}'
            out.push_str("' ");
            i += 3;
            while i < chars.len() && chars[i] != '\'' {
                out.push(' ');
                i += 1;
            }
            out.push('\'');
            i += 1;
        } else if c == '\'' && at(i + 2) == Some('\'') {
            out.push_str("' '");
            i += 3;
        } else {
            // a lifetime's `'` or plain code
            out.push(c);
            i += 1;
        }
    }
    out
}

/// What a public item is, for matching its readers.
#[derive(PartialEq)]
enum Kind {
    /// A free `pub fn`.
    Fn,
    /// A `pub fn` inside `impl T`.
    Method(String),
    /// A struct, enum, trait or type alias, read by its bare name.
    Type,
    /// A constant or static, read by its bare name.
    Const,
}

struct Item {
    file: String,
    line: usize,
    /// The bare identifier.
    name: String,
    kind: Kind,
    /// Code whose type names become read when this item is read: a
    /// signature, `pub` fields, enum variants or a trait body.
    signature: String,
    /// The `impl` type of a method or associated constant.
    owner: Option<String>,
}

impl Item {
    /// `T::m` for a method or associated constant, else the name.
    fn display(&self) -> String {
        match &self.owner {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One parsed source file.
struct Source {
    file: String,
    /// `crates/<name>/...` files belong to crate `name`.
    krate: Option<String>,
    /// Code with comments, literals, `pub use` and `mod` statements
    /// blanked: the text in which a read counts.
    reader: String,
    /// Every identifier in `reader`, to skip files that cannot match.
    idents: HashSet<String>,
}

enum Block {
    Impl(String),
    Mod,
    Test,
    /// The body of the struct, enum or trait item at this index; `true`
    /// for a struct, whose signature keeps only its `pub` fields.
    Body(usize, bool),
    Other,
}

/// The leading `#[...]` attributes of `header` and the rest after them.
fn split_attrs(header: &str) -> (&str, &str) {
    let mut rest = header.trim_start();
    let start = header.len() - rest.len();
    while rest.starts_with("#[") || rest.starts_with("#![") {
        let mut depth = 0;
        let mut end = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[end..].trim_start();
    }
    let attrs_end = header.len() - rest.len();
    (&header[start..attrs_end], rest)
}

fn leading_ident(s: &str) -> &str {
    let end = s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len());
    &s[..end]
}

/// The self type of an `impl` header: the last path segment before any
/// generic arguments, after `for` in a trait impl.
fn impl_type(header: &str) -> String {
    let mut rest = header.trim_start_matches("unsafe").trim_start();
    rest = rest.strip_prefix("impl").unwrap_or(rest).trim_start();
    if rest.starts_with('<') {
        let mut depth = 0;
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                rest = &rest[i + 1..];
                break;
            }
        }
    }
    if let Some(pos) = rest.find(" for ") {
        rest = &rest[pos + 5..];
    }
    let path = rest.trim().trim_start_matches('&').trim_start();
    let path = path.split('<').next().unwrap_or("");
    leading_ident(path.rsplit("::").next().unwrap_or("").trim()).to_string()
}

/// `(keyword, name)` of a `pub` item declaration.
fn pub_item(rest: &str) -> Option<(&'static str, &str)> {
    let mut rest = rest.strip_prefix("pub ")?.trim_start();
    for q in ["const fn ", "async fn ", "unsafe fn ", "const unsafe fn "] {
        if let Some(r) = rest.strip_prefix(q) {
            return Some(("fn", leading_ident(r.trim_start())));
        }
    }
    for kw in ["fn", "struct", "enum", "trait", "type", "const", "static"] {
        if let Some(r) = rest.strip_prefix(kw).and_then(|r| r.strip_prefix(' ')) {
            rest = r.trim_start();
            if kw == "static" {
                rest = rest.strip_prefix("mut ").unwrap_or(rest);
            }
            return Some((kw, leading_ident(rest)));
        }
    }
    None
}

/// The public items of `code` (already passed through [`code_only`])
/// and its reader text, with `pub use` and `mod` statements blanked.
fn parse(file: &str, code: &str) -> (Vec<Item>, String) {
    let mut items: Vec<Item> = Vec::new();
    let mut reader: Vec<u8> = code.as_bytes().to_vec();
    let mut blocks: Vec<(Block, usize)> = Vec::new();
    let mut header_start = 0;
    // `(`/`[` nesting: a `;` inside `[u8; 16]` ends no statement
    let mut nest = 0usize;
    let line_of = |offset: usize| code[..offset].matches('\n').count() + 1;
    for (i, c) in code.char_indices() {
        match c {
            '(' | '[' => nest += 1,
            ')' | ']' => nest = nest.saturating_sub(1),
            _ => {}
        }
        if !matches!(c, '{' | '}' | ';') || (c == ';' && nest > 0) {
            continue;
        }
        let header = &code[header_start..i];
        let (attrs, rest) = split_attrs(header);
        let words: Vec<&str> = rest.split_whitespace().take(2).collect();
        let is_use = words.first() == Some(&"use")
            || (words.first().is_some_and(|w| w.starts_with("pub"))
                && words.get(1) == Some(&"use"));
        if is_use && c != ';' {
            // the braces of a `use a::{b, c};` group
            continue;
        }
        if c == '}' {
            if let Some((Block::Body(idx, fields_only), start)) = blocks.pop() {
                let body = &code[start..i];
                let sig = if fields_only {
                    body.lines()
                        .filter(|l| l.trim_start().starts_with("pub "))
                        .collect::<Vec<_>>()
                        .join("\n")
                } else {
                    body.to_string()
                };
                items[idx].signature.push('\n');
                items[idx].signature.push_str(&sig);
            }
            header_start = i + 1;
            continue;
        }
        let is_test = attrs.contains("cfg(test)");
        let in_test = blocks.iter().any(|(b, _)| matches!(b, Block::Test));
        let owner = match blocks.last() {
            None | Some((Block::Mod, _)) => Some(None),
            Some((Block::Impl(t), _)) => Some(Some(t.clone())),
            _ => None,
        };
        let rest_start = i - rest.len();
        let is_pub = words.first().is_some_and(|w| w.starts_with("pub"));
        let is_mod = words.first() == Some(&"mod") || (is_pub && words.get(1) == Some(&"mod"));
        if (is_use && is_pub) || is_mod {
            for b in &mut reader[rest_start..i] {
                if *b != b'\n' {
                    *b = b' ';
                }
            }
        }
        let mut block = if is_test || in_test {
            Block::Test
        } else if is_mod {
            Block::Mod
        } else if rest.starts_with("impl") || rest.starts_with("unsafe impl") {
            Block::Impl(impl_type(rest))
        } else {
            Block::Other
        };
        if let (Some(owner), false) = (owner, is_test || in_test) {
            if let Some((kw, name)) = pub_item(rest) {
                let kind = match (kw, &owner) {
                    ("fn", Some(t)) => Kind::Method(t.clone()),
                    ("fn", None) => Kind::Fn,
                    ("const" | "static", _) => Kind::Const,
                    _ => Kind::Type,
                };
                // impl blocks hold only methods and associated constants
                if owner.is_none() || matches!(kw, "fn" | "const") {
                    if c == '{' && matches!(kw, "struct" | "enum" | "trait") {
                        block = Block::Body(items.len(), kw == "struct");
                    }
                    items.push(Item {
                        file: file.to_string(),
                        line: line_of(rest_start),
                        name: name.to_string(),
                        kind,
                        signature: rest.to_string(),
                        owner,
                    });
                }
            }
        }
        if c == '{' {
            blocks.push((block, i + 1));
        }
        header_start = i + 1;
    }
    let reader = String::from_utf8(reader).expect("blanking keeps UTF-8");
    (items, reader)
}

/// Byte offsets at which `word` occurs in `text` as a whole identifier
/// and not as the name of a `fn` definition.
fn occurrences<'a>(text: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    text.match_indices(word).map(|(i, _)| i).filter(move |&i| {
        let before = text[..i].chars().next_back();
        let after = text[i + word.len()..].chars().next();
        if before.is_some_and(is_ident_char) || after.is_some_and(is_ident_char) {
            return false;
        }
        let lead = text[..i].trim_end();
        let defines = text[..i].ends_with(char::is_whitespace)
            && lead.ends_with("fn")
            && !lead[..lead.len() - 2].ends_with(is_ident_char);
        !defines
    })
}

/// Whether the code before `i` ends in a single `.` (a method call or
/// field access, not a `..` range).
fn after_dot(text: &str, i: usize) -> bool {
    let lead = text[..i].trim_end();
    lead.ends_with('.') && !lead.ends_with("..")
}

/// The path segment before a `::` that ends right before `i`, if any.
fn qualifier(text: &str, i: usize) -> Option<&str> {
    let lead = text[..i].trim_end().strip_suffix("::")?.trim_end();
    let start = lead.rfind(|c: char| !is_ident_char(c)).map_or(0, |p| p + 1);
    Some(&lead[start..])
}

/// Whether `source` reads `item`, given the type names it can reach:
/// its own identifiers and those of the signatures it reads.
fn reads(source: &Source, known: &HashSet<String>, item: &Item) -> bool {
    if source.file == item.file || !source.idents.contains(&item.name) {
        return false;
    }
    let text = &source.reader;
    match &item.kind {
        Kind::Fn => occurrences(text, &item.name).any(|i| {
            !after_dot(text, i)
                && !qualifier(text, i)
                    .is_some_and(|q| q.starts_with(|c: char| c.is_ascii_uppercase()))
        }),
        Kind::Type | Kind::Const => occurrences(text, &item.name).any(|i| !after_dot(text, i)),
        Kind::Method(t) => {
            let knows_type = known.contains(t)
                || item.file.starts_with(&format!(
                    "crates/{}/",
                    source.krate.as_deref().unwrap_or("")
                ));
            occurrences(text, &item.name).any(|i| {
                if qualifier(text, i) == Some(t.as_str()) {
                    return true;
                }
                let next = text[i + item.name.len()..].trim_start();
                knows_type
                    && after_dot(text, i)
                    && (next.starts_with('(') || next.starts_with("::"))
            })
        }
    }
}

fn idents(text: &str) -> HashSet<String> {
    text.split(|c: char| !is_ident_char(c))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

fn source(file: &str, text: &str) -> (Source, Vec<Item>) {
    let code = code_only(text);
    let (items, reader) = parse(file, &code);
    let idents = idents(&reader);
    let krate = file
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .map(str::to_string);
    let source = Source {
        file: file.to_string(),
        krate,
        reader,
        idents,
    };
    (source, items)
}

/// The public items of `crates/*/src` in `files` that no other file
/// reads, directly or through a read item's signature, as
/// `(file, line, item)`. `allowed` items count as read; an entry whose
/// item is `"*"` covers every item of its file.
fn unread(files: &[(String, String)], allowed: &[(&str, &str)]) -> Vec<(String, usize, String)> {
    let mut sources = Vec::new();
    let mut items = Vec::new();
    for (file, text) in files {
        let (s, found) = source(file, text);
        if file.starts_with("crates/") && file.contains("/src/") {
            items.extend(found);
        }
        sources.push(s);
    }
    let mut read: Vec<bool> = items
        .iter()
        .map(|item| {
            allowed
                .iter()
                .any(|&(f, n)| f == item.file && (n == "*" || n == item.display()))
        })
        .collect();
    // A file that reads an item, or names a type, can call methods on
    // the types its signature or `pub` fields name
    // (`ann.netlist().eval_all(..)` reaches `Netlist`).
    for s in &sources {
        let mut known = s.idents.clone();
        let mut seen = vec![false; items.len()];
        loop {
            let mut grew = false;
            for (j, item) in items.iter().enumerate() {
                if seen[j] {
                    continue;
                }
                let reached = item.kind == Kind::Type && known.contains(&item.name);
                let read_here = reads(s, &known, item);
                if reached || read_here {
                    seen[j] = true;
                    read[j] |= read_here;
                    known.extend(idents(&item.signature));
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
    }
    // A read item makes the types in its signature, and a read method
    // its `impl` type, read too.
    loop {
        let mut grew = false;
        for r in 0..items.len() {
            if !read[r] {
                continue;
            }
            let sig = &items[r].signature;
            for t in 0..items.len() {
                if read[t] || items[t].kind != Kind::Type {
                    continue;
                }
                let named = occurrences(sig, &items[t].name).next().is_some()
                    || items[r].owner.as_deref() == Some(items[t].name.as_str());
                if named {
                    read[t] = true;
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    items
        .iter()
        .zip(&read)
        .filter(|(_, &r)| !r)
        .map(|(item, _)| (item.file.clone(), item.line, item.display()))
        .collect()
}

/// Every `.rs` file the census reads, as `(path from the root, text)`.
fn census_files() -> Vec<(String, String)> {
    let root = repo_root();
    let mut paths = Vec::new();
    for dir in ["crates", "tests", "examples", "bench/src"] {
        rust_files(&root.join(dir), &mut paths);
    }
    assert!(paths.len() > 100, "census found only {} files", paths.len());
    paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).expect("under the root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            (rel, fs::read_to_string(p).expect("readable source"))
        })
        .filter(|(rel, _)| rel != CENSUS)
        .collect()
}

/// Whether `file` is a test file: under `tests/` or `crates/*/tests/`.
fn is_test_file(file: &str) -> bool {
    file.starts_with("tests/")
        || file
            .strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, rest)| rest.starts_with("tests/"))
}

#[test]
fn every_public_item_has_a_reader_outside_its_file() {
    let files = census_files();
    let mut orphans = Vec::new();
    let mut allowed = Vec::new();
    for (file, line, item) in unread(&files, &[]) {
        if ALLOWLIST.iter().any(|&(f, n, _)| f == file && n == item) {
            allowed.push((file, item));
        } else {
            orphans.push(format!("{file}:{line}: {item}"));
        }
    }
    assert!(
        orphans.is_empty(),
        "{} public item(s) read by no other file; drop `pub`, delete them, \
         or add an allowlist entry with a reason:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
    for &(file, name, _) in ALLOWLIST {
        assert!(
            allowed.contains(&(file.to_string(), name.to_string())),
            "stale allowlist entry: {file} {name} is gone or now has a reader"
        );
    }
}

#[test]
fn every_public_item_has_a_non_test_reader() {
    let files: Vec<(String, String)> = census_files()
        .into_iter()
        .filter(|(file, _)| !is_test_file(file))
        .collect();
    let entries: Vec<(&str, &str)> = TEST_ONLY.iter().map(|&(f, n, _)| (f, n)).collect();
    let orphans: Vec<String> = unread(&files, &entries)
        .into_iter()
        .filter(|(file, _, item)| !ALLOWLIST.iter().any(|&(f, n, _)| f == file && n == item))
        .map(|(file, line, item)| format!("{file}:{line}: {item}"))
        .collect();
    assert!(
        orphans.is_empty(),
        "{} public item(s) read only by tests; delete them, make them \
         `#[cfg(test)]`, narrow them, or add a TEST_ONLY entry naming the \
         experiment, hook or oracle they serve:\n{}",
        orphans.len(),
        orphans.join("\n")
    );
    // An entry is stale once its items gain a non-test reader or go.
    let without: Vec<(String, usize, String)> = unread(&files, &[]);
    for &(file, name, _) in TEST_ONLY {
        let covers = without
            .iter()
            .any(|(f, _, n)| f == file && (name == "*" || n == name));
        assert!(
            covers,
            "stale TEST_ONLY entry: {file} {name} is gone or has a non-test reader"
        );
    }
}

/// The items of `own` (a file of crate `a`) that `other` (a file of
/// crate `b`) does not read.
fn unread_by(own: &str, other: &str) -> Vec<String> {
    let files = [
        ("crates/a/src/own.rs".to_string(), own.to_string()),
        ("crates/b/src/other.rs".to_string(), other.to_string()),
    ];
    unread(&files, &[])
        .into_iter()
        .filter(|(file, _, _)| file == &files[0].0)
        .map(|(_, _, n)| n)
        .collect()
}

const NETLIST: &str = "pub struct NetlistBuilder;\n\
                       impl NetlistBuilder {\n    pub fn nand2(&mut self) {}\n}\n";

#[test]
fn a_qualified_call_reads_a_method() {
    let other = "fn f(b: &mut NetlistBuilder) { NetlistBuilder::nand2(b); }";
    assert!(unread_by(NETLIST, other).is_empty());
    let method_call = "fn f(b: &mut NetlistBuilder) { b.nand2(); }";
    assert!(unread_by(NETLIST, method_call).is_empty());
}

#[test]
fn a_doc_comment_mention_reads_nothing() {
    let other = "/// Call `NetlistBuilder::nand2` to add a gate.\n//! nand2\nfn f() {}";
    assert_eq!(
        unread_by(NETLIST, other),
        ["NetlistBuilder", "NetlistBuilder::nand2"]
    );
}

#[test]
fn a_string_literal_mention_reads_nothing() {
    let other = "fn f() -> &'static str { \"y = NetlistBuilder::nand2(a, b)\" }\n\
                 fn g() -> &'static str { r#\"nand2 \"NetlistBuilder\"\"# }";
    assert_eq!(
        unread_by(NETLIST, other),
        ["NetlistBuilder", "NetlistBuilder::nand2"]
    );
}

#[test]
fn a_pub_use_re_export_reads_nothing() {
    let own = "pub const ALU_OPCODE_BITS: u32 = 4;\npub fn helper() {}\n";
    let other = "pub mod own;\npub use own::{\n    helper,\n    ALU_OPCODE_BITS,\n};\n";
    assert_eq!(unread_by(own, other), ["ALU_OPCODE_BITS", "helper"]);
    assert!(unread_by(own, "fn f() -> u32 { helper(); ALU_OPCODE_BITS }").is_empty());
}

#[test]
fn a_same_named_fn_on_another_type_reads_nothing() {
    let other = "pub struct Gates;\nimpl Gates {\n    pub fn nand2(&self) {}\n}\n\
                 fn f(g: &Gates) { g.nand2(); Gates::nand2(g); }";
    assert_eq!(
        unread_by(NETLIST, other),
        ["NetlistBuilder", "NetlistBuilder::nand2"]
    );
    let free = "pub fn nand2() {}\n";
    assert_eq!(unread_by(free, other), ["nand2"]);
}

#[test]
fn a_read_signature_reads_its_types() {
    let own = "pub struct Wave;\npub struct Unused;\npub fn wave() -> Wave { Wave }\n";
    assert_eq!(unread_by(own, "fn f() { wave(); }"), ["Unused"]);
}

#[test]
fn test_modules_declare_nothing() {
    let own = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n\
               #[cfg(test)]\npub fn probe() {}\nfn private() {}\n";
    assert!(unread_by(own, "").is_empty());
}

#[test]
fn a_whole_file_entry_covers_every_item_of_its_file() {
    let files = [("crates/a/src/own.rs".to_string(), NETLIST.to_string())];
    assert_eq!(unread(&files, &[]).len(), 2);
    assert!(unread(&files, &[("crates/a/src/own.rs", "*")]).is_empty());
    assert_eq!(unread(&files, &[("crates/b/src/other.rs", "*")]).len(), 2);
}

#[test]
fn test_files_are_those_under_a_tests_directory() {
    assert!(is_test_file("tests/end_to_end.rs"));
    assert!(is_test_file("crates/slm-pdn/tests/properties.rs"));
    assert!(!is_test_file("crates/slm-pdn/src/pdn.rs"));
    assert!(!is_test_file("crates/slm-bench/benches/observability.rs"));
    assert!(!is_test_file("examples/quickstart.rs"));
    assert!(!is_test_file("bench/src/workloads.rs"));
}

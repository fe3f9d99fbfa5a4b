//! The `HYGRAPH_*` knob count is mechanical: every `"HYGRAPH_…"` string
//! literal under `crates/*/src` and `src/` (bench bins included) is a
//! row in one of OPERATIONS.md's knob tables, and every row is read by
//! some code. A knob added, renamed or removed on one side only fails
//! here instead of in a later PR's hand count.

use std::collections::BTreeSet;
use std::path::Path;

/// `HYGRAPH_[A-Z0-9_]+` names that appear in `text` directly between
/// `open` and `close`.
fn names_between(text: &str, open: &str, close: &str, out: &mut BTreeSet<String>) {
    let prefix = format!("{open}HYGRAPH_");
    for (at, _) in text.match_indices(&prefix) {
        let rest = &text[at + open.len()..];
        let len = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(rest.len());
        if len > "HYGRAPH_".len() && rest[len..].starts_with(close) {
            out.insert(rest[..len].to_string());
        }
    }
}

fn scan_sources(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            scan_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("read source file");
            names_between(&text, "\"", "\"", out);
        }
    }
}

#[test]
fn every_knob_read_by_code_is_documented_and_vice_versa() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut read_by_code = BTreeSet::new();
    scan_sources(&root.join("src"), &mut read_by_code);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        scan_sources(
            &krate.expect("crate dir").path().join("src"),
            &mut read_by_code,
        );
    }

    // table rows only: `| `HYGRAPH_X` | default | meaning |`
    let ops = std::fs::read_to_string(root.join("OPERATIONS.md")).expect("OPERATIONS.md");
    let mut documented = BTreeSet::new();
    for row in ops.lines().filter(|l| l.starts_with("| `HYGRAPH_")) {
        let first_column = row.split('|').nth(1).expect("table row has a first column");
        names_between(first_column, "`", "`", &mut documented);
    }

    let undocumented: Vec<_> = read_by_code.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read_by_code).collect();
    assert!(
        undocumented.is_empty() && unread.is_empty(),
        "knobs read by code but missing from OPERATIONS.md's tables: {undocumented:?}; \
         documented there but read by no code: {unread:?}"
    );
    // the count ROADMAP and CHANGES quote; a knob PR moves it here too
    assert_eq!(read_by_code.len(), 21, "knob count moved: {read_by_code:?}");
}

//! D6: every fixed telemetry name the workspace emits is listed in the
//! committed `telemetry_names.txt` manifest, and every manifest entry is
//! still emitted somewhere, so a typo'd name can never silently fork a
//! time series and a removed one cannot linger in the registry.
//!
//! A name is emitted when it is a `pub const … : &str` in a crate's
//! `names.rs`, or a string literal passed straight to one of the
//! `telemetry::` name-taking functions in `src/`, `crates/*/src`,
//! `crates/*/benches` or `examples/`. The scan is textual: it skips
//! comment lines and stops each file at its first `#[cfg(test)]`, so
//! test-only names stay out of the manifest. Names built at runtime
//! (`sweep.<label>`, `device.tech.<profile>`) are exempt by design.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Telemetry functions whose first argument is a metric, span or note name.
const NAME_FNS: [&str; 8] = [
    "span",
    "counter_add",
    "counter_inc",
    "counter_value",
    "set_gauge",
    "set_note",
    "observe_seconds",
    "observe",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn manifest() -> BTreeSet<String> {
    let text = fs::read_to_string(root().join("telemetry_names.txt")).expect("manifest");
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_owned)
        .collect()
}

/// Every `.rs` file under `dir`, recursively (none if it does not exist).
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A file's text up to its first `#[cfg(test)]`, without comment lines.
fn live_source(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("source file");
    text.lines()
        .map(str::trim_start)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The string literal at the start of `s` (after whitespace), if any.
fn leading_literal(s: &str) -> Option<&str> {
    let rest = s.trim_start().strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

/// Literal names at `…telemetry::<fn>("name"` call sites.
fn call_site_names(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in src.match_indices("telemetry::") {
        let rest = &src[at + "telemetry::".len()..];
        let fn_len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if !NAME_FNS.contains(&&rest[..fn_len]) {
            continue;
        }
        let Some(args) = rest[fn_len..].trim_start().strip_prefix('(') else {
            continue;
        };
        names.extend(leading_literal(args).map(str::to_owned));
    }
    names
}

/// Values of the `pub const NAME: &str = "value";` items in a `names.rs`.
fn names_module_consts(src: &str) -> Vec<String> {
    src.split("pub const ")
        .skip(1)
        .filter_map(|item| {
            let (ty, value) = item[..item.find(';')?].split_once('=')?;
            if !ty.contains("&str") {
                return None;
            }
            leading_literal(value).map(str::to_owned)
        })
        .collect()
}

/// Every emitted name, mapped to the files that emit it.
fn used_names() -> BTreeMap<String, BTreeSet<String>> {
    let root = root();
    let mut dirs = vec![root.join("src"), root.join("examples")];
    for entry in fs::read_dir(root.join("crates")).expect("crates dir") {
        let krate = entry.expect("crate entry").path();
        dirs.push(krate.join("src"));
        dirs.push(krate.join("benches"));
    }
    let mut files = Vec::new();
    for dir in &dirs {
        rust_files(dir, &mut files);
    }
    let mut used: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for path in files {
        let src = live_source(&path);
        let mut names = call_site_names(&src);
        if path.file_name().is_some_and(|n| n == "names.rs") {
            names.extend(names_module_consts(&src));
        }
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(&path)
            .display()
            .to_string();
        for name in names {
            used.entry(name).or_default().insert(rel.clone());
        }
    }
    used
}

#[test]
fn every_emitted_telemetry_name_is_in_the_manifest() {
    let manifest = manifest();
    let unlisted: Vec<String> = used_names()
        .into_iter()
        .filter(|(name, _)| !manifest.contains(name))
        .map(|(name, files)| format!("  {name} (in {files:?})"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "names missing from telemetry_names.txt:\n{}",
        unlisted.join("\n")
    );
}

#[test]
fn every_manifest_entry_is_still_emitted() {
    let used = used_names();
    let dead: Vec<String> = manifest()
        .into_iter()
        .filter(|name| !used.contains_key(name))
        .collect();
    assert!(
        dead.is_empty(),
        "telemetry_names.txt entries no call site or names.rs emits: {dead:?}"
    );
}

#[test]
fn scanner_reads_call_sites_and_names_consts() {
    let src = "nm_telemetry::counter_add(\n    \"a.b\", 1);\ntelemetry::observe(\"c\", 1.0);\n\
               telemetry::span(names::X);\nother::span(\"free\");\ntelemetry::enable();";
    assert_eq!(call_site_names(src), ["a.b", "c"]);
    let consts = "/// Doc.\npub const X: &str = \"x.y\";\npub const N: usize = 3;\n\
                  pub const LONG: &str =\n    \"long.name\";";
    assert_eq!(names_module_consts(consts), ["x.y", "long.name"]);
}

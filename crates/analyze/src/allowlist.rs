//! The `analyze.toml` allowlist: audited exceptions to the lints.
//!
//! The file is a sequence of `[[allow]]` tables, each naming a file, a
//! lint code, and a mandatory human-readable reason:
//!
//! ```toml
//! [[allow]]
//! path = "crates/sim/src/ready.rs"
//! code = "PAR001"
//! reason = "the Waker contract forces atomics; the executor is single-threaded"
//! ```
//!
//! Parsing is a deliberately small TOML subset (table arrays of string
//! key/values) so the analyzer stays dependency-free in the offline build
//! container. An entry suppresses every diagnostic with the matching
//! `code` in the matching `path`; entries without a `reason` are rejected
//! so exceptions stay auditable.

use crate::Diagnostic;

/// One audited exception.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path (forward slashes) the exception covers.
    pub path: String,
    /// Lint code, e.g. `PAR001`.
    pub code: String,
    /// Why this occurrence is sound. Mandatory.
    pub reason: String,
}

/// The parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the `analyze.toml` subset. Returns a human-readable error on
    /// malformed input or entries missing `path`/`code`/`reason`.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        let mut current: Option<(Option<String>, Option<String>, Option<String>)> = None;
        let finish = |cur: Option<(Option<String>, Option<String>, Option<String>)>,
                      entries: &mut Vec<AllowEntry>|
         -> Result<(), String> {
            if let Some((path, code, reason)) = cur {
                entries.push(AllowEntry {
                    path: path.ok_or("allow entry missing `path`")?,
                    code: code.ok_or("allow entry missing `code`")?,
                    reason: reason.ok_or_else(|| {
                        "allow entry missing `reason` (exceptions must be audited)".to_string()
                    })?,
                });
            }
            Ok(())
        };
        for (ln, raw) in text.lines().enumerate() {
            let lineno = ln + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                finish(current.take(), &mut entries)?;
                current = Some((None, None, None));
                continue;
            }
            if line.starts_with('[') {
                return Err(format!("line {lineno}: unknown table `{line}`"));
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = \"value\"`"));
            };
            let key = key.trim();
            let value = value.trim();
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {lineno}: value for `{key}` must be quoted"))?;
            let Some(cur) = current.as_mut() else {
                return Err(format!("line {lineno}: `{key}` outside an [[allow]] table"));
            };
            match key {
                "path" => cur.0 = Some(value.to_string()),
                "code" => cur.1 = Some(value.to_string()),
                "reason" => cur.2 = Some(value.to_string()),
                other => return Err(format!("line {lineno}: unknown key `{other}`")),
            }
        }
        finish(current, &mut entries)?;
        Ok(Allowlist { entries })
    }

    /// Splits `diags` into (kept, suppressed). Also returns the entries
    /// that matched nothing, so stale exceptions can be reported.
    pub fn apply(&self, diags: Vec<Diagnostic>) -> Filtered {
        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        let mut used = vec![false; self.entries.len()];
        'diag: for d in diags {
            for (i, e) in self.entries.iter().enumerate() {
                if e.code == d.code && e.path == d.path {
                    used[i] = true;
                    suppressed.push(d);
                    continue 'diag;
                }
            }
            kept.push(d);
        }
        let stale = self
            .entries
            .iter()
            .zip(&used)
            .filter(|&(_, &u)| !u)
            .map(|(e, _)| e.clone())
            .collect();
        Filtered {
            kept,
            suppressed,
            stale,
        }
    }
}

/// Result of filtering diagnostics through the allowlist.
#[derive(Clone, Debug, Default)]
pub struct Filtered {
    /// Diagnostics not covered by any entry.
    pub kept: Vec<Diagnostic>,
    /// Diagnostics an entry suppressed.
    pub suppressed: Vec<Diagnostic>,
    /// Entries that matched no diagnostic (candidates for removal).
    pub stale: Vec<AllowEntry>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(path: &str, code: &'static str) -> Diagnostic {
        Diagnostic {
            path: path.to_string(),
            line: 1,
            code,
            message: String::new(),
        }
    }

    #[test]
    fn parses_entries_and_filters() {
        let toml = r#"
# audited exceptions
[[allow]]
path = "crates/sim/src/ready.rs"
code = "PAR001"
reason = "Waker forces atomics"

[[allow]]
path = "crates/x/src/lib.rs"   # trailing comment
code = "TIM001"
reason = "a literal the paper names"
"#;
        let list = Allowlist::parse(toml).unwrap();
        assert_eq!(list.entries.len(), 2);
        let f = list.apply(vec![
            diag("crates/sim/src/ready.rs", "PAR001"),
            diag("crates/sim/src/ready.rs", "FLT002"),
        ]);
        assert_eq!(f.kept.len(), 1);
        assert_eq!(f.kept[0].code, "FLT002");
        assert_eq!(f.suppressed.len(), 1);
        assert_eq!(f.stale.len(), 1, "unused entry reported as stale");
    }

    #[test]
    fn reason_is_mandatory() {
        let toml = "[[allow]]\npath = \"a.rs\"\ncode = \"PAR001\"\n";
        let err = Allowlist::parse(toml).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn rejects_unquoted_values_and_stray_keys() {
        assert!(Allowlist::parse("[[allow]]\npath = a.rs\n").is_err());
        assert!(Allowlist::parse("path = \"a.rs\"\n").is_err());
        assert!(Allowlist::parse("[other]\n").is_err());
    }

    #[test]
    fn empty_input_is_empty_list() {
        let list = Allowlist::parse("# nothing here\n").unwrap();
        assert!(list.entries.is_empty());
    }
}

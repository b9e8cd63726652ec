//! Fingerprint-keyed incremental lint cache.
//!
//! The per-file stage ([`crate::facts::analyze_file`]) is the expensive
//! part of a workspace run — lexing, parsing, and the taint walk. Its
//! result depends only on the file's path and contents, so it is cached
//! as one artifact per file in a [`robust::Store`] (the planner's profile
//! cache uses the same store), keyed by the path and an FNV-1a content
//! fingerprint. The global fixpoints in [`crate::graph`] are cheap and
//! re-run every time over the full fact set, which is what makes the
//! "edited file plus its call-graph neighborhood" re-analysis sound: the
//! neighborhood is *always* re-analyzed, from cached facts.
//!
//! The artifact is a versioned, line-based text format (tab-separated
//! records, escaped fields). The store checksums every artifact, so a
//! flipped byte or a truncation is quarantined and re-analyzed; any
//! other anomaly — bad header, short record, unparsable number — is a
//! miss too, never an error: a corrupt cache can cost time, not
//! correctness. Writes are atomic and the store's caps evict the oldest
//! artifacts, so older contents of an edited file age out.

use std::path::Path;

use robust::{Lookup, Store};

use crate::facts::{
    ArgFlow, CallFact, FileAnalysis, FileFacts, FnFact, GlobalAllows, LoopFact, LoopKind,
    PanicFact, ParamSink,
};
use crate::rules::Diagnostic;

/// Format header; bump the version whenever record shapes or any
/// analysis semantics change — a stale-version artifact is a miss.
const HEADER: &str = "soclint-cache v2";

/// Store key of an artifact: the content fingerprint (which also picks
/// the store shard) and the entry name, the path plus that fingerprint.
fn artifact_key(rel_path: &str, source: &str) -> (u64, String) {
    let fingerprint = robust::fnv1a(robust::FNV_OFFSET, source.as_bytes());
    (fingerprint, format!("{rel_path}-{fingerprint:016x}.lint"))
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// `Option<String>` for ident-shaped fields: `-` is `None` (identifiers
/// can never be `-`).
fn opt(s: &Option<String>) -> String {
    s.as_deref().map(esc).unwrap_or_else(|| "-".to_string())
}

fn unopt(s: &str) -> Option<Option<String>> {
    if s == "-" {
        Some(None)
    } else {
        unesc(s).map(Some)
    }
}

/// Serializes one file's analysis to the artifact text.
fn render(analysis: &FileAnalysis) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    let mut rec = |parts: &[String]| {
        out.push_str(&parts.join("\t"));
        out.push('\n');
    };
    rec(&["path".into(), esc(&analysis.facts.path)]);
    for d in &analysis.diags {
        rec(&[
            "D".into(),
            esc(&d.file),
            d.line.to_string(),
            esc(&d.rule),
            esc(&d.message),
        ]);
    }
    for d in &analysis.allowed {
        rec(&[
            "N".into(),
            esc(&d.file),
            d.line.to_string(),
            esc(&d.rule),
            esc(&d.message),
        ]);
    }
    for f in &analysis.facts.fns {
        rec(&[
            "F".into(),
            esc(&f.name),
            f.line.to_string(),
            u32::from(f.polls).to_string(),
            f.params
                .iter()
                .map(|p| esc(p))
                .collect::<Vec<_>>()
                .join(","),
        ]);
        if let Some(p) = &f.panic {
            rec(&["P".into(), p.line.to_string(), esc(&p.what)]);
        }
        for c in &f.calls {
            rec(&[
                "C".into(),
                c.line.to_string(),
                esc(&c.name),
                opt(&c.qual),
                u32::from(c.method).to_string(),
                opt(&c.recv),
            ]);
        }
        for l in &f.loops {
            rec(&[
                "L".into(),
                l.line.to_string(),
                l.kind.keyword().into(),
                u32::from(l.polls).to_string(),
                l.calls
                    .iter()
                    .map(u32::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ]);
        }
        for s in &f.param_sinks {
            let n = |v: Option<u32>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
            rec(&["S".into(), esc(&s.param), n(s.arith), n(s.index)]);
        }
        for a in &f.arg_flows {
            rec(&[
                "A".into(),
                a.call.to_string(),
                a.pos.to_string(),
                opt(&a.root),
                esc(&a.chain),
                u32::from(a.guarded).to_string(),
            ]);
        }
    }
    for (root, leaf) in &analysis.facts.uses {
        rec(&["U".into(), esc(root), esc(leaf)]);
    }
    for rule in &analysis.facts.allows.file_wide {
        rec(&["Wf".into(), esc(rule)]);
    }
    for (rule, lines) in &analysis.facts.allows.lines {
        for line in lines {
            rec(&["Wl".into(), esc(rule), line.to_string()]);
        }
    }
    out.push_str("end\n");
    out
}

/// Parses an artifact back; `None` on any anomaly.
fn parse_artifact(text: &str, expect_path: &str) -> Option<FileAnalysis> {
    let mut lines = text.lines();
    if lines.next()? != HEADER {
        return None;
    }
    let mut diags = Vec::new();
    let mut allowed = Vec::new();
    let mut facts = FileFacts {
        path: String::new(),
        fns: Vec::new(),
        uses: Vec::new(),
        allows: GlobalAllows::default(),
    };
    let mut ended = false;
    for line in lines {
        if ended {
            return None; // trailing junk
        }
        if line == "end" {
            ended = true;
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let num = |s: &str| s.parse::<u32>().ok();
        match fields.first().copied()? {
            "path" if fields.len() == 2 => facts.path = unesc(fields[1])?,
            "D" if fields.len() == 5 => diags.push(Diagnostic {
                file: unesc(fields[1])?,
                line: num(fields[2])?,
                rule: unesc(fields[3])?,
                message: unesc(fields[4])?,
            }),
            "N" if fields.len() == 5 => allowed.push(Diagnostic {
                file: unesc(fields[1])?,
                line: num(fields[2])?,
                rule: unesc(fields[3])?,
                message: unesc(fields[4])?,
            }),
            "F" if fields.len() == 5 => {
                let params = if fields[4].is_empty() {
                    Vec::new()
                } else {
                    fields[4]
                        .split(',')
                        .map(unesc)
                        .collect::<Option<Vec<_>>>()?
                };
                facts.fns.push(FnFact {
                    name: unesc(fields[1])?,
                    line: num(fields[2])?,
                    polls: fields[3] == "1",
                    params,
                    panic: None,
                    calls: Vec::new(),
                    loops: Vec::new(),
                    param_sinks: Vec::new(),
                    arg_flows: Vec::new(),
                });
            }
            "P" if fields.len() == 3 => {
                facts.fns.last_mut()?.panic = Some(PanicFact {
                    line: num(fields[1])?,
                    what: unesc(fields[2])?,
                });
            }
            "C" if fields.len() == 6 => facts.fns.last_mut()?.calls.push(CallFact {
                line: num(fields[1])?,
                name: unesc(fields[2])?,
                qual: unopt(fields[3])?,
                method: fields[4] == "1",
                recv: unopt(fields[5])?,
            }),
            "L" if fields.len() == 5 => {
                let kind = match fields[2] {
                    "loop" => LoopKind::Loop,
                    "while" => LoopKind::While,
                    "for" => LoopKind::For,
                    _ => return None,
                };
                let calls = if fields[4].is_empty() {
                    Vec::new()
                } else {
                    fields[4].split(',').map(num).collect::<Option<Vec<_>>>()?
                };
                facts.fns.last_mut()?.loops.push(LoopFact {
                    line: num(fields[1])?,
                    kind,
                    polls: fields[3] == "1",
                    calls,
                });
            }
            "S" if fields.len() == 4 => {
                let n = |s: &str| -> Option<Option<u32>> {
                    if s == "-" {
                        Some(None)
                    } else {
                        s.parse::<u32>().ok().map(Some)
                    }
                };
                facts.fns.last_mut()?.param_sinks.push(ParamSink {
                    param: unesc(fields[1])?,
                    arith: n(fields[2])?,
                    index: n(fields[3])?,
                });
            }
            "A" if fields.len() == 6 => facts.fns.last_mut()?.arg_flows.push(ArgFlow {
                call: num(fields[1])?,
                pos: num(fields[2])?,
                root: unopt(fields[3])?,
                chain: unesc(fields[4])?,
                guarded: fields[5] == "1",
            }),
            "U" if fields.len() == 3 => {
                facts.uses.push((unesc(fields[1])?, unesc(fields[2])?));
            }
            "Wf" if fields.len() == 2 => {
                facts.allows.file_wide.insert(unesc(fields[1])?);
            }
            "Wl" if fields.len() == 3 => {
                facts
                    .allows
                    .lines
                    .entry(unesc(fields[1])?)
                    .or_default()
                    .insert(num(fields[2])?);
            }
            _ => return None,
        }
    }
    if !ended || facts.path != expect_path {
        return None;
    }
    Some(FileAnalysis {
        diags,
        allowed,
        facts,
    })
}

/// Loads the cached analysis for (`rel_path`, `source`); `None` on any
/// miss (absent, corrupt, stale version, path mismatch).
pub fn load(dir: &Path, rel_path: &str, source: &str) -> Option<FileAnalysis> {
    let (fingerprint, name) = artifact_key(rel_path, source);
    let Lookup::Hit(bytes) = Store::new(dir).get(fingerprint, &name) else {
        return None;
    };
    parse_artifact(std::str::from_utf8(&bytes).ok()?, rel_path)
}

/// Removes the flat `<dir>/<name>.lint` artifacts that caches written
/// before the sharded store keep directly under their root: nothing reads
/// or evicts them any more. The store's shard directories are left alone.
/// Best-effort, like every cache write.
pub(crate) fn remove_flat_artifacts(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let flat = entry.file_type().is_ok_and(|t| t.is_file())
            && path.extension().is_some_and(|ext| ext == "lint");
        if flat {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Stores the analysis. All I/O failures are silently ignored — caching
/// is best-effort.
pub fn store(dir: &Path, rel_path: &str, source: &str, analysis: &FileAnalysis) {
    let (fingerprint, name) = artifact_key(rel_path, source);
    Store::new(dir).put(fingerprint, &name, render(analysis).as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::analyze_file;

    const SRC: &str = "fn f(s: &str, v: &[u8]) -> u8 {\n\
                       let n: usize = s.parse().ok()?;\n\
                       while n > v.len() { helper(n); }\n\
                       v[n]\n\
                       }\n";

    #[test]
    fn round_trip_is_lossless() {
        let a = analyze_file("crates/tdcsoc/src/planfile.rs", SRC);
        let parsed =
            parse_artifact(&render(&a), "crates/tdcsoc/src/planfile.rs").expect("round trip");
        assert_eq!(parsed, a);
    }

    #[test]
    fn round_trip_survives_special_characters() {
        let src = "fn f() { x.unwrap(); } // soclint: allow(panic-reach) -- tab\\there\n";
        let a = analyze_file("crates/tdcsoc/src/vectors.rs", src);
        let parsed =
            parse_artifact(&render(&a), "crates/tdcsoc/src/vectors.rs").expect("round trip");
        assert_eq!(parsed, a);
    }

    #[test]
    fn store_load_hits_and_misses() {
        let dir = std::env::temp_dir().join(format!(
            "soclint-cache-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let a = analyze_file("crates/tdcsoc/src/planfile.rs", SRC);
        assert!(
            load(&dir, "crates/tdcsoc/src/planfile.rs", SRC).is_none(),
            "cold miss"
        );
        store(&dir, "crates/tdcsoc/src/planfile.rs", SRC, &a);
        let hit = load(&dir, "crates/tdcsoc/src/planfile.rs", SRC).expect("warm hit");
        assert_eq!(hit, a);
        // Edited contents miss, then hit once stored.
        let edited = format!("{SRC}// trailing comment\n");
        assert!(load(&dir, "crates/tdcsoc/src/planfile.rs", &edited).is_none());
        let b = analyze_file("crates/tdcsoc/src/planfile.rs", &edited);
        store(&dir, "crates/tdcsoc/src/planfile.rs", &edited, &b);
        assert_eq!(
            load(&dir, "crates/tdcsoc/src/planfile.rs", &edited),
            Some(b)
        );
        // Another path with the same contents is another artifact.
        assert!(load(&dir, "crates/tdcsoc/src/vectors.rs", SRC).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifacts_are_misses() {
        for text in [
            "",
            "garbage",
            "soclint-cache v0\npath\tx\nend\n",
            &format!("{HEADER}\npath\tother.rs\nend\n"),
            &format!("{HEADER}\npath\tx.rs\nD\tonly\ttwo\nend\n"),
            &format!("{HEADER}\npath\tx.rs\nP\t3\torphan panic\nend\n"),
            &format!("{HEADER}\npath\tx.rs\n"),
            &format!("{HEADER}\npath\tx.rs\nend\ntrailing\n"),
            &format!("{HEADER}\npath\tx.rs\nF\tf\tnotanumber\t0\t\nend\n"),
        ] {
            assert!(parse_artifact(text, "x.rs").is_none(), "{text:?}");
        }
    }
}

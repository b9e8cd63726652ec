//! Schema check for `--format sarif`: the output is parsed with a real
//! (dependency-free) JSON parser and validated against the required
//! properties of the SARIF 2.1.0 schema — the same constraints GitHub's
//! code-scanning ingestion enforces. String-contains assertions would
//! miss malformed escaping or broken nesting; parsing does not.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use soclint::sarif::{to_sarif, SCHEMA_URI};
use soclint::{Diagnostic, RULE_IDS};

// --- Minimal strict JSON parser (test-only) -----------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            other => panic!("expected object for key {key:?}, got {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("expected array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Json::Str(self.string()),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => self.number(),
            None => panic!("unexpected end of input"),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        assert!(
            self.b[self.i..].starts_with(word.as_bytes()),
            "bad literal at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn number(&mut self) -> Json {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("utf8 number");
        Json::Num(
            text.parse()
                .unwrap_or_else(|e| panic!("bad number {text:?}: {e}")),
        )
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return out;
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .expect("utf8 hex");
                            let code = u32::from_str_radix(hex, 16)
                                .unwrap_or_else(|e| panic!("bad \\u escape {hex:?}: {e}"));
                            out.push(char::from_u32(code).expect("scalar \\u escape"));
                            self.i += 4;
                        }
                        other => panic!("bad escape {other:?}"),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    // Multibyte UTF-8 passes through unchanged.
                    let len = match c {
                        0x00..=0x1f => panic!("raw control byte {c:#x} in string"),
                        0x20..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    out.push_str(std::str::from_utf8(&self.b[self.i..self.i + len]).expect("utf8"));
                    self.i += len;
                }
                None => panic!("unterminated string"),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut v = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Json::Arr(v);
        }
        loop {
            v.push(self.value());
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Json::Arr(v);
                }
                other => panic!("expected , or ] got {other:?}"),
            }
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut m = BTreeMap::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Json::Obj(m);
        }
        loop {
            self.ws();
            let key = self.string();
            self.eat(b':');
            let val = self.value();
            assert!(
                m.insert(key.clone(), val).is_none(),
                "duplicate key {key:?}"
            );
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Json::Obj(m);
                }
                other => panic!("expected , or }} got {other:?}"),
            }
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing bytes after JSON document");
    v
}

// --- The SARIF 2.1.0 required-property check ----------------------------

/// Asserts every property the SARIF 2.1.0 schema marks `required` on the
/// objects soclint emits, plus the cross-references (ruleId/ruleIndex
/// agreement) that GitHub rejects when broken.
fn assert_valid_sarif(log: &Json) {
    assert_eq!(log.get("$schema").str(), SCHEMA_URI);
    assert_eq!(log.get("version").str(), "2.1.0");
    let runs = log.get("runs").arr();
    assert_eq!(runs.len(), 1, "one run per invocation");
    let run = &runs[0];

    let driver = run.get("tool").get("driver");
    assert_eq!(driver.get("name").str(), "soclint");
    let rules = driver.get("rules").arr();
    let rule_ids: Vec<&str> = rules.iter().map(|r| r.get("id").str()).collect();
    assert_eq!(rule_ids, RULE_IDS, "driver rule table mirrors RULE_IDS");
    for rule in rules {
        assert!(
            !rule.get("shortDescription").get("text").str().is_empty(),
            "every rule carries a description"
        );
        let help = rule.get("helpUri").str();
        assert!(
            help.ends_with(&format!("#{}", rule.get("id").str())),
            "helpUri anchors on the rule id: {help}"
        );
    }

    for result in run.get("results").arr() {
        let rule_id = result.get("ruleId").str();
        let idx = result.get("ruleIndex").num() as usize;
        assert_eq!(
            rule_ids.get(idx).copied(),
            Some(rule_id),
            "ruleIndex must point at ruleId's entry in the rule table"
        );
        let level = result.get("level").str();
        assert!(
            level == "error" || level == "note",
            "reported findings are errors, allow-suppressed ones notes: {level}"
        );
        assert!(!result.get("message").get("text").str().is_empty());
        let locations = result.get("locations").arr();
        assert_eq!(locations.len(), 1);
        let phys = locations[0].get("physicalLocation");
        let artifact = phys.get("artifactLocation");
        let uri = artifact.get("uri").str();
        assert!(
            !uri.is_empty() && !uri.starts_with('/'),
            "relative uri: {uri}"
        );
        assert_eq!(artifact.get("uriBaseId").str(), "%SRCROOT%");
        let line = phys.get("region").get("startLine").num();
        assert!(line >= 1.0, "startLine is 1-based");
    }
}

#[test]
fn empty_log_is_schema_valid() {
    let log = parse_json(&to_sarif(&[], &[]));
    assert_valid_sarif(&log);
    assert!(log.get("runs").arr()[0].get("results").arr().is_empty());
}

#[test]
fn results_with_hostile_text_stay_schema_valid() {
    let diags: Vec<Diagnostic> = RULE_IDS
        .iter()
        .enumerate()
        .map(|(i, rule)| Diagnostic {
            file: format!("crates/x/src/f{i}.rs"),
            line: i as u32, // includes 0, which must clamp to 1
            rule: (*rule).to_string(),
            message: format!("quote \" slash \\ newline \n tab \t unicode \u{2190} {rule}"),
        })
        .collect();
    let log = parse_json(&to_sarif(&diags, &[]));
    assert_valid_sarif(&log);
    let results = log.get("runs").arr()[0].get("results").arr().to_vec();
    assert_eq!(results.len(), RULE_IDS.len());
    // Escapes round-trip: the parsed message contains the raw characters.
    let msg = results[0].get("message").get("text").str().to_string();
    assert!(msg.contains("quote \" slash \\ newline \n tab \t unicode \u{2190}"));
}

#[test]
fn real_workspace_sarif_is_schema_valid() {
    // Lint the linter's own tripping fixtures through the real pipeline
    // so the SARIF path is exercised with genuine rule output.
    let root =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/panic-reach/trip");
    let diags = soclint::lint_workspace(&root).expect("fixture walk");
    assert!(!diags.is_empty(), "trip fixture produces results");
    assert_valid_sarif(&parse_json(&to_sarif(&diags, &[])));
}

#[test]
fn suppressed_findings_surface_as_schema_valid_notes() {
    // The shipped workspace is violation-free but carries audited
    // `allow` directives; those must come back as note-level results.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root");
    let report = soclint::lint_workspace_report(root, &soclint::LintOptions::default())
        .expect("workspace walk");
    assert!(
        !report.allowed.is_empty(),
        "the workspace's allow directives suppress real findings"
    );
    let log = parse_json(&to_sarif(&report.diags, &report.allowed));
    assert_valid_sarif(&log);
    let results = log.get("runs").arr()[0].get("results").arr().to_vec();
    assert!(results
        .iter()
        .any(|r| r.get("level").str() == "note" && r.get("ruleId").str() == "capture-mut"));
}

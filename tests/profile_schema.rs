//! Golden-file test pinning the `msccl-profile-v1` JSON *schema*.
//!
//! CI uploads `msccl profile --format json` reports as build artifacts,
//! so downstream dashboards parse this format long after the run that
//! produced it. This test pins the shape — which fields exist, in which
//! section, with which scalar type — while deliberately ignoring the
//! values, which vary with machine speed and algorithm. Renaming,
//! removing or retyping a field fails here; changing a measured number
//! never does. After an intentional format change, bump the schema
//! string in `ProfileReport::to_json` and regenerate the fixture with
//! `MSCCL_UPDATE_GOLDEN=1`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use msccl_sim::{simulate, SimConfig};
use msccl_topology::{Machine, Protocol};
use msccl_trace::ProfileReport;
use mscclang::{compile, CompileOptions};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("profile_schema_v1.txt")
}

/// Scalar type of one JSON value as rendered by `ProfileReport::to_json`
/// (no nested objects or arrays appear inside sample rows).
fn type_of(value: &str) -> &'static str {
    let v = value.trim();
    if v.starts_with('"') {
        "string"
    } else if v == "null" {
        "null"
    } else if v == "true" || v == "false" {
        "bool"
    } else if v.contains('.') {
        "float"
    } else {
        "int"
    }
}

/// Splits one `{"k": v, "k2": v2, ...}` line into `(key, value)` pairs.
/// Values are scalars; commas inside quoted strings are respected.
fn pairs(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let body = line
        .trim()
        .trim_start_matches('{')
        .trim_end_matches(',')
        .trim_end_matches('}');
    let mut field = String::new();
    let mut in_quotes = false;
    let mut fields = Vec::new();
    for c in body.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                field.push(c);
            }
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            _ => field.push(c),
        }
    }
    fields.push(field);
    for f in fields {
        if let Some((k, v)) = f.split_once(':') {
            out.push((k.trim().trim_matches('"').to_string(), v.trim().to_string()));
        }
    }
    out
}

/// Folds one report's JSON into `field path -> set of scalar types`.
/// Array rows are keyed as `section[].field`, so every row of every
/// section contributes; nullable fields union to `float|null`.
fn schema_of(json: &str, into: &mut BTreeMap<String, std::collections::BTreeSet<&'static str>>) {
    let mut section: Option<String> = None;
    for line in json.lines() {
        let t = line.trim();
        if let Some(name) = t
            .strip_suffix(": [")
            .and_then(|s| s.trim_end_matches('"').strip_prefix('"').map(String::from))
        {
            section = Some(name);
        } else if t == "]" || t == "]," {
            section = None;
        } else if t.starts_with('{') && t.len() > 1 {
            let sec = section.as_deref().expect("array row outside a section");
            for (k, v) in pairs(t) {
                into.entry(format!("{sec}[].{k}"))
                    .or_default()
                    .insert(type_of(&v));
            }
        } else if section.is_none() && t.starts_with('"') {
            for (k, v) in pairs(&format!("{{{}}}", t)) {
                into.entry(k).or_default().insert(type_of(&v));
            }
        }
    }
}

/// The schema fixture text: one `path: type|type` line per field, sorted.
fn render_schema() -> String {
    // A multi-channel ring so every section has rows, simulated twice:
    // once self-modeled (all step fields populated) and once without a
    // model (the nullable step fields render as null) — the union pins
    // both shapes.
    let program = msccl_algos::ring_all_reduce(4, 2).expect("builds");
    let ir = compile(&program, &CompileOptions::default()).expect("compiles");
    let cfg = SimConfig::new(Machine::ndv4(1))
        .with_protocol(Protocol::Simple)
        .with_trace(true);
    let trace = simulate(&ir, &cfg, 4096)
        .expect("simulates")
        .trace
        .expect("trace requested");

    let mut fields: BTreeMap<String, std::collections::BTreeSet<&'static str>> = BTreeMap::new();
    schema_of(
        &ProfileReport::from_traces(&trace, Some(&trace), 0.5).to_json(),
        &mut fields,
    );
    schema_of(
        &ProfileReport::from_traces(&trace, None, 0.5).to_json(),
        &mut fields,
    );

    let mut s = String::from("# msccl-profile-v1 field schema (path: type). Values are\n# deliberately not pinned; regenerate with MSCCL_UPDATE_GOLDEN=1.\n");
    for (path, types) in &fields {
        let types: Vec<&str> = types.iter().copied().collect();
        let _ = writeln!(s, "{path}: {}", types.join("|"));
    }
    s
}

#[test]
fn profile_json_schema_matches_fixture() {
    let schema = render_schema();
    let path = fixture_path();
    if std::env::var_os("MSCCL_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &schema).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("fixture missing; regenerate with MSCCL_UPDATE_GOLDEN=1");
    assert_eq!(
        schema, expected,
        "msccl-profile-v1 JSON schema drifted from the fixture; if the \
         change is intentional, bump the schema version in \
         ProfileReport::to_json and regenerate with MSCCL_UPDATE_GOLDEN=1"
    );
}

#[test]
fn profile_schema_spot_checks() {
    // Belt-and-braces on the derived schema itself, independent of the
    // fixture file: the fields the CLI help and docs promise, with the
    // types dashboards rely on.
    let schema = render_schema();
    for line in [
        "schema: string",
        "domain: string",
        "modeled_domain: null|string",
        "span_us: float",
        "flagged_steps: int",
        "thread_blocks[].rank: int",
        "thread_blocks[].compute_us: float",
        "thread_blocks[].critical_share: float",
        "channels[].bytes: int",
        "channels[].peak_occupancy: int",
        "ops[].op: string",
        "ops[].count: int",
        "steps[].measured_us: float",
        "steps[].flagged: bool",
    ] {
        assert!(schema.contains(line), "schema missing `{line}`:\n{schema}");
    }
    // The measured-vs-modeled columns are nullable (absent model).
    assert!(schema.contains("steps[].modeled_us: float|null"));
    assert!(schema.contains("steps[].divergence: float|null"));
    assert!(schema.contains("steps[].modeled_share: float|null"));
}

#[test]
fn profile_report_is_a_function_of_the_trace() {
    // A simulated trace is in virtual time, so the report built from it
    // must be too: the critical path's tie-breaks and every sum may not
    // depend on hash order. Ring allreduce on 8 ranks has many equally
    // long chains.
    let program = msccl_algos::ring_all_reduce(8, 1).expect("builds");
    let ir = compile(&program, &CompileOptions::default()).expect("compiles");
    let cfg = SimConfig::new(Machine::ndv4(1)).with_trace(true);
    let trace = simulate(&ir, &cfg, 1 << 20)
        .expect("simulates")
        .trace
        .expect("trace requested");
    let first = ProfileReport::from_traces(&trace, None, 0.5);
    let json = first.to_json();
    let nodes = trace.summary().critical_nodes;
    for _ in 0..20 {
        let again = ProfileReport::from_traces(&trace, None, 0.5);
        assert_eq!(again.critical_path_us, first.critical_path_us);
        assert_eq!(again.to_json(), json);
        assert_eq!(trace.summary().critical_nodes, nodes);
    }
}

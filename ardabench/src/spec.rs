//! `BENCHMARK.json`: the benchmark's declaration of its command,
//! workloads and metrics, checked against the format's limits.

use crate::json::Json;
use crate::stats::Better;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression (`None` for per-layer
    /// metrics, which have no bound).
    pub bound: Option<f64>,
}

/// One declared workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

/// The parsed file.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

const MAX_FILE_BYTES: usize = 64 * 1024;
const MAX_BOUND: f64 = 0.25;

impl Spec {
    /// Read and check the file at `path`.
    pub fn load(path: &str) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Spec::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parse and check a document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > MAX_FILE_BYTES {
            return Err(format!("{} bytes, limit {MAX_FILE_BYTES}", text.len()));
        }
        let doc = Json::parse(text)?;
        exact_keys(
            &doc,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "top level",
        )?;
        let command = strings(doc.get("command"), "command", 1, 32)?;
        for arg in &command {
            check_relative(arg, "command argument")?;
        }
        let paths = strings(doc.get("paths"), "paths", 1, 16)?;
        for p in &paths {
            check_relative(p, "path")?;
            if p.is_empty()
                || !p
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
            {
                return Err(format!("path {p:?} has characters outside [A-Za-z0-9_.-/]"));
            }
        }
        let run_seconds =
            doc.get("run_seconds")
                .and_then(Json::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("run_seconds must be a whole number from 1 to 60")? as u64;

        let workloads = items(doc.get("workloads"), "workloads", 2, 8)?
            .iter()
            .map(|w| {
                exact_keys(w, &["name", "why"], "workload")?;
                let why = field(w, "why")?;
                if why.is_empty() || why.chars().count() > 200 || why.contains('\n') {
                    return Err(format!(
                        "why of {:?} must be one line of 1 to 200 characters",
                        w.get("name")
                    ));
                }
                Ok(Workload {
                    name: name(w)?,
                    why: why.to_string(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let end_to_end = metrics(doc.get("end_to_end"), "end_to_end", 1, 16, true)?;
        let per_layer = metrics(doc.get("per_layer"), "per_layer", 1, 128, false)?;

        let mut seen = std::collections::HashSet::new();
        let names = workloads
            .iter()
            .map(|w| &w.name)
            .chain(end_to_end.iter().chain(&per_layer).map(|m| &m.name));
        for n in names {
            if !seen.insert(n.as_str()) {
                return Err(format!("name {n:?} is used twice"));
            }
        }
        let setup_ok = end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower);
        if !setup_ok {
            return Err("end_to_end must declare setup_s in s, lower is better".into());
        }
        Ok(Spec {
            command,
            paths,
            run_seconds,
            workloads,
            end_to_end,
            per_layer,
        })
    }

    /// The metrics a run prints: end-to-end ones untraced, per-layer ones
    /// traced.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn exact_keys(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let mut got = v.keys();
    let mut want = keys.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if !matches!(v, Json::Obj(_)) || got != want {
        return Err(format!(
            "{what} must have exactly the keys {keys:?}, found {got:?}"
        ));
    }
    Ok(())
}

fn items<'a>(
    v: Option<&'a Json>,
    what: &str,
    min: usize,
    max: usize,
) -> Result<&'a [Json], String> {
    let a = v
        .and_then(Json::as_array)
        .ok_or(format!("{what} must be a list"))?;
    if !(min..=max).contains(&a.len()) {
        return Err(format!(
            "{what} must have {min} to {max} entries, has {}",
            a.len()
        ));
    }
    Ok(a)
}

fn strings(v: Option<&Json>, what: &str, min: usize, max: usize) -> Result<Vec<String>, String> {
    items(v, what, min, max)?
        .iter()
        .map(|s| match s.as_str() {
            Some(s) if s.chars().count() <= 200 => Ok(s.to_string()),
            _ => Err(format!(
                "{what} entries must be strings of at most 200 characters"
            )),
        })
        .collect()
}

fn check_relative(s: &str, what: &str) -> Result<(), String> {
    if s.starts_with('/') || s.split('/').any(|part| part == "..") {
        return Err(format!("{what} {s:?} must stay inside the repository"));
    }
    Ok(())
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or(format!("{key} must be a string"))
}

fn name(v: &Json) -> Result<String, String> {
    let n = field(v, "name")?;
    let ok = n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
    if !ok {
        return Err(format!("bad name {n:?}"));
    }
    Ok(n.to_string())
}

fn metrics(
    v: Option<&Json>,
    what: &str,
    min: usize,
    max: usize,
    bounded: bool,
) -> Result<Vec<Metric>, String> {
    items(v, what, min, max)?
        .iter()
        .map(|m| {
            let keys: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            exact_keys(m, keys, what)?;
            let unit = field(m, "unit")?;
            let unit_ok = !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
            if !unit_ok {
                return Err(format!("bad unit {unit:?}"));
            }
            let better =
                Better::parse(field(m, "better")?).ok_or("better must be lower or higher")?;
            let bound = if bounded {
                let b = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .filter(|b| *b > 0.0 && *b <= MAX_BOUND);
                Some(b.ok_or(format!("bound must be in (0, {MAX_BOUND}]"))?)
            } else {
                None
            };
            Ok(Metric {
                name: name(m)?,
                unit: unit.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
      "command": ["python3", "perfbench/run.py"],
      "paths": ["perfbench"],
      "run_seconds": 10,
      "workloads": [
        {"name": "hit", "why": "repeated keys, so the cache is used"},
        {"name": "miss", "why": "distinct keys, so the cache is bypassed"}
      ],
      "end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}
      ],
      "per_layer": [
        {"name": "cache_hits", "unit": "count", "better": "higher"}
      ]
    }"#;

    #[test]
    fn parses_the_documented_example() {
        let s = Spec::parse(MINIMAL).unwrap();
        assert_eq!(s.run_seconds, 10);
        assert_eq!(s.workloads[1].name, "miss");
        assert_eq!(s.end_to_end[0].bound, Some(0.1));
        assert_eq!(s.per_layer[0].better, Better::Higher);
        assert_eq!(s.metrics(true).len(), 1);
        assert_eq!(s.metrics(false).len(), 2);
    }

    #[test]
    fn rejects_documents_outside_the_limits() {
        let cases = [
            ("\"run_seconds\": 10", "\"run_seconds\": 61"),
            ("\"run_seconds\": 10", "\"run_seconds\": 1.5"),
            ("\"bound\": 0.1}\n", "\"bound\": 0.3}\n"),
            ("\"name\": \"miss\"", "\"name\": \"hit\""),
            ("\"name\": \"cache_hits\"", "\"name\": \"_hits\""),
            ("\"unit\": \"count\"", "\"unit\": \"rows per second\""),
            ("\"better\": \"higher\"", "\"better\": \"up\""),
            ("\"perfbench\"]", "\"../perfbench\"]"),
            ("\"python3\", ", "\"/usr/bin/python3\", "),
            ("\"name\": \"setup_s\"", "\"name\": \"setup_ms\""),
            ("\"why\": \"repeated keys, so the cache is used\"", "\"why\": \"two\\nlines\""),
            ("\"per_layer\": [", "\"extra\": 1, \"per_layer\": ["),
            ("{\"name\": \"cache_hits\", \"unit\": \"count\", \"better\": \"higher\"}",
             "{\"name\": \"cache_hits\", \"unit\": \"count\", \"better\": \"higher\", \"bound\": 0.1}"),
        ];
        for (from, to) in cases {
            assert!(MINIMAL.contains(from), "fixture lacks {from:?}");
            let bad = MINIMAL.replacen(from, to, 1);
            assert!(Spec::parse(&bad).is_err(), "accepted {to:?}");
        }
        assert!(Spec::parse(&" ".repeat(MAX_FILE_BYTES + 1)).is_err());
    }

    /// The repository's own `BENCHMARK.json` passes the checks and names
    /// exactly the workloads and metrics this binary produces.
    #[test]
    fn repository_spec_matches_the_benchmark() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Spec::load(path).unwrap();
        let declared: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let built: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
        for (traced, table) in [
            (false, crate::metrics::END_TO_END),
            (true, crate::metrics::PER_LAYER),
        ] {
            let declared: Vec<&str> = spec
                .metrics(traced)
                .iter()
                .map(|m| m.name.as_str())
                .collect();
            let produced: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(declared, produced, "traced = {traced}");
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
        assert_eq!(spec.paths, vec!["ardabench".to_string()]);
    }
}

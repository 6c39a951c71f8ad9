//! `diff A B`: two sets of runs compared, workload by workload and
//! metric by metric, against the bounds `BENCHMARK.json` fixes.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::samples::Samples;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Lower values are better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// The rules of a `BENCHMARK.json`: end-to-end bounds, and the names of
/// the per-layer counts that must repeat exactly.
pub fn load_bounds(text: &str) -> Result<(Vec<Bound>, Vec<String>), String> {
    let doc = Value::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key:?} list"))
    };
    let field = |m: &Value, key: &str| -> Result<String, String> {
        m.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or(format!("metric without {key:?}"))
    };
    let bounds = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: field(m, "name")?,
                lower_is_better: field(m, "better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without \"bound\"")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut counts = Vec::new();
    for m in list("per_layer")? {
        if field(m, "unit")? == "count" {
            counts.push(field(m, "name")?);
        }
    }
    Ok((bounds, counts))
}

/// Run results keyed by `(workload, metric)`, from the JSON lines
/// `run --json FILE` appends.
pub fn load_runs(text: &str) -> Result<BTreeMap<(String, String), Samples>, String> {
    let mut out: BTreeMap<(String, String), Samples> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Value::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", i + 1))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or(format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// How one `(workload, metric)` pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the base median by more than the bound.
    Worse,
    /// A side's run-to-run spread exceeds the bound, so the pair cannot
    /// be judged — unless every new run beats every base run.
    Unresolved,
}

/// Judges `new` against `base` under `bound`.
pub fn judge(base: &mut Samples, new: &mut Samples, bound: &Bound) -> Verdict {
    let worse = |from: f64, to: f64| {
        if bound.lower_is_better {
            to > from
        } else {
            to < from
        }
    };
    let (Some(sb), Some(sn)) = (base.relative_spread(), new.relative_spread()) else {
        return Verdict::Unresolved;
    };
    if sb > bound.bound || sn > bound.bound {
        let base_values = base.values().to_vec();
        let all_better = new
            .values()
            .iter()
            .all(|&n| base_values.iter().all(|&b| worse(n, b)));
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let (b, n) = (base.median(), new.median());
    if worse(b, n) && (n - b).abs() > bound.bound * b.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Renders the comparison; the flag is `true` when every pair is `Ok`
/// and every per-layer count repeats exactly.
pub fn diff(benchmark: &str, base: &str, new: &str) -> Result<(String, bool), String> {
    let (bounds, counts) = load_bounds(benchmark)?;
    let mut base = load_runs(base)?;
    let mut new = load_runs(new)?;
    let workloads: std::collections::BTreeSet<String> = base
        .keys()
        .chain(new.keys())
        .map(|(w, _)| w.clone())
        .collect();
    let mut out = String::new();
    let mut all_ok = true;
    for w in &workloads {
        for bound in &bounds {
            let key = (w.clone(), bound.name.clone());
            let (Some(b), Some(n)) = (base.get_mut(&key), new.get_mut(&key)) else {
                continue;
            };
            let verdict = judge(b, n, bound);
            all_ok &= verdict == Verdict::Ok;
            let (bm, nm) = (b.median(), n.median());
            out.push_str(&format!(
                "{w:<14} {:<16} base {bm:>12.4} (spread {:>5.1} %)  new {nm:>12.4} \
                 (spread {:>5.1} %)  change {:>+6.1} %  bound {:>4.1} %  {}\n",
                bound.name,
                b.relative_spread().unwrap_or(f64::NAN) * 100.0,
                n.relative_spread().unwrap_or(f64::NAN) * 100.0,
                (nm - bm) / bm * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
        for name in &counts {
            let key = (w.clone(), name.clone());
            let (Some(b), Some(n)) = (base.get(&key), new.get(&key)) else {
                continue;
            };
            let first = b.values()[0];
            if b.values().iter().chain(n.values()).any(|&v| v != first) {
                all_ok = false;
                out.push_str(&format!(
                    "{w:<14} {name:<16} count changed: base {:?} new {:?}\n",
                    b.values(),
                    n.values()
                ));
            }
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
        "per_layer": [{"name": "solves", "unit": "count", "better": "lower"}]}"#;

    fn runs(latency: &[f64], rate: f64, solves: f64) -> String {
        latency
            .iter()
            .map(|l| {
                format!(
                    "{{\"workload\":\"w\",\"metrics\":{{\"latency_ms\":{{\"value\":{l}}},\
                     \"rate\":{{\"value\":{rate}}},\"solves\":{{\"value\":{solves}}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn same_runs_agree() {
        let a = runs(&[10.0, 10.1, 9.9], 5.0, 3.0);
        let (text, ok) = diff(BENCH, &a, &a).unwrap();
        assert!(ok, "{text}");
        assert_eq!(text.matches(" ok\n").count(), 2);
    }

    #[test]
    fn slowdown_beyond_bound_is_worse() {
        let a = runs(&[10.0, 10.1, 9.9], 5.0, 3.0);
        let b = runs(&[12.0, 12.1, 11.9], 5.0, 3.0);
        let (text, ok) = diff(BENCH, &a, &b).unwrap();
        assert!(!ok);
        assert!(text.contains("worse"), "{text}");
        // A faster new side is never worse.
        let (_, ok) = diff(BENCH, &b, &a).unwrap();
        assert!(ok);
    }

    #[test]
    fn noisy_runs_are_unresolved_and_counts_must_repeat() {
        let a = runs(&[10.0, 14.0, 8.0, 12.0], 5.0, 3.0);
        let (text, ok) = diff(BENCH, &a, &a).unwrap();
        assert!(!ok);
        assert!(text.contains("unresolved"), "{text}");
        let steady = runs(&[10.0, 10.1, 9.9], 5.0, 3.0);
        let (text, ok) = diff(BENCH, &steady, &runs(&[10.0, 10.1, 9.9], 5.0, 4.0)).unwrap();
        assert!(!ok);
        assert!(text.contains("count changed"), "{text}");
    }
}

//! `run.sh --compare A.json B.json`: do two suite results agree within
//! the benchmark's own bounds?
//!
//! Every end-to-end metric must lie within its bound of the other
//! file's value, in either direction; metrics the program counts rather
//! than times must be identical; nothing may have failed.

use phj_obs::{json, Json};

use crate::spec;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn value(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// One verdict line; `Err` lines fail the comparison.
fn judge(name: &str, a: Option<f64>, b: Option<f64>, bound: Option<f64>) -> Result<String, String> {
    let (Some(a), Some(b)) = (a, b) else {
        return Err(format!("{name}: missing from one file"));
    };
    let rel = if a == b {
        0.0
    } else {
        (b - a) / a.abs().max(f64::MIN_POSITIVE)
    };
    match bound {
        Some(bound) if rel.abs() <= bound => Ok(format!(
            "{name}: {a} -> {b} ({:+.2} %, bound {:.0} %)",
            rel * 100.0,
            bound * 100.0
        )),
        Some(bound) => Err(format!(
            "{name}: {a} -> {b} ({:+.2} %) OUTSIDE bound {:.0} %",
            rel * 100.0,
            bound * 100.0
        )),
        None if a == b => Ok(format!("{name}: {a} (exact)")),
        None => Err(format!("{name}: {a} -> {b} DIFFERS (exact metric)")),
    }
}

pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut agree = true;
    for w in spec::WORKLOADS {
        if a.get("workloads").and_then(|x| x.get(w.name)).is_none()
            && b.get("workloads").and_then(|x| x.get(w.name)).is_none()
        {
            continue;
        }
        println!("== {}", w.name);
        let mut lines = Vec::new();
        for doc in [&a, &b] {
            let failed = doc
                .get("workloads")
                .and_then(|x| x.get(w.name)?.get("failed")?.as_u64());
            if failed != Some(0) {
                lines.push(Err(format!("failed operations: {failed:?}")));
            }
        }
        for m in spec::END_TO_END {
            let get = |d| value(d, w.name, "end_to_end", m.name);
            lines.push(judge(m.name, get(&a), get(&b), Some(m.bound)));
        }
        for m in spec::per_layer()
            .iter()
            .filter(|m| spec::is_exact(&m.name, w.name))
        {
            let get = |d| value(d, w.name, "per_layer", &m.name);
            lines.push(judge(&m.name, get(&a), get(&b), None));
        }
        for line in lines {
            match line {
                Ok(l) => println!("  ok    {l}"),
                Err(l) => {
                    agree = false;
                    println!("  FAIL  {l}");
                }
            }
        }
    }
    println!(
        "{}",
        if agree {
            "agree within bounds"
        } else {
            "DO NOT agree within bounds"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_both_directions_and_exact_means_equal() {
        assert!(judge("m", Some(100.0), Some(109.0), Some(0.10)).is_ok());
        assert!(judge("m", Some(100.0), Some(91.0), Some(0.10)).is_ok());
        assert!(judge("m", Some(100.0), Some(111.0), Some(0.10)).is_err());
        assert!(judge("m", Some(100.0), Some(89.0), Some(0.10)).is_err());
        assert!(judge("m", Some(7.0), Some(7.0), None).is_ok());
        assert!(judge("m", Some(7.0), Some(7.000001), None).is_err());
        assert!(judge("m", Some(0.0), Some(0.0), None).is_ok());
        assert!(judge("m", None, Some(1.0), Some(0.1)).is_err());
    }
}

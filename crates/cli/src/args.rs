//! Tiny flag parser: `--name value` pairs and boolean `--name` flags.
//! Hand-rolled to keep the dependency set at the sanctioned minimum.

use std::collections::BTreeMap;

/// Parsed flags.
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse `--key value` / `--flag` pairs from an argument iterator.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("expected a --flag, got `{arg}`"));
            };
            match name {
                // Boolean flags take no value.
                "sim" | "hybrid" | "profile-regions" | "heatmap" | "explain" | "trace" => {
                    flags.push(name.to_string())
                }
                _ => {
                    let value = argv
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    values.insert(name.to_string(), value);
                }
            }
        }
        Ok(Args { values, flags })
    }

    /// Reject any provided option not in `known` (boolean flags checked
    /// too), so typos fail loudly instead of silently using defaults.
    pub fn allow(&self, known: &[&str]) -> Result<(), String> {
        for k in self.values.keys() {
            if !known.contains(&k.as_str()) {
                return Err(format!("unknown option --{k}"));
            }
        }
        for f in &self.flags {
            if !known.contains(&f.as_str()) {
                return Err(format!("unknown flag --{f}"));
            }
        }
        Ok(())
    }

    /// String option with a default.
    pub fn get_str(&self, name: &str, default: &str) -> String {
        self.values.get(name).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Unsigned option with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    /// Whether a boolean flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_and_flags() {
        let a = parse(&["--g", "19", "--sim", "--scheme", "group"]).unwrap();
        assert_eq!(a.get_usize("g", 1).unwrap(), 19);
        assert_eq!(a.get_str("scheme", "x"), "group");
        assert!(a.flag("sim"));
        assert!(!a.flag("hybrid"));
        assert_eq!(a.get_usize("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--g"]).is_err());
        let a = parse(&["--g", "abc"]).unwrap();
        assert!(a.get_usize("g", 1).is_err());
    }

    #[test]
    fn allow_catches_typos() {
        let a = parse(&["--tuplesize", "100"]).unwrap();
        assert!(a.allow(&["tuple-size"]).is_err());
        let a = parse(&["--tuple-size", "100", "--sim"]).unwrap();
        assert!(a.allow(&["tuple-size", "sim"]).is_ok());
    }
}

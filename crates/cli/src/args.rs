//! Tiny dependency-free argument parsing.

use std::collections::HashMap;

/// Parsed command line: a subcommand, further positional arguments (e.g.
/// `aj obs summary metrics.json`), and `--key value` / `--key=value` /
/// `--flag` options.
#[derive(Debug, Clone)]
pub struct Args {
    /// First positional argument (the subcommand).
    pub command: Option<String>,
    /// Positional arguments after the subcommand, in order.
    pub positionals: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// `boolean_flags` lists the options that never take a value: they are
    /// recorded as flags even when followed by another token, so
    /// `aj obs --detect summary` keeps `summary` as a positional instead of
    /// swallowing it as `--detect`'s value. Any option (boolean or not) can
    /// also be written inline as `--key=value`.
    ///
    /// # Errors
    /// Rejects a value-taking option at the end of the line with nothing
    /// following it, and an empty `--`.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        boolean_flags: &[&str],
    ) -> Result<Args, String> {
        let mut command = None;
        let mut positionals = Vec::new();
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("stray '--'".into());
                }
                if let Some((k, v)) = key.split_once('=') {
                    options.insert(k.to_string(), v.to_string());
                } else if boolean_flags.contains(&key) {
                    flags.push(key.to_string());
                } else {
                    match it.peek() {
                        Some(v) if !v.starts_with("--") => {
                            options.insert(key.to_string(), it.next().unwrap());
                        }
                        Some(_) => {
                            return Err(format!(
                                "option --{key} needs a value (use --{key}=... or --{key} VALUE)"
                            ));
                        }
                        None => {
                            return Err(format!("option --{key} needs a value"));
                        }
                    }
                }
            } else if command.is_none() {
                command = Some(a);
            } else {
                positionals.push(a);
            }
        }
        Ok(Args {
            command,
            positionals,
            options,
            flags,
        })
    }

    /// Positional argument after the subcommand (0-based).
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Parsed option with default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v}")),
        }
    }

    /// Rejects every option and flag outside `accepted` (`--help` is read
    /// everywhere), naming each and listing what `command` accepts.
    pub fn check_options(&self, command: &str, accepted: &[&str]) -> Result<(), String> {
        let keys = self.options.keys().chain(&self.flags).map(String::as_str);
        let mut unknown: Vec<&str> = keys
            .filter(|k| *k != "help" && !accepted.contains(k))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        Err(format!(
            "aj {command} does not read --{} (it accepts --{})",
            unknown.join(", --"),
            accepted.join(", --")
        ))
    }

    /// Boolean flag: `--key`, `--key=true`, or `--key=false` (the inline
    /// form lets scripts toggle flags without editing the argument list).
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
            || self.options.get(key).map(String::as_str) == Some("true")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOOLS: &[&str] = &["quiet", "detect", "help", "quick"];

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from), BOOLS).unwrap()
    }

    #[test]
    fn command_options_and_flags() {
        let a = parse("solve --matrix fd68 --tol 1e-4 --quiet");
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.get("matrix"), Some("fd68"));
        assert_eq!(a.get_or("tol", 1.0).unwrap(), 1e-4);
        assert!(a.has_flag("quiet"));
        assert!(!a.has_flag("verbose"));
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse("info");
        assert_eq!(a.get_or("threads", 4usize).unwrap(), 4);
        assert!(a.positional(0).is_none());
        let bad = parse("solve --tol abc");
        assert!(bad.get_or("tol", 1.0).is_err());
    }

    #[test]
    fn nested_subcommands_via_positionals() {
        let a = parse("obs summary metrics.json --width 100");
        assert_eq!(a.command.as_deref(), Some("obs"));
        assert_eq!(a.positional(0), Some("summary"));
        assert_eq!(a.positional(1), Some("metrics.json"));
        assert_eq!(a.get_or("width", 80usize).unwrap(), 100);
    }

    #[test]
    fn boolean_flag_does_not_swallow_a_following_positional() {
        // The old parser consumed `summary` as the value of --detect.
        let a = parse("obs --detect summary metrics.json");
        assert!(a.has_flag("detect"));
        assert_eq!(a.positional(0), Some("summary"));
        assert_eq!(a.positional(1), Some("metrics.json"));
        // ... and a boolean flag right before another option still works.
        let a = parse("solve --detect --tol 1e-8");
        assert!(a.has_flag("detect"));
        assert_eq!(a.get_or("tol", 1.0).unwrap(), 1e-8);
    }

    #[test]
    fn inline_equals_values() {
        let a = parse("solve --matrix=fd68 --tol=1e-4 --detect=true --quick=false");
        assert_eq!(a.get("matrix"), Some("fd68"));
        assert_eq!(a.get_or("tol", 1.0).unwrap(), 1e-4);
        assert!(a.has_flag("detect"));
        assert!(!a.has_flag("quick"));
        // '=' inside the value survives.
        let a = parse("solve --note=a=b");
        assert_eq!(a.get("note"), Some("a=b"));
    }

    #[test]
    fn trailing_boolean_flag_is_fine_but_dangling_option_errors() {
        let a = parse("solve --quick");
        assert!(a.has_flag("quick"));
        let err = Args::parse(["solve".into(), "--matrix".into()], BOOLS).unwrap_err();
        assert!(err.contains("--matrix"));
        // A value-taking option followed by another option is a usage
        // error, not a silent flag.
        assert!(Args::parse(
            [
                "solve".into(),
                "--matrix".into(),
                "--tol".into(),
                "1".into()
            ]
            .into_iter(),
            BOOLS,
        )
        .is_err());
    }
}

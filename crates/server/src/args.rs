//! The workspace's one `--key value` flag parser: the server binaries use
//! it directly, `jnvm-bench` re-exports it for the figure regenerators, and
//! the `jnvm-faultsim timeline` subcommand parses its flags with it.

use std::collections::HashMap;

/// Parsed command-line flags.
#[derive(Debug, Default, Clone)]
pub struct Args {
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse the process arguments. Accepts `--key value` and
    /// `--key=value`; bare flags get the value `"true"`.
    pub fn parse() -> Args {
        Args::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (tests).
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Args {
        let mut flags = HashMap::new();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                continue;
            };
            if let Some((k, v)) = key.split_once('=') {
                flags.insert(k.to_string(), v.to_string());
            } else if it.peek().is_some_and(|n| !n.starts_with("--")) {
                flags.insert(key.to_string(), it.next().expect("peeked"));
            } else {
                flags.insert(key.to_string(), "true".to_string());
            }
        }
        Args { flags }
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// Typed flag: `Ok(default)` when the flag is absent, `Err` naming the
    /// flag and the offending value when it is present but does not parse.
    pub fn try_get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                format!(
                    "--{key}: cannot parse {v:?} as a {}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// Typed flag with default. A value that does not parse is a usage
    /// error, never a silent fallback to the default (a typo'd
    /// `--ops 1o00` must not run the default experiment and report it as
    /// the requested one).
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get_or(key, default)
            .unwrap_or_else(|e| Args::usage_error(&e))
    }

    /// Report a usage error — an unparseable flag value, an unservable
    /// topology — on stderr and exit with code 2.
    pub fn usage_error(msg: &str) -> ! {
        eprintln!("{msg}");
        std::process::exit(2)
    }

    /// Boolean flag (present or `--key true`).
    pub fn has(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::from_args(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn key_value_forms() {
        let a = parse(&["--records", "100", "--ops=5", "--fast", "--name", "x"]);
        assert_eq!(a.get_or("records", 0u64), 100);
        assert_eq!(a.get_or("ops", 0u64), 5);
        assert!(a.has("fast"));
        assert_eq!(a.get("name"), Some("x"));
        assert_eq!(a.get_or("missing", 7u32), 7);
    }

    #[test]
    fn garbage_is_ignored() {
        let a = parse(&["positional", "--k", "v"]);
        assert_eq!(a.get("k"), Some("v"));
        assert_eq!(a.get("positional"), None);
    }

    #[test]
    fn unparseable_value_is_an_error_not_the_default() {
        let a = parse(&["--ops=abc", "--shards", "-1"]);
        let err = a
            .try_get_or("ops", 200usize)
            .expect_err("abc is not a count");
        assert!(err.contains("--ops") && err.contains("abc"), "{err}");
        assert!(a.try_get_or("shards", 1usize).is_err(), "-1 is not a usize");
        assert_eq!(a.try_get_or("missing", 7u32), Ok(7));
    }
}

//! Strict command-line parsing shared by `tsim` and `terasim-serve`.
//!
//! Every flag must be one the command declares, and every value flag
//! needs a value: a misspelt or retired flag is an error that names it,
//! never a run on the defaults.

use std::str::FromStr;

/// A parsed command line: `--flag value` pairs and bare switches.
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `raw` against the flags that take a value and the switches
    /// that do not.
    pub fn parse(raw: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut args = Self { values: Vec::new(), switches: Vec::new() };
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            if switches.contains(&flag.as_str()) {
                args.switches.push(flag.clone());
            } else if value_flags.contains(&flag.as_str()) {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                args.values.push((flag.clone(), value.clone()));
            } else {
                return Err(format!("unknown flag {flag:?}"));
            }
        }
        Ok(args)
    }

    /// The value of `name`, if given (the last one, if given twice).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.iter().rev().find(|(flag, _)| flag == name).map(|(_, v)| v.as_str())
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of `name` parsed as `T`, or `default` when absent. A
    /// value that is present but malformed is an error naming the flag.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value for {name}: {v:?}")),
        }
    }
}

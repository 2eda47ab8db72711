//! Option parsing and output helpers shared by the crate's binaries
//! (`hypernel-campaign`, `hypernel-staticheck`, `hypernel-audit`).

use std::path::Path;

/// `--name value` pairs in command-line order.
pub type ParsedOptions = Vec<(String, String)>;

/// Splits `--name value` arguments, accepting only the names in
/// `flags`; an error for a positional argument, an unknown option or a
/// missing value.
pub fn split_args(rest: &[String], flags: &[&str]) -> Result<ParsedOptions, String> {
    let mut options = Vec::new();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        if !flags.contains(&name) {
            return Err(format!("unknown option `--{name}`"));
        }
        let value = iter
            .next()
            .cloned()
            .ok_or_else(|| format!("option `--{name}` needs a value"))?;
        options.push((name.to_string(), value));
    }
    Ok(options)
}

/// The last value given for `--name`.
pub fn opt<'a>(options: &'a [(String, String)], name: &str) -> Option<&'a str> {
    options
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// `--name` parsed as a number, `default` when absent, an error when
/// the value does not parse.
pub fn opt_num<T: std::str::FromStr>(
    options: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    match opt(options, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("option `--{name}`: invalid number `{text}`")),
    }
}

/// Writes `content` to `path` (creating parent directories) and notes
/// it on stderr, or prints it to stdout when there is no path.
pub fn write_or_stdout(path: Option<&str>, content: &str, what: &str) -> Result<(), String> {
    let Some(path) = path else {
        print!("{content}");
        return Ok(());
    };
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create `{}`: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, content).map_err(|e| format!("cannot write {what} `{path}`: {e}"))?;
    eprintln!("wrote {what} to {path}");
    Ok(())
}
